package henn

import (
	"fmt"
	"sort"

	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

// Plan is a compiled homomorphic evaluation pipeline: a sequence of stages
// over one packed ciphertext.
type Plan struct {
	// Slots is the SIMD width the plan was compiled for.
	Slots int
	// InputDim is the raw input length (784 pixels).
	InputDim int
	// OutputDim is the number of logits.
	OutputDim int
	// Stages in evaluation order.
	Stages []Stage
	// Depth is the number of levels the plan consumes.
	Depth int
	// Opt configures the graph optimizer run between lowering and
	// preparation; nil selects the full default pass pipeline, and
	// opt.Disabled() (the -opt=off escape hatch) executes the canonical
	// lowering unchanged.
	Opt *opt.Options

	// cache holds one lowered, optimized, plaintext-pre-encoded graph
	// per engine.
	cache prepCache
}

// prepare returns the plan's graph prepared for e, lowering, optimizing
// and pre-encoding it on first use per engine.
func (p *Plan) prepare(e Engine) (*exec.Prepared, error) {
	en, err := p.cache.get(e, p.Lower, p.Opt)
	return en.pr, err
}

// OptResult returns the optimizer outcome for e, preparing the plan if
// needed (before/after stats and per-pass deltas, for CLIs and bench
// reports).
func (p *Plan) OptResult(e Engine) (*opt.Result, error) {
	en, err := p.cache.get(e, p.Lower, p.Opt)
	return en.res, err
}

// Optimize lowers the plan for e's parameters and runs the configured
// optimizer (p.Opt) over the graph, without preparing it. Lowering is
// symbolic, so e may be a ParamsOnlyEngine: the result is the graph
// every engine with those parameters executes.
func (p *Plan) Optimize(e Engine) (*opt.Result, error) {
	return lowerOptimized(e, p.Lower, p.Opt)
}

// Stage is one homomorphic pipeline step.
type Stage interface {
	// Eval applies the stage.
	Eval(e Engine, ct Ct) Ct
	// Rotations lists the slot rotations the stage needs.
	Rotations() []int
	// Depth is the number of rescales the stage consumes.
	Depth() int
	// Describe returns a human-readable summary.
	Describe() string
}

// Rotations returns the union of rotation amounts needed by all stages.
func (p *Plan) Rotations() []int {
	set := map[int]bool{}
	for _, s := range p.Stages {
		for _, r := range s.Rotations() {
			if r != 0 {
				set[r] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// LinearStage evaluates y = M·x + b by the Halevi–Shoup diagonal method
// with baby-step/giant-step rotations. M is held as its nonzero
// generalized diagonals over the full slot dimension.
type LinearStage struct {
	Label string
	// Diags maps diagonal index k to the vector diag_k[i] = M[i][(i+k) mod slots].
	Diags map[int][]float64
	// Bias is the slot-aligned bias vector.
	Bias  []float64
	Slots int
	// BSGS split: Baby · Giant = Slots.
	Baby, Giant int
}

// NewLinearStage lowers an explicit rows×cols matrix (rows, cols ≤ slots)
// with bias to a stage.
func NewLinearStage(label string, m *tensor.Tensor, bias []float64, slots int) (*LinearStage, error) {
	rows, cols := m.Shape[0], m.Shape[1]
	if rows > slots || cols > slots {
		return nil, fmt.Errorf("henn: matrix %dx%d exceeds %d slots", rows, cols, slots)
	}
	st := &LinearStage{
		Label: label,
		Diags: map[int][]float64{},
		Bias:  make([]float64, slots),
		Slots: slots,
	}
	copy(st.Bias, bias)
	for k := 0; k < slots; k++ {
		var diag []float64
		for i := 0; i < rows; i++ {
			j := (i + k) % slots
			if j >= cols {
				continue
			}
			v := m.Data[i*cols+j]
			if v == 0 {
				continue
			}
			if diag == nil {
				diag = make([]float64, slots)
			}
			diag[i] = v
		}
		if diag != nil {
			st.Diags[k] = diag
		}
	}
	if len(st.Diags) == 0 {
		return nil, fmt.Errorf("henn: zero matrix for stage %s", label)
	}
	// Balanced power-of-two BSGS split.
	logS := 0
	for 1<<logS < slots {
		logS++
	}
	st.Baby = 1 << ((logS + 1) / 2)
	st.Giant = slots / st.Baby
	return st, nil
}

// Rotations implements Stage: the used baby steps and giant steps.
func (s *LinearStage) Rotations() []int {
	set := map[int]bool{}
	for k := range s.Diags {
		i, j := k/s.Baby, k%s.Baby
		if j != 0 {
			set[j] = true
		}
		if i != 0 {
			set[i*s.Baby] = true
		}
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Depth implements Stage.
func (s *LinearStage) Depth() int { return 1 }

// Describe implements Stage.
func (s *LinearStage) Describe() string {
	return fmt.Sprintf("linear %s: %d diagonals, bsgs %dx%d", s.Label, len(s.Diags), s.Baby, s.Giant)
}

// rotateVec cyclically rotates v left by k (k may be negative).
func rotateVec(v []float64, k int) []float64 {
	n := len(v)
	k = ((k % n) + n) % n
	if k == 0 {
		return v
	}
	out := make([]float64, n)
	copy(out, v[k:])
	copy(out[n-k:], v[:k])
	return out
}

// Eval implements Stage. The output scale returns to the input scale after
// the built-in rescale; one level is consumed.
func (s *LinearStage) Eval(e Engine, x Ct) Ct {
	return s.eval(e, x, true)
}

// EvalNoBias evaluates the linear map without adding the bias (used by the
// RNS decomposition pipeline, where only the weight-1 part carries it).
func (s *LinearStage) EvalNoBias(e Engine, x Ct) Ct {
	return s.eval(e, x, false)
}

func (s *LinearStage) eval(e Engine, x Ct, withBias bool) Ct {
	return e.Rescale(s.evalRaw(e, x, withBias))
}

// evalRaw is eval up to (not including) the final rescale: the BSGS
// accumulator at the pre-rescale scale S·q̃_ℓ. The sharded pipeline sums
// several block accumulators (one per input shard) at this scale before
// paying the single rescale; with one block the sequence rescale∘evalRaw
// is exactly eval, which is what makes the 1×1-grid sharded lowering
// bit-identical to the unsharded one.
func (s *LinearStage) evalRaw(e Engine, x Ct, withBias bool) Ct {
	level := e.Level(x)
	ptScale := e.QiFloat(level)
	// Hoist all baby-step rotations: the key-switch decomposition of x is
	// computed once for the whole stage.
	babySteps := map[int]bool{}
	for k := range s.Diags {
		babySteps[k%s.Baby] = true
	}
	var babyList []int
	for j := range babySteps {
		babyList = append(babyList, j)
	}
	babies := e.RotateMany(x, babyList)
	var acc Ct
	for i := 0; i < s.Giant; i++ {
		var inner Ct
		for j := 0; j < s.Baby; j++ {
			k := i*s.Baby + j
			diag, ok := s.Diags[k]
			if !ok {
				continue
			}
			baby := babies[j]
			term := e.MulPlainVecCached(baby, fmt.Sprintf("%s/d%d", s.Label, k),
				rotateVec(diag, -i*s.Baby), ptScale)
			if inner == nil {
				inner = term
			} else {
				inner = e.Add(inner, term)
			}
		}
		if inner == nil {
			continue
		}
		if i != 0 {
			inner = e.Rotate(inner, i*s.Baby)
		}
		if acc == nil {
			acc = inner
		} else {
			acc = e.Add(acc, inner)
		}
	}
	if withBias {
		// Bias joins at the pre-rescale scale S·q̃_ℓ.
		acc = e.AddPlainVecCached(acc, s.Label+"/bias", s.Bias)
	}
	return acc
}

// ActStage evaluates a degree-≤4 polynomial activation with per-slot
// coefficient vectors. Degrees 1–3 take multiplicative depth 2:
//
//	y = A0 + A1⊙x + (A2 + A3⊙x)⊙x².
//
// Degree 4 — the Ishiyama-style higher-fidelity activation the CIFAR-10
// CNN3 config uses — takes depth 3:
//
//	y = A0 + A1⊙x + (A2 + A3⊙x + A4⊙x²)⊙x².
type ActStage struct {
	Label  string
	Degree int
	// A[p] is the slot-aligned coefficient vector for power p.
	A      [5][]float64
	SlotsN int
}

// NewActStage builds an activation stage from per-unit SLAF coefficients
// broadcast over the packed layout. unitOf maps a slot index (< dim) to
// its coefficient group.
func NewActStage(label string, s *nn.SLAF, dim int, unitOf func(i int) int, slots int) (*ActStage, error) {
	if s.Degree > 4 || s.Degree < 1 {
		return nil, fmt.Errorf("henn: unsupported SLAF degree %d (1..4)", s.Degree)
	}
	st := &ActStage{Label: label, Degree: s.Degree, SlotsN: slots}
	for p := 0; p <= s.Degree; p++ {
		st.A[p] = make([]float64, slots)
	}
	for i := 0; i < dim; i++ {
		u := unitOf(i)
		for p := 0; p <= s.Degree; p++ {
			st.A[p][i] = s.Coeffs.Data[u*(s.Degree+1)+p]
		}
	}
	return st, nil
}

// Rotations implements Stage.
func (s *ActStage) Rotations() []int { return nil }

// Depth implements Stage.
func (s *ActStage) Depth() int {
	if s.Degree >= 4 {
		return 3
	}
	return 2
}

// Describe implements Stage.
func (s *ActStage) Describe() string {
	return fmt.Sprintf("act %s: degree %d", s.Label, s.Degree)
}

// Eval implements Stage.
func (s *ActStage) Eval(e Engine, x Ct) Ct {
	level := e.Level(x)
	scaleX := e.ScaleOf(x)
	switch s.Degree {
	case 1:
		// y = A0 + A1⊙x (consume one level for uniform depth accounting).
		t := e.Rescale(e.MulPlainVecCached(x, s.Label+"/a1", s.A[1], e.QiFloat(level)))
		t = e.DropLevel(t, 1)
		return e.AddPlainVecCached(t, s.Label+"/a0", s.A[0])
	case 2:
		// y = A0 + A1⊙x + A2⊙x²
		x2 := e.Rescale(e.MulRelin(x, x)) // level-1, S²/q
		t2 := e.Rescale(e.MulPlainVecCached(x2, s.Label+"/a2", s.A[2], e.QiFloat(level-1)))
		// A1⊙x aligned to t2's scale and level.
		target := e.ScaleOf(t2)
		sc1 := target * e.QiFloat(level) / scaleX
		t1 := e.DropLevel(e.Rescale(e.MulPlainVecCached(x, s.Label+"/a1", s.A[1], sc1)), 1)
		y := e.Add(t2, t1)
		return e.AddPlainVecCached(y, s.Label+"/a0", s.A[0])
	case 3:
		x2 := e.Rescale(e.MulRelin(x, x)) // level-1, S²/q_ℓ
		// u = A3⊙x + A2 at level-1
		u := e.Rescale(e.MulPlainVecCached(x, s.Label+"/a3", s.A[3], e.QiFloat(level)))
		u = e.AddPlainVecCached(u, s.Label+"/a2", s.A[2])
		v := e.Rescale(e.MulRelin(u, x2)) // level-2
		// w = A1⊙x aligned to v.
		target := e.ScaleOf(v)
		sc1 := target * e.QiFloat(level) / scaleX
		w := e.DropLevel(e.Rescale(e.MulPlainVecCached(x, s.Label+"/a1", s.A[1], sc1)), 1)
		y := e.Add(v, w)
		return e.AddPlainVecCached(y, s.Label+"/a0", s.A[0])
	default: // 4
		x2 := e.Rescale(e.MulRelin(x, x)) // level-1, s2 := S²/q_ℓ
		// q = A4⊙x² + A3⊙x + A2 at level-2, scale s2.
		t4 := e.Rescale(e.MulPlainVecCached(x2, s.Label+"/a4", s.A[4], e.QiFloat(level-1)))
		target := e.ScaleOf(t4)
		sc3 := target * e.QiFloat(level) / scaleX
		t3 := e.DropLevel(e.Rescale(e.MulPlainVecCached(x, s.Label+"/a3", s.A[3], sc3)), 1)
		q := e.AddPlainVecCached(e.Add(t4, t3), s.Label+"/a2", s.A[2])
		v := e.Rescale(e.MulRelin(q, e.DropLevel(x2, 1))) // level-3
		// w = A1⊙x aligned to v.
		targetV := e.ScaleOf(v)
		sc1 := targetV * e.QiFloat(level) / scaleX
		w := e.DropLevel(e.Rescale(e.MulPlainVecCached(x, s.Label+"/a1", s.A[1], sc1)), 2)
		y := e.Add(v, w)
		return e.AddPlainVecCached(y, s.Label+"/a0", s.A[0])
	}
}

// Options controls plan compilation.
type Options struct {
	// Collapse merges adjacent linear layers (conv, pool, dense, folded
	// batch norm) into a single matrix before lowering — the paper's
	// Table I "2-arch" dual-architecture strategy. Each collapse saves one
	// multiplicative level and one full BSGS matrix-vector product.
	Collapse bool
}

// Compile lowers a trained SLAF model to a homomorphic plan for the given
// slot count with linear collapsing enabled.
func Compile(m *nn.Model, slots int) (*Plan, error) {
	return CompileWithOptions(m, slots, Options{Collapse: true})
}

// tshape tracks the tensor shape flowing between layers during the model
// walk (c = 0 for flat vectors).
type tshape struct {
	c, h, w int
	flat    int
}

// absStage is one pipeline step in compiler-internal form: a linear map
// (mat != nil) or a polynomial activation (slaf != nil), with the tensor
// shapes at its boundaries. Compile and CompileSharded both lower the
// same abstract walk — matrices, biases, labels and coefficient layouts
// are byte-for-byte shared — which is what keeps the 1×1-grid sharded
// lowering identical to the unsharded one.
type absStage struct {
	label string
	// Linear: rows = out.flat, cols = in.flat.
	mat  *tensor.Tensor
	bias []float64
	// Activation: per-unit SLAF coefficients; unitOf maps a global flat
	// index (< in.flat) to its coefficient group.
	slaf    *nn.SLAF
	unitOf  func(i int) int
	in, out tshape
}

// pendingLinear accumulates a linear map awaiting lowering (and possible
// collapsing with the next linear layer).
type pendingLinear struct {
	label   string
	mat     *tensor.Tensor
	bias    []float64
	in, out tshape
}

func (p *pendingLinear) abs() absStage {
	return absStage{label: p.label, mat: p.mat, bias: p.bias, in: p.in, out: p.out}
}

// buildAbstract walks the model layers into abstract stages: it detects
// the input shape, folds batch norms into their convolutions, collapses
// adjacent linear layers when enabled, absorbs the 1/255 pixel
// normalization into the first linear matrix (inputs are encrypted as
// raw [0, 255] pixels), and records the tensor shape at every stage
// boundary so sharded lowering can choose per-boundary manifests.
func buildAbstract(m *nn.Model, opts Options) (stages []absStage, input tshape, outputDim int, err error) {
	var cur tshape
	layers := m.Layers
	switch first := layers[0].(type) {
	case *nn.Conv2D:
		cur = tshape{c: first.InC, h: first.InH, w: first.InW, flat: first.InC * first.InH * first.InW}
	case *nn.Dense:
		cur = tshape{flat: first.In}
	case *nn.Flatten:
		if len(layers) < 2 {
			return nil, tshape{}, 0, fmt.Errorf("henn: model too short")
		}
		d, ok := layers[1].(*nn.Dense)
		if !ok {
			return nil, tshape{}, 0, fmt.Errorf("henn: flatten must precede a dense layer at the input")
		}
		cur = tshape{flat: d.In}
	default:
		return nil, tshape{}, 0, fmt.Errorf("henn: unsupported first layer %T", layers[0])
	}
	input = cur
	inputScale := 1.0 / 255

	var pending *pendingLinear
	// pushLinear queues a linear map, collapsing it into the pending one
	// when enabled: M2·(M1·x + b1) + b2 = (M2·M1)·x + (M2·b1 + b2).
	pushLinear := func(label string, mat *tensor.Tensor, bias []float64, in, out tshape) {
		applyInputScale(mat, &inputScale)
		if pending == nil {
			pending = &pendingLinear{label: label, mat: mat, bias: bias, in: in, out: out}
			return
		}
		if !opts.Collapse {
			stages = append(stages, pending.abs())
			pending = &pendingLinear{label: label, mat: mat, bias: bias, in: in, out: out}
			return
		}
		merged := tensor.MatMul(mat, pending.mat)
		mb := tensor.MatVec(mat, pending.bias)
		for i := range mb {
			mb[i] += bias[i]
		}
		pending = &pendingLinear{label: pending.label + "*" + label, mat: merged, bias: mb, in: pending.in, out: out}
	}
	flushPending := func() {
		if pending != nil {
			stages = append(stages, pending.abs())
			pending = nil
		}
	}

	for li := 0; li < len(layers); li++ {
		switch l := layers[li].(type) {
		case *nn.Conv2D:
			wt := tensor.FromSlice(l.W.Data, l.OutC, l.InC, l.K, l.K)
			mat, bias := tensor.ConvAsMatrix(wt, l.B.Data, l.InC, l.InH, l.InW, l.Stride, l.Pad)
			outShape := tshape{c: l.OutC, h: l.OutH(), w: l.OutW()}
			outShape.flat = outShape.c * outShape.h * outShape.w
			// Fold a following BatchNorm2D.
			label := fmt.Sprintf("conv%d", li)
			if li+1 < len(layers) {
				if bn, ok := layers[li+1].(*nn.BatchNorm2D); ok {
					scale, shift := bn.InferenceAffine()
					hw := outShape.h * outShape.w
					for r := 0; r < mat.Shape[0]; r++ {
						ch := r / hw
						for c := 0; c < mat.Shape[1]; c++ {
							mat.Data[r*mat.Shape[1]+c] *= scale[ch]
						}
						bias[r] = scale[ch]*bias[r] + shift[ch]
					}
					label += "+bn"
					li++
				}
			}
			pushLinear(label, mat, bias, cur, outShape)
			cur = outShape

		case *nn.MeanPool2D:
			mat := l.AsMatrix()
			out := tshape{c: l.InC, h: l.OutH(), w: l.OutW(), flat: l.InC * l.OutH() * l.OutW()}
			pushLinear(fmt.Sprintf("pool%d", li), mat, make([]float64, mat.Shape[0]), cur, out)
			cur = out

		case *nn.Dense:
			mat := tensor.FromSlice(append([]float64(nil), l.W.Data...), l.Out, l.In)
			bias := append([]float64(nil), l.B.Data...)
			out := tshape{flat: l.Out}
			pushLinear(fmt.Sprintf("dense%d", li), mat, bias, cur, out)
			cur = out
			outputDim = l.Out

		case *nn.SLAF:
			flushPending()
			sh := cur
			units := l.Units
			unitOf := func(i int) int {
				if units == 1 {
					return 0
				}
				if sh.c > 0 {
					return i / (sh.h * sh.w)
				}
				return i % units
			}
			stages = append(stages, absStage{
				label: fmt.Sprintf("slaf%d", li), slaf: l, unitOf: unitOf, in: sh, out: sh,
			})

		case *nn.Flatten:
			cur = tshape{flat: cur.flat}

		case *nn.BatchNorm2D:
			return nil, tshape{}, 0, fmt.Errorf("henn: batch norm at layer %d does not follow a convolution", li)

		case *nn.ReLU:
			return nil, tshape{}, 0, fmt.Errorf("henn: model still contains ReLU at layer %d; retrofit SLAFs first", li)

		default:
			return nil, tshape{}, 0, fmt.Errorf("henn: unsupported layer %T", l)
		}
	}
	flushPending()
	if outputDim == 0 {
		return nil, tshape{}, 0, fmt.Errorf("henn: model has no dense output layer")
	}
	return stages, input, outputDim, nil
}

// CompileWithOptions lowers a trained SLAF model to a homomorphic plan for
// the given slot count. The first linear layer absorbs the 1/255 pixel
// normalization (inputs are encrypted as raw [0, 255] pixels); batch
// normalization layers are folded into the preceding convolution.
func CompileWithOptions(m *nn.Model, slots int, opts Options) (*Plan, error) {
	abs, input, outputDim, err := buildAbstract(m, opts)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Slots: slots, InputDim: input.flat, OutputDim: outputDim}
	for _, a := range abs {
		var st Stage
		if a.mat != nil {
			st, err = NewLinearStage(a.label, a.mat, a.bias, slots)
		} else {
			st, err = NewActStage(a.label, a.slaf, a.in.flat, a.unitOf, slots)
		}
		if err != nil {
			return nil, err
		}
		plan.Stages = append(plan.Stages, st)
	}
	for _, s := range plan.Stages {
		plan.Depth += s.Depth()
	}
	return plan, nil
}

// applyInputScale folds a pending input scaling into the first linear
// matrix (columns scaled), then clears it.
func applyInputScale(mat *tensor.Tensor, s *float64) {
	if *s == 1 {
		return
	}
	for i := range mat.Data {
		mat.Data[i] *= *s
	}
	*s = 1
}

// CheckDepth verifies the plan fits the engine's level budget.
func (p *Plan) CheckDepth(maxLevel int) error {
	if p.Depth > maxLevel {
		return fmt.Errorf("henn: plan needs %d levels but parameters provide %d", p.Depth, maxLevel)
	}
	return nil
}

// Describe returns a multi-line plan summary.
func (p *Plan) Describe() string {
	out := fmt.Sprintf("plan: %d stages, depth %d, %d rotations\n", len(p.Stages), p.Depth, len(p.Rotations()))
	for _, s := range p.Stages {
		out += "  " + s.Describe() + "\n"
	}
	return out
}
