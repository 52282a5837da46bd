package henn

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/henn/shard"
	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

// This file threads the shard manifests of internal/henn/shard through
// the compile→lower→execute pipeline (DESIGN.md §15). A ShardedPlan is
// the multi-ciphertext analogue of Plan: the input tensor arrives as
// NumShards ciphertexts laid out by a shard.Manifest, every stage maps a
// shard set to a shard set, and the pipeline must converge to a single
// ciphertext before the logits are decrypted.
//
// Linear stages are carved into inter-shard blocks: for output shard j
// and input shard i, block (j, i) is the sub-matrix connecting shard i's
// slots to shard j's slots, lowered through the existing LinearStage
// BSGS machinery. The halo exchange of a convolution — output pixels
// near a band boundary reading input pixels from the neighbouring
// shard — appears as those off-diagonal blocks being non-zero; all-zero
// blocks are skipped outright. Each output shard sums its block
// accumulators at the shared pre-rescale scale with one fused
// ir.OpRecombine (all weights 1, bit-identical to an Add chain by the
// Engine.Recombine contract) and then pays a single rescale, so a one-block
// row lowers to exactly the unsharded op sequence. Activations apply
// per-shard with coefficient vectors sliced through the manifest's
// slot→global bijection.
//
// Because sharded stages lower through the same symbolic tracer into the
// same IR, the optimizer passes and the bounded-worker parallel
// scheduler apply unchanged, shards execute concurrently, and a guarded
// engine tracks noise per shard ciphertext like any other ciphertext.

// ShardStage is one sharded pipeline step: a map from the stage's input
// shard set to its output shard set.
type ShardStage interface {
	// EvalShards applies the stage to one ciphertext per input shard.
	EvalShards(e Engine, in []Ct) []Ct
	// Rotations lists the slot rotations the stage needs.
	Rotations() []int
	// Depth is the number of rescales the stage consumes.
	Depth() int
	// Describe returns a human-readable summary.
	Describe() string
	// InShards and OutShards are the stage's shard arities.
	InShards() int
	OutShards() int
}

// ShardedLinear evaluates y = M·x + b over sharded input and output
// layouts, as a grid of inter-shard block matrix-vector products.
type ShardedLinear struct {
	Label   string
	In, Out shard.Manifest
	// Blocks[j][i] is the (output shard j, input shard i) sub-matrix
	// stage; nil where the block is all-zero. Each block's Bias holds
	// output shard j's bias slice, added only by the row's first
	// non-nil block (the carrier).
	Blocks [][]*LinearStage
}

// newShardedLinear carves a full rows×cols matrix (+bias) into manifest
// blocks. With single-shard manifests on both sides the only block is
// byte-identical to the unsharded NewLinearStage lowering, label
// included.
func newShardedLinear(label string, mat *tensor.Tensor, bias []float64, in, out shard.Manifest, slots int) (*ShardedLinear, error) {
	rows, cols := mat.Shape[0], mat.Shape[1]
	if rows != out.Shape.Flat() || cols != in.Shape.Flat() {
		return nil, fmt.Errorf("henn: stage %s matrix is %dx%d, manifests say %dx%d",
			label, rows, cols, out.Shape.Flat(), in.Shape.Flat())
	}
	st := &ShardedLinear{Label: label, In: in, Out: out, Blocks: make([][]*LinearStage, out.NumShards())}
	single := in.NumShards() == 1 && out.NumShards() == 1
	for j := range st.Blocks {
		st.Blocks[j] = make([]*LinearStage, in.NumShards())
		br := out.ShardLen(j)
		rowBias := make([]float64, br)
		for r := range rowBias {
			rowBias[r] = bias[out.GlobalAt(j, r)]
		}
		any := false
		for i := range st.Blocks[j] {
			bc := in.ShardLen(i)
			sub := tensor.New(br, bc)
			nonzero := false
			for r := 0; r < br; r++ {
				gr := out.GlobalAt(j, r) * cols
				for c := 0; c < bc; c++ {
					if v := mat.Data[gr+in.GlobalAt(i, c)]; v != 0 {
						sub.Data[r*bc+c] = v
						nonzero = true
					}
				}
			}
			if !nonzero {
				continue
			}
			lbl := label
			if !single {
				lbl = fmt.Sprintf("%s/s%d_%d", label, j, i)
			}
			blk, err := NewLinearStage(lbl, sub, rowBias, slots)
			if err != nil {
				return nil, err
			}
			st.Blocks[j][i] = blk
			any = true
		}
		if !any {
			return nil, fmt.Errorf("henn: stage %s output shard %d receives no input (zero block row)", label, j)
		}
	}
	return st, nil
}

// recombineAll sums block accumulators with the engine's fused
// Recombine (all weights 1). A single accumulator passes through
// untouched, which is what keeps one-block rows — and therefore whole
// 1×1-grid plans — identical to the unsharded lowering.
func recombineAll(e Engine, cts []Ct) Ct {
	if len(cts) == 1 {
		return cts[0]
	}
	w := make([]int64, len(cts))
	for i := range w {
		w[i] = 1
	}
	return e.Recombine(cts, nil, w)
}

// EvalShards implements ShardStage: per output shard, evaluate every
// non-zero block to its pre-rescale accumulator (the row's first block
// carries the bias), fuse them with one Recombine, then rescale once.
func (s *ShardedLinear) EvalShards(e Engine, in []Ct) []Ct {
	out := make([]Ct, len(s.Blocks))
	for j, row := range s.Blocks {
		var parts []Ct
		for i, blk := range row {
			if blk == nil {
				continue
			}
			parts = append(parts, blk.evalRaw(e, in[i], len(parts) == 0))
		}
		out[j] = e.Rescale(recombineAll(e, parts))
	}
	return out
}

// Rotations implements ShardStage: the union over all blocks.
func (s *ShardedLinear) Rotations() []int {
	set := map[int]bool{}
	for _, row := range s.Blocks {
		for _, blk := range row {
			if blk == nil {
				continue
			}
			for _, r := range blk.Rotations() {
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

// Depth implements ShardStage.
func (s *ShardedLinear) Depth() int { return 1 }

// InShards implements ShardStage.
func (s *ShardedLinear) InShards() int { return s.In.NumShards() }

// OutShards implements ShardStage.
func (s *ShardedLinear) OutShards() int { return s.Out.NumShards() }

// Describe implements ShardStage.
func (s *ShardedLinear) Describe() string {
	if s.InShards() == 1 && s.OutShards() == 1 {
		return s.Blocks[0][0].Describe()
	}
	nz := 0
	for _, row := range s.Blocks {
		for _, blk := range row {
			if blk != nil {
				nz++
			}
		}
	}
	return fmt.Sprintf("linear %s: %d->%d shards, %d/%d blocks",
		s.Label, s.InShards(), s.OutShards(), nz, s.InShards()*s.OutShards())
}

// ShardedAct applies a polynomial activation shard-wise, with the
// coefficient vectors sliced to each shard's slot layout.
type ShardedAct struct {
	Man  shard.Manifest
	Acts []*ActStage
}

// newShardedAct slices the per-unit coefficients through the manifest's
// slot→global bijection: shard s's slot i activates with the
// coefficients of global element Man.GlobalAt(s, i). A single-shard
// manifest reproduces the unsharded ActStage exactly.
func newShardedAct(label string, l *nn.SLAF, unitOf func(i int) int, man shard.Manifest, slots int) (*ShardedAct, error) {
	st := &ShardedAct{Man: man, Acts: make([]*ActStage, man.NumShards())}
	for s := range st.Acts {
		lbl := label
		if man.NumShards() > 1 {
			lbl = fmt.Sprintf("%s/s%d", label, s)
		}
		s := s
		shardUnit := func(i int) int { return unitOf(man.GlobalAt(s, i)) }
		act, err := NewActStage(lbl, l, man.ShardLen(s), shardUnit, slots)
		if err != nil {
			return nil, err
		}
		st.Acts[s] = act
	}
	return st, nil
}

// EvalShards implements ShardStage: shards activate independently.
func (s *ShardedAct) EvalShards(e Engine, in []Ct) []Ct {
	out := make([]Ct, len(s.Acts))
	for i, act := range s.Acts {
		out[i] = act.Eval(e, in[i])
	}
	return out
}

// Rotations implements ShardStage.
func (s *ShardedAct) Rotations() []int { return nil }

// Depth implements ShardStage.
func (s *ShardedAct) Depth() int { return s.Acts[0].Depth() }

// InShards implements ShardStage.
func (s *ShardedAct) InShards() int { return s.Man.NumShards() }

// OutShards implements ShardStage.
func (s *ShardedAct) OutShards() int { return s.Man.NumShards() }

// Describe implements ShardStage.
func (s *ShardedAct) Describe() string {
	if len(s.Acts) == 1 {
		return s.Acts[0].Describe()
	}
	return fmt.Sprintf("%s x%d shards", s.Acts[0].Describe(), len(s.Acts))
}

// shardShapeOf converts a walk shape to the manifest form (flat vectors
// become 1×1×flat).
func shardShapeOf(t tshape) shard.Shape {
	if t.c > 0 {
		return shard.Shape{C: t.c, H: t.h, W: t.w}
	}
	return shard.Shape{C: 1, H: 1, W: t.flat}
}

// manifestFor picks the stage-boundary manifest for an intermediate
// tensor: single-shard whenever it fits (so downstream stages stay on
// the unsharded fast path), else the smallest horizontal band grid that
// does.
func manifestFor(t tshape, slots int) (shard.Manifest, error) {
	shape := shardShapeOf(t)
	// Image tensors band across rows; flat vectors (H = 1) band across
	// their single spatial axis instead.
	for g := 1; g <= shape.H*shape.W; g++ {
		grid := shard.Grid{Gy: g, Gx: 1}
		if shape.H == 1 {
			if g > shape.W {
				break
			}
			grid = shard.Grid{Gy: 1, Gx: g}
		} else if g > shape.H {
			break
		}
		if m, err := shard.New(shape, grid, slots); err == nil {
			return m, nil
		}
	}
	return shard.Manifest{}, fmt.Errorf("henn: %dx%dx%d tensor does not fit %d slots even one band per shard",
		shape.C, shape.H, shape.W, slots)
}

// ShardedPlan is a compiled multi-ciphertext pipeline: the input splits
// across Input.NumShards() ciphertexts, stages run shard-wise with
// planned cross-shard recombination, and the final stage converges to a
// single ciphertext holding the logits.
type ShardedPlan struct {
	Slots     int
	InputDim  int
	OutputDim int
	// Input is the manifest clients split images by; its wire form is
	// advertised in /v1/info.
	Input shard.Manifest
	// Output is the logits manifest (always a single shard).
	Output shard.Manifest
	Stages []ShardStage
	// Depth is the number of levels the plan consumes.
	Depth int
	// Opt configures the graph optimizer like Plan.Opt.
	Opt *opt.Options
	// Parallel schedules independent ops — notably per-shard block
	// products — on the executor's bounded worker pool.
	Parallel bool

	cache prepCache
}

// CompileSharded lowers a trained SLAF model to a sharded plan: the
// input tensor is split by grid, intermediate manifests are chosen per
// stage boundary (single-shard as soon as the tensor fits), and every
// linear stage is carved into inter-shard blocks. CompileSharded with a
// 1×1 grid on a model whose tensors all fit one ciphertext produces a
// plan whose lowering is identical to Compile's.
func CompileSharded(m *nn.Model, slots int, grid shard.Grid) (*ShardedPlan, error) {
	abs, input, outputDim, err := buildAbstract(m, Options{Collapse: true})
	if err != nil {
		return nil, err
	}
	inMan, err := shard.New(shardShapeOf(input), grid, slots)
	if err != nil {
		return nil, err
	}
	plan := &ShardedPlan{Slots: slots, InputDim: input.flat, OutputDim: outputDim, Input: inMan}
	cur := inMan
	for _, a := range abs {
		if a.mat != nil {
			outMan, err := manifestFor(a.out, slots)
			if err != nil {
				return nil, fmt.Errorf("henn: stage %s: %w", a.label, err)
			}
			st, err := newShardedLinear(a.label, a.mat, a.bias, cur, outMan, slots)
			if err != nil {
				return nil, err
			}
			plan.Stages = append(plan.Stages, st)
			cur = outMan
		} else {
			st, err := newShardedAct(a.label, a.slaf, a.unitOf, cur, slots)
			if err != nil {
				return nil, err
			}
			plan.Stages = append(plan.Stages, st)
		}
	}
	if cur.NumShards() != 1 {
		return nil, fmt.Errorf("henn: pipeline ends on %d shards; the final stage must converge to one ciphertext", cur.NumShards())
	}
	plan.Output = cur
	for _, s := range plan.Stages {
		plan.Depth += s.Depth()
	}
	// Record the cross-shard fan-in on the advertised manifest: the most
	// extra input shards any output shard draws from (0 = band-local).
	fanIn := 0
	for _, s := range plan.Stages {
		if sl, ok := s.(*ShardedLinear); ok {
			for _, row := range sl.Blocks {
				n := 0
				for _, blk := range row {
					if blk != nil {
						n++
					}
				}
				if n-1 > fanIn {
					fanIn = n - 1
				}
			}
		}
	}
	plan.Input.Halo = fanIn
	return plan, nil
}

// CompileShardedAuto compiles with the smallest horizontal-band input
// grid whose shards fit the slot count — a 1×1 grid (and therefore a
// lowering identical to Compile's) whenever the input already fits one
// ciphertext.
func CompileShardedAuto(m *nn.Model, slots int) (*ShardedPlan, error) {
	_, input, _, err := buildAbstract(m, Options{Collapse: true})
	if err != nil {
		return nil, err
	}
	man, err := manifestFor(input, slots)
	if err != nil {
		return nil, err
	}
	return CompileSharded(m, slots, man.Grid)
}

// NumShards returns the input ciphertext count.
func (p *ShardedPlan) NumShards() int { return p.Input.NumShards() }

// Rotations returns the union of rotation amounts needed by all stages.
func (p *ShardedPlan) Rotations() []int {
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

// CheckDepth verifies the plan fits the engine's level budget.
func (p *ShardedPlan) CheckDepth(maxLevel int) error {
	if p.Depth > maxLevel {
		return fmt.Errorf("henn: plan needs %d levels but parameters provide %d", p.Depth, maxLevel)
	}
	return nil
}

// Describe returns a multi-line plan summary.
func (p *ShardedPlan) Describe() string {
	out := fmt.Sprintf("sharded plan: %s input, %d stages, depth %d, %d rotations\n",
		p.Input, len(p.Stages), p.Depth, len(p.Rotations()))
	for _, s := range p.Stages {
		out += "  " + s.Describe() + "\n"
	}
	return out
}

// Lower compiles the sharded plan into an ir.Graph with one input per
// shard. Stage evaluation runs against the symbolic tracer, so the
// cross-shard block products and fused recombines land in the same IR
// the optimizer passes and both executors already handle.
func (p *ShardedPlan) Lower(e Engine) (g *ir.Graph, err error) {
	defer recoverLowerErr(&err)
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("henn: lower: sharded plan has no stages")
	}
	k := p.Input.NumShards()
	t := newTracer(e, k)
	cur := make([]Ct, k)
	for i := 0; i < k; i++ {
		name := "encrypt"
		if k > 1 {
			name = fmt.Sprintf("encrypt shard %d", i)
		}
		t.beginStage(name, false)
		ct := t.encrypt(i)
		t.setStageOut(ct.id)
		cur[i] = ct
	}
	for si, s := range p.Stages {
		if len(cur) != s.InShards() {
			return nil, fmt.Errorf("henn: lower: stage %d (%s) expects %d shards, has %d",
				si, s.Describe(), s.InShards(), len(cur))
		}
		t.beginStage(fmt.Sprintf("stage %d (%s)", si, s.Describe()), true)
		cur = s.EvalShards(t, cur)
		t.setStageOut(t.in("stage output", cur[0]).id)
	}
	if len(cur) != 1 {
		return nil, fmt.Errorf("henn: lower: pipeline ended on %d shards", len(cur))
	}
	t.g.Output = t.in("graph output", cur[0]).id
	if err := t.g.Validate(); err != nil {
		return nil, err
	}
	return t.g, nil
}

// prepare returns the sharded plan prepared for e, building it on first
// use per engine.
func (p *ShardedPlan) prepare(e Engine) (*exec.Prepared, error) {
	en, err := p.cache.get(e, p.Lower, p.Opt)
	return en.pr, err
}

// OptResult returns the optimizer outcome for e, preparing the plan if
// needed.
func (p *ShardedPlan) OptResult(e Engine) (*opt.Result, error) {
	en, err := p.cache.get(e, p.Lower, p.Opt)
	return en.res, err
}

// Optimize lowers the sharded plan for e's parameters and runs the
// configured optimizer (p.Opt), like Plan.Optimize.
func (p *ShardedPlan) Optimize(e Engine) (*opt.Result, error) {
	return lowerOptimized(e, p.Lower, p.Opt)
}

// Warm mirrors Plan.Warm for the sharded pipeline.
func (p *ShardedPlan) Warm(e Engine) error {
	_, err := p.prepare(e)
	return err
}

// InferCtx classifies one raw image through the sharded pipeline with
// the same validation, cancellation, and reporting contract as
// Plan.InferCtx. The image splits by the input manifest, each shard
// encrypts into its own ciphertext, and in Parallel mode the per-shard
// subgraphs run concurrently on the executor's worker pool.
func (p *ShardedPlan) InferCtx(ctx context.Context, e Engine, image []float64) (Logits, *Report, error) {
	rep := &Report{Engine: e.Name()}
	if len(image) != p.InputDim {
		return nil, rep, badInput("image length %d does not match plan input dim %d", len(image), p.InputDim)
	}
	pr, err := p.prepare(e)
	if err != nil {
		rep.FailedStage = "prepare"
		return nil, rep, err
	}
	parts, err := p.Input.Split(image)
	if err != nil {
		rep.FailedStage = "split"
		return nil, rep, badInput("%v", err)
	}
	workers := 1
	if p.Parallel {
		workers = p.Input.NumShards()
	}
	defer telInferStart()()
	res, err := pr.Run(ctx, parts, exec.Options{Workers: workers})
	fillReport(rep, res)
	if err != nil {
		return nil, rep, err
	}
	return decryptLogits(ctx, e, res.Out, p.OutputDim, rep)
}

// Infer classifies one raw image, panicking on error like Plan.Infer.
func (p *ShardedPlan) Infer(e Engine, image []float64) (Logits, time.Duration) {
	logits, rep, err := p.InferCtx(context.Background(), e, image)
	if err != nil {
		panic(err)
	}
	return logits, rep.Eval
}

// EvaluateEncrypted mirrors Plan.EvaluateEncrypted for the sharded
// pipeline.
func (p *ShardedPlan) EvaluateEncrypted(e Engine, images [][]float64, labels []int, n int) (float64, LatencyStats, error) {
	return evaluateEncrypted(p.InferCtx, e, images, labels, n, p.InputDim)
}
