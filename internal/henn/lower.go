package henn

import (
	"fmt"
	"math"

	"cnnhe/internal/henn/ir"
)

// This file lowers a compiled Plan (or RNSPlan) to the explicit op graph
// of internal/henn/ir. Lowering runs the legacy Stage.Eval closures
// against a symbolic tracing engine whose ciphertexts carry only an op
// ID and the statically inferred (level, scale). Because every engine
// primitive transforms level and scale by a fixed arithmetic rule (see
// the ir package doc), the trace is exact: the op sequence, levels and
// scales recorded here are precisely those the eager interpreter would
// produce against a real backend with the same parameters. Trace
// emission order IS the legacy engine-call order, which is what lets
// the sequential executor replay a graph bit-identically.

// traceCt is the tracer's symbolic ciphertext: the ID of the producing
// op plus the statically inferred level and scale of its output.
type traceCt struct {
	id    int
	level int
	scale float64
}

// tracer implements Engine symbolically. Parameter queries (Slots,
// MaxLevel, Scale, QiFloat) delegate to the real engine; ciphertext ops
// append ir.Ops to the graph under construction. Invalid programs —
// level mismatches, rescaling at level 0, scale drift — panic with an
// error value that Lower recovers into a compile-time error.
type tracer struct {
	e     Engine
	g     *ir.Graph
	stage int
}

func newTracer(e Engine, inputs int) *tracer {
	return &tracer{
		e:     e,
		g:     &ir.Graph{Slots: e.Slots(), Inputs: inputs, Output: -1},
		stage: -1,
	}
}

// beginStage opens a new stage group; subsequent ops belong to it.
func (t *tracer) beginStage(name string, record bool) {
	t.g.Stages = append(t.g.Stages, ir.StageInfo{Name: name, Out: -1, Record: record})
	t.stage = len(t.g.Stages) - 1
}

// setStageOut marks the op whose output is the current stage's result.
func (t *tracer) setStageOut(id int) {
	t.g.Stages[t.stage].Out = id
}

// emit appends op to the graph and returns its symbolic result.
func (t *tracer) emit(op ir.Op) *traceCt {
	op.ID = len(t.g.Ops)
	op.Stage = t.stage
	t.g.Ops = append(t.g.Ops, op)
	return &traceCt{id: op.ID, level: op.Level, scale: op.Scale}
}

// encrypt emits the OpEncrypt for input slot inputIdx. Fresh ciphertexts
// start at MaxLevel with the engine's default scale.
func (t *tracer) encrypt(inputIdx int) *traceCt {
	return t.emit(ir.Op{
		Kind:     ir.OpEncrypt,
		InputIdx: inputIdx,
		Hoist:    -1,
		Level:    t.e.MaxLevel(),
		Scale:    t.e.Scale(),
	})
}

// in unwraps a symbolic ciphertext, failing the trace on foreign handles.
func (t *tracer) in(op string, ct Ct) *traceCt {
	c, ok := ct.(*traceCt)
	if !ok {
		panic(fmt.Errorf("henn: lower: %s received a non-traced ciphertext %T", op, ct))
	}
	return c
}

// traceScaleClose mirrors the backends' scale tolerance (relative 2^-40).
func traceScaleClose(a, b float64) bool {
	return math.Abs(a-b) <= math.Max(a, b)*math.Exp2(-40)
}

// Name implements Engine.
func (t *tracer) Name() string { return "trace(" + t.e.Name() + ")" }

// Slots implements Engine.
func (t *tracer) Slots() int { return t.e.Slots() }

// MaxLevel implements Engine.
func (t *tracer) MaxLevel() int { return t.e.MaxLevel() }

// Scale implements Engine.
func (t *tracer) Scale() float64 { return t.e.Scale() }

// QiFloat implements Engine.
func (t *tracer) QiFloat(level int) float64 { return t.e.QiFloat(level) }

// Level implements Engine.
func (t *tracer) Level(ct Ct) int { return t.in("Level", ct).level }

// ScaleOf implements Engine.
func (t *tracer) ScaleOf(ct Ct) float64 { return t.in("ScaleOf", ct).scale }

// EncryptVec implements Engine. Stages never encrypt — the inference
// driver does — so a traced EncryptVec is a structural bug.
func (t *tracer) EncryptVec(values []float64) Ct {
	panic(fmt.Errorf("henn: lower: EncryptVec called inside a stage"))
}

// DecryptVec implements Engine. Decryption happens after the graph's
// output, never inside a stage.
func (t *tracer) DecryptVec(ct Ct) []float64 {
	panic(fmt.Errorf("henn: lower: DecryptVec called inside a stage"))
}

// Add implements Engine.
func (t *tracer) Add(a, b Ct) Ct {
	x, y := t.in("Add", a), t.in("Add", b)
	if x.level != y.level {
		panic(fmt.Errorf("henn: lower: Add level mismatch %d vs %d", x.level, y.level))
	}
	if !traceScaleClose(x.scale, y.scale) {
		panic(fmt.Errorf("henn: lower: Add scale mismatch 2^%.2f vs 2^%.2f",
			math.Log2(x.scale), math.Log2(y.scale)))
	}
	return t.emit(ir.Op{
		Kind: ir.OpAdd, Args: []int{x.id, y.id}, Hoist: -1,
		Level: x.level, Scale: x.scale,
	})
}

// addPlain emits an OpAddPlain; the plaintext encodes at the operand's
// exact (level, scale), so the sum keeps both.
func (t *tracer) addPlain(op string, ct Ct, key string, v []float64) Ct {
	x := t.in(op, ct)
	return t.emit(ir.Op{
		Kind: ir.OpAddPlain, Args: []int{x.id}, Hoist: -1,
		Plain: v, PlainKey: key, PtScale: x.scale,
		Level: x.level, Scale: x.scale,
	})
}

// AddPlainVec implements Engine.
func (t *tracer) AddPlainVec(ct Ct, v []float64) Ct {
	return t.addPlain("AddPlainVec", ct, "", v)
}

// AddPlainVecCached implements Engine.
func (t *tracer) AddPlainVecCached(ct Ct, key string, v []float64) Ct {
	return t.addPlain("AddPlainVecCached", ct, key, v)
}

// mulPlain emits an OpMulPlain at an explicit plaintext scale.
func (t *tracer) mulPlain(op string, ct Ct, key string, v []float64, scale float64) Ct {
	x := t.in(op, ct)
	if scale <= 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		panic(fmt.Errorf("henn: lower: %s plaintext scale %v", op, scale))
	}
	return t.emit(ir.Op{
		Kind: ir.OpMulPlain, Args: []int{x.id}, Hoist: -1,
		Plain: v, PlainKey: key, PtScale: scale,
		Level: x.level, Scale: x.scale * scale,
	})
}

// MulPlainVecAtScale implements Engine.
func (t *tracer) MulPlainVecAtScale(ct Ct, v []float64, scale float64) Ct {
	return t.mulPlain("MulPlainVecAtScale", ct, "", v, scale)
}

// MulPlainVecCached implements Engine.
func (t *tracer) MulPlainVecCached(ct Ct, key string, v []float64, scale float64) Ct {
	return t.mulPlain("MulPlainVecCached", ct, key, v, scale)
}

// MulRelin implements Engine.
func (t *tracer) MulRelin(a, b Ct) Ct {
	x, y := t.in("MulRelin", a), t.in("MulRelin", b)
	if x.level != y.level {
		panic(fmt.Errorf("henn: lower: MulRelin level mismatch %d vs %d", x.level, y.level))
	}
	return t.emit(ir.Op{
		Kind: ir.OpMulRelin, Args: []int{x.id, y.id}, Hoist: -1,
		Level: x.level, Scale: x.scale * y.scale,
	})
}

// MulInt implements Engine. Integer recombination is lowered directly to
// OpRecombine by RNSPlan.Lower; no stage multiplies by a bare integer.
func (t *tracer) MulInt(ct Ct, n int64) Ct {
	panic(fmt.Errorf("henn: lower: MulInt called inside a stage (recombination lowers to OpRecombine)"))
}

// Recombine implements Engine symbolically, so sharded stages can fuse
// their cross-shard block sums into one OpRecombine exactly like the
// real engines do at runtime (the executor dispatches the op back to the
// engine's fused Recombine). Stages recombine bare ciphertexts only:
// plaintext factors are the fuse pass's to attach.
func (t *tracer) Recombine(args []Ct, pts []Pt, weights []int64) Ct {
	if len(args) == 0 || len(weights) != len(args) {
		panic(fmt.Errorf("henn: lower: Recombine with %d args, %d weights", len(args), len(weights)))
	}
	for _, p := range pts {
		if p != nil {
			panic(fmt.Errorf("henn: lower: Recombine with a plaintext factor inside a stage (stages use the vector forms)"))
		}
	}
	if weights[0] != 1 {
		panic(fmt.Errorf("henn: lower: Recombine weight[0] = %d, want 1", weights[0]))
	}
	first := t.in("Recombine", args[0])
	ids := make([]int, len(args))
	for i, a := range args {
		x := t.in("Recombine", a)
		if x.level != first.level {
			panic(fmt.Errorf("henn: lower: Recombine level mismatch %d vs %d", x.level, first.level))
		}
		if !traceScaleClose(x.scale, first.scale) {
			panic(fmt.Errorf("henn: lower: Recombine scale mismatch 2^%.2f vs 2^%.2f",
				math.Log2(x.scale), math.Log2(first.scale)))
		}
		ids[i] = x.id
	}
	return t.emit(ir.Op{
		Kind: ir.OpRecombine, Args: ids, Weights: append([]int64(nil), weights...), Hoist: -1,
		Level: first.level, Scale: first.scale,
	})
}

// Rescale implements Engine.
func (t *tracer) Rescale(ct Ct) Ct {
	x := t.in("Rescale", ct)
	if x.level <= 0 {
		panic(fmt.Errorf("henn: lower: Rescale at level 0 (modulus chain exhausted)"))
	}
	return t.emit(ir.Op{
		Kind: ir.OpRescale, Args: []int{x.id}, Hoist: -1,
		Level: x.level - 1, Scale: x.scale / t.e.QiFloat(x.level),
	})
}

// DropLevel implements Engine.
func (t *tracer) DropLevel(ct Ct, n int) Ct {
	x := t.in("DropLevel", ct)
	if n < 0 || x.level-n < 0 {
		panic(fmt.Errorf("henn: lower: DropLevel by %d from level %d", n, x.level))
	}
	return t.emit(ir.Op{
		Kind: ir.OpDropLevel, Args: []int{x.id}, Drop: n, Hoist: -1,
		Level: x.level - n, Scale: x.scale,
	})
}

// Rotate implements Engine. Rotation by 0 is the identity, mirroring the
// backends, so no op is emitted.
func (t *tracer) Rotate(ct Ct, k int) Ct {
	x := t.in("Rotate", ct)
	if k == 0 {
		return x
	}
	return t.emit(ir.Op{
		Kind: ir.OpRotate, Args: []int{x.id}, K: k, Hoist: -1,
		Level: x.level, Scale: x.scale,
	})
}

// RotateMany implements Engine. Lowering is canonical: each non-zero
// rotation becomes its own singleton hoist group rather than one
// per-call group, and regrouping is the optimizer's job (the replan
// pass merges every hoisted rotation of a source into one fan-out,
// which subsumes — and usually beats — the per-stage grouping the
// eager interpreter gets from a literal RotateMany call). Grouped and
// singleton hoisted rotations are bit-identical per k on both backends
// (see TestRotateHoistedGroupingBitIdentical), so the grouping choice
// affects key-switch decomposition count, never bits; an unoptimized
// (-opt=off) run stays bit-identical to the legacy interpreter, just
// paying one decomposition per rotation.
func (t *tracer) RotateMany(ct Ct, ks []int) map[int]Ct {
	x := t.in("RotateMany", ct)
	out := make(map[int]Ct, len(ks))
	for _, k := range ks {
		if k == 0 {
			out[0] = x
			continue
		}
		if _, dup := out[k]; dup {
			continue
		}
		c := t.emit(ir.Op{
			Kind: ir.OpRotate, Args: []int{x.id}, K: k, Hoist: len(t.g.Hoists),
			Level: x.level, Scale: x.scale,
		})
		out[k] = c
		t.g.Hoists = append(t.g.Hoists, []int{c.id})
	}
	return out
}

// EncodeVecsAt implements Engine. Encoding is a Prepare-time activity;
// traced stages only reference plaintext vectors symbolically.
func (t *tracer) EncodeVecsAt(specs []PlainSpec) []Pt {
	panic(fmt.Errorf("henn: lower: EncodeVecsAt called inside a stage"))
}

// MulPlainPt implements Engine.
func (t *tracer) MulPlainPt(ct Ct, pt Pt) Ct {
	panic(fmt.Errorf("henn: lower: MulPlainPt called inside a stage (stages use the vector forms)"))
}

// AddPlainPt implements Engine.
func (t *tracer) AddPlainPt(ct Ct, pt Pt) Ct {
	panic(fmt.Errorf("henn: lower: AddPlainPt called inside a stage (stages use the vector forms)"))
}

var _ Engine = (*tracer)(nil)

// recoverLowerErr converts a trace panic into a lowering error. Error
// values panic through unwrapped; other panics are formatted.
func recoverLowerErr(err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*err = fmt.Errorf("henn: lower: %w", e)
			return
		}
		*err = fmt.Errorf("henn: lower: %v", r)
	}
}

// Lower compiles the plan into an explicit ir.Graph for the parameters
// of e (slots, modulus chain, default scale). The graph is engine-shape
// specific but data independent: one lowering serves every inference on
// that engine. Structural problems — modulus chain too short for the
// plan's depth, scale drift, level mismatches — surface here as errors
// rather than mid-inference panics.
func (p *Plan) Lower(e Engine) (g *ir.Graph, err error) {
	defer recoverLowerErr(&err)
	t := newTracer(e, 1)
	t.beginStage("encrypt", false)
	ct := t.encrypt(0)
	t.setStageOut(ct.id)
	for i, s := range p.Stages {
		t.beginStage(fmt.Sprintf("stage %d (%s)", i, s.Describe()), true)
		ct = t.in("stage output", s.Eval(t, ct))
		t.setStageOut(ct.id)
	}
	t.g.Output = ct.id
	if err := t.g.Validate(); err != nil {
		return nil, err
	}
	return t.g, nil
}

// Lower compiles the RNS-decomposed plan into an ir.Graph with one input
// per digit part. The first linear stage is replicated per part (bias
// only on part 0, matching the linearity argument of §4), the parts are
// recombined with exact integer weights, and the remaining stages run on
// the recomposed ciphertext.
func (p *RNSPlan) Lower(e Engine) (g *ir.Graph, err error) {
	defer recoverLowerErr(&err)
	weights := p.Digits.Weights()
	k := len(weights)
	if len(p.Base.Stages) == 0 {
		return nil, fmt.Errorf("henn: lower: rns plan has no stages")
	}
	first, ok := p.Base.Stages[0].(*LinearStage)
	if !ok {
		return nil, fmt.Errorf("henn: lower: rns plan first stage is %T, want *LinearStage", p.Base.Stages[0])
	}
	t := newTracer(e, k)
	cts := make([]*traceCt, k)
	for i := 0; i < k; i++ {
		t.beginStage(fmt.Sprintf("encrypt part %d", i), false)
		cts[i] = t.encrypt(i)
		t.setStageOut(cts[i].id)
	}
	t.beginStage("rns parts", true)
	outs := make([]*traceCt, k)
	args := make([]int, k)
	w64 := make([]int64, k)
	for i := 0; i < k; i++ {
		if i == 0 {
			outs[i] = t.in("rns part output", first.Eval(t, cts[i]))
		} else {
			outs[i] = t.in("rns part output", first.EvalNoBias(t, cts[i]))
		}
		args[i] = outs[i].id
		w64[i] = int64(weights[i])
	}
	t.setStageOut(outs[0].id)
	for i := 1; i < k; i++ {
		if outs[i].level != outs[0].level || !traceScaleClose(outs[i].scale, outs[0].scale) {
			return nil, fmt.Errorf("henn: lower: rns part %d at (level %d, scale 2^%.2f), part 0 at (level %d, scale 2^%.2f)",
				i, outs[i].level, math.Log2(outs[i].scale), outs[0].level, math.Log2(outs[0].scale))
		}
	}
	t.beginStage("rns recompose", true)
	ct := t.emit(ir.Op{
		Kind: ir.OpRecombine, Args: args, Weights: w64, Hoist: -1,
		Level: outs[0].level, Scale: outs[0].scale,
	})
	t.setStageOut(ct.id)
	for i, s := range p.Base.Stages[1:] {
		t.beginStage(fmt.Sprintf("stage %d (%s)", i+1, s.Describe()), true)
		ct = t.in("stage output", s.Eval(t, ct))
		t.setStageOut(ct.id)
	}
	t.g.Output = ct.id
	if err := t.g.Validate(); err != nil {
		return nil, err
	}
	return t.g, nil
}
