// Package opt rewrites lowered op graphs (internal/henn/ir) between
// lowering and execution: a pass manager runs an ordered, individually
// toggleable list of passes, each returning a rewritten graph plus a
// machine-readable PassStats.
//
// The pipeline ships six passes, in default order:
//
//	cse      hash-cons ops on (kind, args, rotation, plaintext content,
//	         hoisted-ness) so duplicate producers collapse to one
//	fold     plaintext constant folding: drop all-zero AddPlains and
//	         pre-combine AddPlain/MulPlain chains against one operand
//	replan   rotation replanning: merge hoisted rotations that share a
//	         source ciphertext into one RotateMany fan-out, so a single
//	         key-switch decomposition serves the whole fan-out
//	         (double-hoisting across the per-stage groups lowering emits)
//	rescale  lazy rescale: sink OpRescale/OpDropLevel past adds and
//	         recombines so the sum happens at high scale and one
//	         rescale serves the whole reduction tree
//	fuse     collapse single-use Add/Recombine reduction trees into one
//	         OpRecombine and absorb their single-use MulPlain leaves as
//	         per-term plaintext factors, so a whole diagonal inner
//	         product Σ rotⱼ(ct) ⊙ diagⱼ is one Engine.Recombine call
//	dce      drop ops unreachable from the output and the recorded
//	         stage outputs (encrypt ops are pinned: the PRNG call order
//	         of the prologue is part of the bit-parity contract)
//
// Exactness. cse, replan, fuse, dce, and the exact subset of fold and
// rescale are bit-exact: an optimized graph decrypts to bit-identical
// logits (grouped and singleton hoisted rotations produce identical
// ciphertexts — see TestRotateHoistedGroupingBitIdentical — and modular
// addition is associative, so reassociating reduction trees is exact,
// and a MulPlain absorbed into a Recombine computes the same residues
// whether each product is reduced before the sum or once after it).
// Two rewrites trade bits for speed and are tolerance-gated instead:
// rescale-sinking (rounding once after the sum instead of once per
// addend) and plaintext chain folding (one encoding rounding instead of
// two). Options.Exact restricts every pass to its bit-exact subset;
// that is the configuration the executor-parity oracle asserts
// bit-identical, while the full pipeline is gated on logits tolerance
// plus an unchanged argmax.
//
// Every pass rebuilds the graph through one builder that renumbers ops,
// remaps Stages/Hoists, re-runs the exact level/scale inference, and
// re-validates, so structural invariants cannot silently rot between
// passes.
package opt

import (
	"fmt"
	"math"
	"strings"

	"cnnhe/internal/henn/ir"
)

// Params is the subset of engine parameters the level/scale re-inference
// needs. ir.Engine satisfies it.
type Params interface {
	MaxLevel() int
	Scale() float64
	QiFloat(level int) float64
}

// Options selects and restricts the pass pipeline.
type Options struct {
	// Off disables optimization entirely: Optimize returns the input
	// graph unchanged (the -opt=off escape hatch).
	Off bool
	// Passes is the ordered pass list to run; nil means DefaultPasses.
	// Unknown names are an error.
	Passes []string
	// Exact restricts every pass to its bit-exact rewrites (see the
	// package comment): rescale-sinking and plaintext chain folding are
	// skipped, DropLevel-sinking and zero-AddPlain elision still run.
	Exact bool
}

// Disabled returns the -opt=off options value.
func Disabled() *Options { return &Options{Off: true} }

// DefaultPasses is the standard pipeline order. fold runs after cse so
// collapsed producers expose chains; replan runs before rescale/fuse so
// reduction-tree rewrites see final rotation sources; dce runs last to
// sweep orphans the other passes leave behind.
var DefaultPasses = []string{"cse", "fold", "replan", "rescale", "fuse", "dce"}

// Setting renders the configuration for logs, SLO reports and health
// endpoints ("off", "on (cse,fold,…)", "exact (cse,…)").
func (o *Options) Setting() string {
	if o != nil && o.Off {
		return "off"
	}
	passes := DefaultPasses
	mode := "on"
	if o != nil {
		if o.Passes != nil {
			passes = o.Passes
		}
		if o.Exact {
			mode = "exact"
		}
	}
	return mode + " (" + strings.Join(passes, ",") + ")"
}

// ParseFlag parses a CLI -opt value: "on" or "" (default pipeline),
// "off", "exact", or a comma-separated pass list ("cse,dce").
func ParseFlag(s string) (*Options, error) {
	switch s {
	case "", "on":
		return nil, nil
	case "off":
		return Disabled(), nil
	case "exact":
		return &Options{Exact: true}, nil
	}
	names := strings.Split(s, ",")
	for _, n := range names {
		if _, ok := passRegistry[n]; !ok {
			return nil, fmt.Errorf("opt: unknown pass %q (have %s, or on/off/exact)",
				n, strings.Join(DefaultPasses, ","))
		}
	}
	return &Options{Passes: names}, nil
}

// PassStats is one pass's machine-readable outcome.
type PassStats struct {
	// Pass is the pass name.
	Pass string `json:"pass"`
	// OpsBefore and OpsAfter count graph ops around the pass.
	OpsBefore int `json:"ops_before"`
	OpsAfter  int `json:"ops_after"`
	// Removed maps op-kind name to the net count the pass removed
	// (negative when the pass added ops of the kind, e.g. the trailing
	// rescale the sink rewrite inserts). Only non-zero kinds appear.
	Removed map[string]int `json:"removed,omitempty"`
}

// Result is the outcome of one Optimize run.
type Result struct {
	// Graph is the optimized graph (the input graph when Off).
	Graph *ir.Graph
	// Before and After summarise the graph around the whole pipeline.
	Before, After ir.Stats
	// Passes holds one entry per executed pass, in order.
	Passes []PassStats
	// Setting echoes Options.Setting for attribution.
	Setting string
}

// Summary renders the before/after on one line for CLIs.
func (r *Result) Summary() string {
	if r.Before.Ops == 0 {
		return "optimizer: empty graph"
	}
	pct := func(before, after int) float64 {
		if before == 0 {
			return 0
		}
		return 100 * float64(before-after) / float64(before)
	}
	return fmt.Sprintf("optimizer %s: %d → %d ops (−%.1f%%), %d → %d engine calls (−%.1f%%), rotation calls %d → %d, rescales %d → %d, hoist groups %d → %d",
		r.Setting,
		r.Before.Ops, r.After.Ops, pct(r.Before.Ops, r.After.Ops),
		r.Before.EngineCalls, r.After.EngineCalls, pct(r.Before.EngineCalls, r.After.EngineCalls),
		r.Before.RotateCalls(), r.After.RotateCalls(),
		r.Before.ByKind[ir.OpRescale], r.After.ByKind[ir.OpRescale],
		r.Before.Hoists, r.After.Hoists)
}

// PassLines renders one line per pass that changed the graph.
func (r *Result) PassLines() []string {
	var out []string
	for _, p := range r.Passes {
		if p.OpsBefore == p.OpsAfter && len(p.Removed) == 0 {
			continue
		}
		var kinds []string
		for _, k := range []ir.Kind{ir.OpEncrypt, ir.OpRotate, ir.OpMulPlain, ir.OpAddPlain,
			ir.OpAdd, ir.OpMulRelin, ir.OpRescale, ir.OpDropLevel, ir.OpRecombine} {
			if d := p.Removed[k.String()]; d != 0 {
				kinds = append(kinds, fmt.Sprintf("%s %+d", k, -d))
			}
		}
		out = append(out, fmt.Sprintf("pass %-7s %d → %d ops (%s)",
			p.Pass, p.OpsBefore, p.OpsAfter, strings.Join(kinds, ", ")))
	}
	return out
}

// passFunc rewrites g, honoring the bit-exact restriction when exact.
type passFunc func(g *ir.Graph, par Params, exact bool) (*ir.Graph, error)

var passRegistry = map[string]passFunc{
	"cse":     passCSE,
	"fold":    passFold,
	"replan":  passReplan,
	"rescale": passRescale,
	"fuse":    passFuse,
	"dce":     passDCE,
}

// Optimize runs the configured pass pipeline over a validated graph and
// returns the rewritten graph plus per-pass stats. o may be nil (the
// default pipeline). The input graph is never mutated.
func Optimize(par Params, g *ir.Graph, o *Options) (*Result, error) {
	res := &Result{Graph: g, Before: g.Stats(), Setting: o.Setting()}
	if o != nil && o.Off {
		res.After = res.Before
		return res, nil
	}
	passes := DefaultPasses
	exact := false
	if o != nil {
		if o.Passes != nil {
			passes = o.Passes
		}
		exact = o.Exact
	}
	cur := g
	for _, name := range passes {
		fn, ok := passRegistry[name]
		if !ok {
			return nil, fmt.Errorf("opt: unknown pass %q", name)
		}
		before := cur.Stats()
		next, err := fn(cur, par, exact)
		if err != nil {
			return nil, fmt.Errorf("opt: pass %s: %w", name, err)
		}
		after := next.Stats()
		ps := PassStats{Pass: name, OpsBefore: before.Ops, OpsAfter: after.Ops, Removed: map[string]int{}}
		for k, n := range before.ByKind {
			if d := n - after.ByKind[k]; d != 0 {
				ps.Removed[k.String()] = d
			}
		}
		for k, n := range after.ByKind {
			if before.ByKind[k] == 0 && n != 0 {
				ps.Removed[k.String()] = -n
			}
		}
		if len(ps.Removed) == 0 {
			ps.Removed = nil
		}
		res.Passes = append(res.Passes, ps)
		cur = next
	}
	res.Graph = cur
	res.After = cur.Stats()
	return res, nil
}

// scaleClose mirrors the backends' (and the tracer's) relative 2^-40
// scale tolerance.
func scaleClose(a, b float64) bool {
	return math.Abs(a-b) <= math.Max(a, b)*math.Exp2(-40)
}

// builder accumulates a rewritten op list over a source graph and
// finishes it into a renumbered, re-inferred, re-validated ir.Graph.
// Passes emit ops whose Args are NEW ids (use arg to remap); Hoist
// fields are opaque tags that finish normalizes into compact group ids
// by first appearance.
type builder struct {
	src   *ir.Graph
	ops   []ir.Op
	remap []int // old op id → new op id, -1 while dropped/unprocessed
}

func newBuilder(src *ir.Graph) *builder {
	b := &builder{src: src, remap: make([]int, len(src.Ops))}
	for i := range b.remap {
		b.remap[i] = -1
	}
	return b
}

// arg resolves an old op id to its new id; a dropped producer is a pass
// bug surfaced as a panic (recovered into an error by finish callers
// via Validate failing first in practice, so keep it loud).
func (b *builder) arg(old int) int {
	n := b.remap[old]
	if n < 0 {
		panic(fmt.Errorf("opt: op %d referenced after being dropped", old))
	}
	return n
}

// emit appends op (Args already new ids) and returns its new id.
func (b *builder) emit(op ir.Op) int {
	op.ID = len(b.ops)
	b.ops = append(b.ops, op)
	return op.ID
}

// carry copies old op i with remapped args, preserving its hoist tag.
func (b *builder) carry(i int) int {
	op := b.src.Ops[i]
	if len(op.Args) > 0 {
		args := make([]int, len(op.Args))
		for j, a := range op.Args {
			args[j] = b.arg(a)
		}
		op.Args = args
	}
	id := b.emit(op)
	b.remap[i] = id
	return id
}

// alias maps old op i onto an existing new op (CSE merge, fold elision,
// sunk-rescale replacement): later references, including stage outputs,
// resolve there.
func (b *builder) alias(i, newID int) { b.remap[i] = newID }

// finish renumbers, rebuilds Stages and Hoists, re-runs the exact
// level/scale inference, and validates.
func (b *builder) finish(par Params) (*ir.Graph, error) {
	g := &ir.Graph{
		Slots:  b.src.Slots,
		Inputs: b.src.Inputs,
		Ops:    b.ops,
		Stages: append([]ir.StageInfo(nil), b.src.Stages...),
	}
	for s := range g.Stages {
		if out := g.Stages[s].Out; out >= 0 {
			n := b.remap[out]
			if n < 0 {
				return nil, fmt.Errorf("opt: stage %d (%s) output op %d was dropped", s, g.Stages[s].Name, out)
			}
			g.Stages[s].Out = n
		}
	}
	if out := b.src.Output; out >= 0 {
		n := b.remap[out]
		if n < 0 {
			return nil, fmt.Errorf("opt: graph output op %d was dropped", out)
		}
		g.Output = n
	} else {
		g.Output = -1
	}
	// Normalize hoist tags into compact group ids, first appearance
	// first; rebuild the member lists in op order.
	tagGroup := map[int]int{}
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind != ir.OpRotate || op.Hoist < 0 {
			op.Hoist = -1
			continue
		}
		gid, ok := tagGroup[op.Hoist]
		if !ok {
			gid = len(g.Hoists)
			tagGroup[op.Hoist] = gid
			g.Hoists = append(g.Hoists, nil)
		}
		op.Hoist = gid
		g.Hoists[gid] = append(g.Hoists[gid], i)
	}
	if err := reinfer(par, g); err != nil {
		return nil, err
	}
	return g, g.Validate()
}

// reinfer recomputes every op's (Level, Scale) from scratch with the
// tracer's exact rules, so rewrites that move rescales cannot leave
// stale metadata behind (ahead-of-time plaintext encoding depends on
// it being exact).
func reinfer(par Params, g *ir.Graph) error {
	for i := range g.Ops {
		op := &g.Ops[i]
		a := func(j int) *ir.Op { return &g.Ops[op.Args[j]] }
		switch op.Kind {
		case ir.OpEncrypt:
			op.Level, op.Scale = par.MaxLevel(), par.Scale()
		case ir.OpRotate, ir.OpAddPlain:
			op.Level, op.Scale = a(0).Level, a(0).Scale
			if op.Kind == ir.OpAddPlain {
				op.PtScale = a(0).Scale
			}
		case ir.OpMulPlain:
			op.Level, op.Scale = a(0).Level, a(0).Scale*op.PtScale
		case ir.OpAdd:
			x, y := a(0), a(1)
			if x.Level != y.Level {
				return fmt.Errorf("opt: op %d Add level mismatch %d vs %d", i, x.Level, y.Level)
			}
			if !scaleClose(x.Scale, y.Scale) {
				return fmt.Errorf("opt: op %d Add scale mismatch 2^%.2f vs 2^%.2f",
					i, math.Log2(x.Scale), math.Log2(y.Scale))
			}
			op.Level, op.Scale = x.Level, x.Scale
		case ir.OpMulRelin:
			x, y := a(0), a(1)
			if x.Level != y.Level {
				return fmt.Errorf("opt: op %d MulRelin level mismatch %d vs %d", i, x.Level, y.Level)
			}
			op.Level, op.Scale = x.Level, x.Scale*y.Scale
		case ir.OpRescale:
			x := a(0)
			if x.Level <= 0 {
				return fmt.Errorf("opt: op %d rescales at level 0", i)
			}
			op.Level, op.Scale = x.Level-1, x.Scale/par.QiFloat(x.Level)
		case ir.OpDropLevel:
			x := a(0)
			if op.Drop < 0 || x.Level-op.Drop < 0 {
				return fmt.Errorf("opt: op %d drops %d levels from level %d", i, op.Drop, x.Level)
			}
			op.Level, op.Scale = x.Level-op.Drop, x.Scale
		case ir.OpRecombine:
			// A factor term's scale is its argument's times the factor's
			// encode scale; every term must reach term 0's.
			term := func(j int) float64 {
				if v, s := op.TermPlain(j); v != nil {
					return a(j).Scale * s
				}
				return a(j).Scale
			}
			x, s0 := a(0), term(0)
			for j := 1; j < len(op.Args); j++ {
				y, sj := a(j), term(j)
				if y.Level != x.Level || !scaleClose(sj, s0) {
					return fmt.Errorf("opt: op %d recombine term %d at (level %d, scale 2^%.2f), term 0 at (level %d, scale 2^%.2f)",
						i, j, y.Level, math.Log2(sj), x.Level, math.Log2(s0))
				}
			}
			op.Level, op.Scale = x.Level, s0
		default:
			return fmt.Errorf("opt: op %d has unknown kind %v", i, op.Kind)
		}
	}
	return nil
}

// useCounts returns each op's static consumer count, +1 for the graph
// output (mirroring the executor's reference counting).
func useCounts(g *ir.Graph) []int {
	use := make([]int, len(g.Ops))
	for i := range g.Ops {
		for _, a := range g.Ops[i].Args {
			use[a]++
		}
	}
	if g.Output >= 0 {
		use[g.Output]++
	}
	return use
}

// stageOutSet marks ops that are some stage's reported output.
func stageOutSet(g *ir.Graph) map[int]bool {
	outs := map[int]bool{}
	for _, st := range g.Stages {
		if st.Out >= 0 {
			outs[st.Out] = true
		}
	}
	return outs
}
