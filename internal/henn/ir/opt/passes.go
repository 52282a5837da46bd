package opt

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"cnnhe/internal/henn/ir"
)

// ---------------------------------------------------------------- cse --

// passCSE hash-conses ops: two ops with the same kind, the same
// (already-deduplicated) producers, the same rotation/drop/weight
// attributes and bit-identical plaintext content compute the same
// ciphertext, so later ones collapse onto the first. Exact for every
// kind except OpEncrypt, which is never merged: each encrypt is a
// fresh-randomness PRNG call and the prologue's call order is part of
// the bit-parity contract with the legacy interpreter.
//
// Hoisted and standalone rotations are kept apart (the hoisted-ness
// flag is in the key): RotateHoisted and Rotate use different
// key-switch algorithms with different rounding, so merging across
// would change the consumer's bits.
func passCSE(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	b := newBuilder(g)
	seen := map[string][]int{} // key → candidate new op ids (hash buckets)
	for i := range g.Ops {
		op := g.Ops[i]
		if op.Kind == ir.OpEncrypt {
			b.carry(i)
			continue
		}
		key := cseKey(b, op)
		merged := false
		for _, cand := range seen[key] {
			if plainEqual(b.ops[cand].Plain, op.Plain) && factorsEqual(b.ops[cand].ArgPlain, op.ArgPlain) {
				b.alias(i, cand)
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		seen[key] = append(seen[key], b.carry(i))
	}
	return b.finish(par)
}

func cseKey(b *builder, op ir.Op) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|", op.Kind)
	for _, a := range op.Args {
		fmt.Fprintf(&sb, "%d,", b.arg(a))
	}
	hoisted := op.Kind == ir.OpRotate && op.Hoist >= 0
	fmt.Fprintf(&sb, "|k=%d h=%v d=%d s=%x w=%v", op.K, hoisted, op.Drop,
		math.Float64bits(op.PtScale), op.Weights)
	if op.Plain != nil {
		fmt.Fprintf(&sb, " p=%d/%x", len(op.Plain), plainHash(op.Plain))
	}
	for j, f := range op.ArgPlain {
		if f != nil {
			fmt.Fprintf(&sb, " f%d=%d/%x@%x", j, len(f), plainHash(f), math.Float64bits(op.ArgPtScale[j]))
		}
	}
	return sb.String()
}

func plainHash(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// factorsEqual is plainEqual over Recombine factor lists (the scales are
// already in the key).
func factorsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if (a[j] == nil) != (b[j] == nil) || !plainEqual(a[j], b[j]) {
			return false
		}
	}
	return true
}

// plainEqual guards hash-bucket collisions with a full bit compare.
func plainEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// --------------------------------------------------------------- fold --

// passFold folds plaintext constants. The exact subset drops AddPlain
// ops whose operand is all zeros (the encoding of an exact zero is the
// zero polynomial, so the add is a bit-identity). In full mode it also
// pre-combines single-use AddPlain∘AddPlain chains into one add of
// v1+v2 and MulPlain∘MulPlain chains into one product by v1⊙v2 at
// scale s1·s2 — same value, but one encoding rounding instead of two,
// so it is tolerance-class and skipped under Options.Exact. Runs to a
// fixpoint so longer chains collapse over iterations.
func passFold(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	for iter := 0; iter < 8; iter++ {
		next, changed, err := foldOnce(g, par, exact)
		if err != nil {
			return nil, err
		}
		g = next
		if !changed {
			return g, nil
		}
	}
	return g, nil
}

func foldOnce(g *ir.Graph, par Params, exact bool) (*ir.Graph, bool, error) {
	use := useCounts(g)
	outs := stageOutSet(g)
	elide := map[int]bool{}    // all-zero AddPlain → alias to its arg
	absorbed := map[int]bool{} // inner chain op folded into its consumer
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind == ir.OpAddPlain && allZero(op.Plain) {
			elide[i] = true
			continue
		}
		if exact || (op.Kind != ir.OpAddPlain && op.Kind != ir.OpMulPlain) {
			continue
		}
		a := op.Args[0]
		inner := &g.Ops[a]
		// One link per iteration: a chain A→B→C merges A into B now and
		// the result into C on the next fixpoint round. The inner op must
		// not itself be absorbing something this round (!absorbed of ITS
		// arg — an absorber needs to stay emitted to receive the merge)
		// and must not be a recorded stage output (absorbed ops get no
		// remap entry, so a stage row pointing at one would dangle).
		if inner.Kind == op.Kind && use[a] == 1 &&
			!elide[a] && !absorbed[a] && !outs[a] &&
			!absorbed[inner.Args[0]] &&
			len(inner.Plain) == len(op.Plain) {
			absorbed[a] = true
		}
	}
	if len(elide) == 0 && len(absorbed) == 0 {
		return g, false, nil
	}
	b := newBuilder(g)
	for i := range g.Ops {
		op := g.Ops[i]
		if elide[i] {
			b.alias(i, b.arg(op.Args[0]))
			continue
		}
		if absorbed[i] {
			continue // merged into its unique consumer below
		}
		if (op.Kind == ir.OpAddPlain || op.Kind == ir.OpMulPlain) && absorbed[op.Args[0]] {
			inner := g.Ops[op.Args[0]]
			merged := make([]float64, len(op.Plain))
			if op.Kind == ir.OpAddPlain {
				for j := range merged {
					merged[j] = inner.Plain[j] + op.Plain[j]
				}
			} else {
				for j := range merged {
					merged[j] = inner.Plain[j] * op.Plain[j]
				}
				op.PtScale = inner.PtScale * op.PtScale
			}
			op.Plain = merged
			op.PlainKey = "" // derived content: dedup by digest, not name
			op.Args = []int{b.arg(inner.Args[0])}
			b.remap[i] = b.emit(op)
			continue
		}
		b.carry(i)
	}
	next, err := b.finish(par)
	return next, true, err
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// ------------------------------------------------------------- replan --

// passReplan merges hoisted rotations that share a source ciphertext
// into one fan-out group, regardless of which stage's RotateMany they
// came from: one key-switch decomposition of the source then serves
// every rotation of it in the graph (double-hoisting). Bit-exact:
// grouped and singleton hoisted rotations produce identical
// ciphertexts per k (the decomposition depends only on the source),
// verified empirically on both backends by
// TestRotateHoistedGroupingBitIdentical. Standalone rotations
// (Hoist = -1) are left alone — absorbing them would switch them to
// the hoisted key-switch algorithm and change their bits.
func passReplan(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	b := newBuilder(g)
	for i := range g.Ops {
		op := g.Ops[i]
		if op.Kind == ir.OpRotate && op.Hoist >= 0 {
			src := b.arg(op.Args[0])
			op.Args = []int{src}
			op.Hoist = src // tag by source: finish merges same-source groups
			b.remap[i] = b.emit(op)
			continue
		}
		b.carry(i)
	}
	return b.finish(par)
}

// ------------------------------------------------------------ rescale --

// passRescale sinks level maintenance past sums (lazy rescale): an
// Add/Recombine whose ciphertext args are all single-use OpRescale
// (resp. OpDropLevel with one shared Drop) over same-level inputs is
// rewritten to sum the unrescaled inputs and apply one trailing
// Rescale/DropLevel to the whole reduction tree. DropLevel-sinking is
// bit-exact (modulus truncation commutes with componentwise addition)
// and runs in every mode; Rescale-sinking rounds once after the sum
// instead of once per addend, so it is tolerance-class and skipped
// under Options.Exact. When a sunk op was a recorded stage output, the
// stage row is re-pointed at the trailing op (same level, matching
// scale) — the executor supports several stages sharing one output op.
// Runs to a fixpoint so cascaded reduction trees keep sinking.
func passRescale(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	for iter := 0; iter < 8; iter++ {
		next, changed, err := rescaleOnce(g, par, exact)
		if err != nil {
			return nil, err
		}
		g = next
		if !changed {
			return g, nil
		}
	}
	return g, nil
}

func rescaleOnce(g *ir.Graph, par Params, exact bool) (*ir.Graph, bool, error) {
	use := useCounts(g)
	type sink struct {
		kind ir.Kind // trailing op kind (OpRescale or OpDropLevel)
		drop int
	}
	plans := map[int]sink{} // sum op id → trailing descriptor
	sunk := map[int]bool{}  // arg op ids consumed by a planned sum
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind != ir.OpAdd && op.Kind != ir.OpRecombine {
			continue
		}
		if op.ArgPlain != nil {
			continue // factors are encoded at the sum's level and scale
		}
		kind, drop := ir.Kind(-1), 0
		lvl, scale := 0, 0.0
		ok := true
		for j, a := range op.Args {
			ao := &g.Ops[a]
			if use[a] != 1 || sunk[a] {
				ok = false
				break
			}
			switch ao.Kind {
			case ir.OpRescale:
				if exact {
					ok = false // one rounding instead of many: tolerance-class
				}
			case ir.OpDropLevel:
			default:
				ok = false
			}
			if !ok {
				break
			}
			in := &g.Ops[ao.Args[0]]
			if j == 0 {
				kind, drop = ao.Kind, ao.Drop
				lvl, scale = in.Level, in.Scale
			} else if ao.Kind != kind || ao.Drop != drop ||
				in.Level != lvl || !scaleClose(in.Scale, scale) {
				ok = false
			}
			if !ok {
				break
			}
		}
		if !ok || kind == ir.Kind(-1) {
			continue
		}
		plans[i] = sink{kind: kind, drop: drop}
		for _, a := range op.Args {
			sunk[a] = true
		}
	}
	if len(plans) == 0 {
		return g, false, nil
	}
	b := newBuilder(g)
	for i := range g.Ops {
		if sunk[i] {
			continue // re-emitted as the trailing op of its sum
		}
		pl, planned := plans[i]
		if !planned {
			b.carry(i)
			continue
		}
		op := g.Ops[i]
		args := make([]int, len(op.Args))
		for j, a := range op.Args {
			args[j] = b.arg(g.Ops[a].Args[0])
		}
		sum := b.emit(ir.Op{Kind: op.Kind, Args: args, Weights: op.Weights, Stage: op.Stage})
		trail := b.emit(ir.Op{Kind: pl.kind, Args: []int{sum}, Drop: pl.drop, Stage: op.Stage})
		b.alias(i, trail)
		for _, a := range op.Args {
			b.alias(a, trail) // stage rows on a sunk op follow the trailing op
		}
	}
	next, err := b.finish(par)
	return next, true, err
}

// --------------------------------------------------------------- fuse --

// passFuse collapses reduction trees into fused linear combinations: a
// tree of single-use, non-stage-output Add/Recombine ops becomes one
// OpRecombine over the tree's leaves with the accumulated integer
// weights, which the executor hands to the engine as a single
// Engine.Recombine call. A leaf that is a MulPlain is absorbed as well,
// when it has a single use, weight 1 and is not a recorded stage output:
// its operand becomes the term and its plaintext the term's factor, so
// a diagonal inner product Σ rotⱼ(ct) ⊙ diagⱼ runs as one lazily reduced
// multiply-accumulate instead of one MulPlain per diagonal plus an add
// tree. Bit-exact: ciphertext addition is componentwise modular
// addition (associative), MulInt distributes over it exactly, and a
// product reduced before the sum or once after it is the same residue,
// so any re-association computes identical residues. The stage-output
// exclusion matters: an absorbed op gets no remap entry, so a stage row
// pointing at one would dangle. Roots are left alone when they would
// recombine fewer than 3 leaves without absorbing a MulPlain, have a
// non-1 leading weight, or overflow a weight.
func passFuse(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	use := useCounts(g)
	outs := stageOutSet(g)
	isSum := func(i int) bool {
		k := g.Ops[i].Kind
		return k == ir.OpAdd || k == ir.OpRecombine
	}
	// expandable: folded into the enclosing tree when reached from a
	// sum parent (its unique consumer, by use==1). A recombine already
	// carrying factors stays a leaf: an enclosing weight would land on
	// its factor terms, which must keep weight 1.
	expandable := func(i int) bool {
		return isSum(i) && use[i] == 1 && !outs[i] && g.Ops[i].ArgPlain == nil
	}
	absorbable := func(i int) bool {
		return g.Ops[i].Kind == ir.OpMulPlain && use[i] == 1 && !outs[i]
	}

	// Roots are sums that no parent will absorb. A parent expands only
	// its bare (factor-free) arguments.
	consumer := make([]int, len(g.Ops))
	for i := range consumer {
		consumer[i] = -1
	}
	for i := range g.Ops {
		op := &g.Ops[i]
		for j, a := range op.Args {
			if v, _ := op.TermPlain(j); use[a] == 1 && v == nil {
				consumer[a] = i
			}
		}
	}
	type term struct {
		leaf    int
		weight  int64
		plain   []float64
		ptScale float64
	}
	plans := map[int][]term{}
	absorbed := map[int]bool{} // interior sums and absorbed MulPlains
	for i := range g.Ops {
		if !isSum(i) {
			continue
		}
		if expandable(i) && consumer[i] >= 0 && isSum(consumer[i]) {
			continue // interior node of some root's tree
		}
		var terms []term
		var interior, muls []int
		ok := true
		var collect func(n int, w int64)
		// walk visits sum op n's arguments under the enclosing weight w.
		// Factor terms (only a root can carry them) are taken over as
		// they are; bare arguments are collected.
		walk := func(n int, w int64) {
			op := &g.Ops[n]
			for j, a := range op.Args {
				wj := w
				if op.Kind == ir.OpRecombine {
					wj = mulInt64(w, op.Weights[j], &ok)
				}
				if v, s := op.TermPlain(j); v != nil {
					terms = append(terms, term{leaf: a, weight: wj, plain: v, ptScale: s})
					continue
				}
				collect(a, wj)
			}
		}
		collect = func(n int, w int64) {
			switch {
			case !ok:
			case expandable(n):
				interior = append(interior, n)
				walk(n, w)
			case w == 1 && absorbable(n):
				mp := &g.Ops[n]
				muls = append(muls, n)
				terms = append(terms, term{leaf: mp.Args[0], weight: 1, plain: mp.Plain, ptScale: mp.PtScale})
			default:
				terms = append(terms, term{leaf: n, weight: w})
			}
		}
		walk(i, 1)
		if !ok || terms[0].weight != 1 || (len(terms) < 3 && len(muls) == 0) {
			continue
		}
		plans[i] = terms
		for _, n := range interior {
			absorbed[n] = true
		}
		for _, n := range muls {
			absorbed[n] = true
		}
	}
	if len(plans) == 0 {
		return g, nil
	}
	b := newBuilder(g)
	for i := range g.Ops {
		if absorbed[i] {
			continue
		}
		if terms, fused := plans[i]; fused {
			op := ir.Op{Kind: ir.OpRecombine, Stage: g.Ops[i].Stage,
				Args: make([]int, len(terms)), Weights: make([]int64, len(terms))}
			for j, t := range terms {
				op.Args[j] = b.arg(t.leaf)
				op.Weights[j] = t.weight
				if t.plain != nil {
					if op.ArgPlain == nil {
						op.ArgPlain = make([][]float64, len(terms))
						op.ArgPtScale = make([]float64, len(terms))
					}
					op.ArgPlain[j], op.ArgPtScale[j] = t.plain, t.ptScale
				}
			}
			b.alias(i, b.emit(op))
			continue
		}
		b.carry(i)
	}
	return b.finish(par)
}

// mulInt64 multiplies with overflow detection (clears *ok on overflow).
func mulInt64(a, b int64, ok *bool) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a {
		*ok = false
	}
	return c
}

// ---------------------------------------------------------------- dce --

// passDCE drops ops unreachable from the graph output and the recorded
// stage outputs. Encrypt ops are always kept: the prologue's
// fresh-randomness call order is part of the bit-parity contract, and
// every op downstream of an encrypt is deterministic, so removing
// unreachable non-encrypt ops cannot change any surviving bit.
func passDCE(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	keep := make([]bool, len(g.Ops))
	var mark func(int)
	mark = func(i int) {
		if keep[i] {
			return
		}
		keep[i] = true
		for _, a := range g.Ops[i].Args {
			mark(a)
		}
	}
	if g.Output >= 0 {
		mark(g.Output)
	}
	for _, st := range g.Stages {
		if st.Out >= 0 {
			mark(st.Out)
		}
	}
	for i := range g.Ops {
		if g.Ops[i].Kind == ir.OpEncrypt {
			keep[i] = true
		}
	}
	b := newBuilder(g)
	for i := range g.Ops {
		if keep[i] {
			b.carry(i)
		}
	}
	return b.finish(par)
}
