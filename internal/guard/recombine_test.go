package guard_test

import (
	"errors"
	"math"
	"testing"

	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
)

// recombineKit is a guarded engine plus fresh operands for Recombine: a
// few encrypted vectors at the top level and plaintexts encoded there at
// the level's prime, the diagonal inner product's encode scale.
type recombineKit struct {
	g   *guard.GuardedEngine
	cts []henn.Ct
	pts []henn.Pt
}

func newRecombineKit(t *testing.T, e henn.Engine, cfg guard.Config, n int) *recombineKit {
	t.Helper()
	g := guard.New(e, cfg)
	top := g.MaxLevel()
	k := &recombineKit{g: g}
	specs := make([]henn.PlainSpec, n)
	for j := 0; j < n; j++ {
		x := make([]float64, 8)
		w := make([]float64, 8)
		for i := range x {
			x[i] = float64(i+j) / 10
			w[i] = float64(j-i) / 4
		}
		k.cts = append(k.cts, g.EncryptVec(x))
		specs[j] = henn.PlainSpec{Values: w, Level: top, Scale: g.QiFloat(top)}
	}
	k.pts = g.EncodeVecsAt(specs)
	return k
}

// TestRecombineFusedMatchesSequence: a Recombine with plaintext factors
// tracks exactly the noise bound and scale of the MulPlainPt → Recombine
// sequence it replaces, and decrypts to the same values, on both
// backends. Bare terms (one weighted) ride along.
func TestRecombineFusedMatchesSequence(t *testing.T) {
	plan := tinyPlan(t)
	engines := map[string]henn.Engine{
		"rns": rnsEngine(t, plan, 61),
		"big": bigEngine(t, plan, 61),
	}
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			k := newRecombineKit(t, e, guard.DefaultConfig(), 5)
			g := k.g
			// Bare terms at the product scale: products computed up front.
			bare0 := g.MulPlainPt(k.cts[3], k.pts[3])
			bare1 := g.MulPlainPt(k.cts[4], k.pts[4])
			weights := []int64{1, 1, 1, 1, -2}

			prods := []henn.Ct{g.MulPlainPt(k.cts[0], k.pts[0]), g.MulPlainPt(k.cts[1], k.pts[1]),
				g.MulPlainPt(k.cts[2], k.pts[2]), bare0, bare1}
			seq := g.Recombine(prods, nil, weights)

			fused := g.Recombine([]henn.Ct{k.cts[0], k.cts[1], k.cts[2], bare0, bare1},
				[]henn.Pt{k.pts[0], k.pts[1], k.pts[2], nil, nil}, weights)

			if a, b := g.NoiseBits(fused), g.NoiseBits(seq); a != b {
				t.Fatalf("fused tracks %v noise bits, sequence %v", a, b)
			}
			if a, b := g.ScaleOf(fused), g.ScaleOf(seq); a != b {
				t.Fatalf("fused scale %v, sequence %v", a, b)
			}
			if a, b := g.Level(fused), g.Level(seq); a != b {
				t.Fatalf("fused level %d, sequence %d", a, b)
			}
			df, ds := g.DecryptVec(fused), g.DecryptVec(seq)
			for i := range df {
				if df[i] != ds[i] {
					t.Fatalf("slot %d: fused %v, sequence %v", i, df[i], ds[i])
				}
			}
			if err := g.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecombineFusedRejects: every operand the fused call takes is
// validated as the unfused ops would validate it.
func TestRecombineFusedRejects(t *testing.T) {
	plan := tinyPlan(t)
	t.Run("plaintext-level", func(t *testing.T) {
		k := newRecombineKit(t, rnsEngine(t, plan, 62), guard.DefaultConfig(), 2)
		low := k.g.EncodeVecsAt([]henn.PlainSpec{{Values: []float64{1}, Level: k.g.MaxLevel() - 1, Scale: k.g.Scale()}})
		err := catchGuard(t, func() {
			k.g.Recombine(k.cts, []henn.Pt{k.pts[0], low[0]}, []int64{1, 1})
		})
		if !errors.Is(err, guard.ErrInvalidPlaintext) {
			t.Fatalf("want ErrInvalidPlaintext, got %v", err)
		}
	})
	t.Run("foreign-operand", func(t *testing.T) {
		e := rnsEngine(t, plan, 63)
		k := newRecombineKit(t, rnsEngine(t, plan, 63), guard.DefaultConfig(), 2)
		raw := e.EncryptVec([]float64{1})
		err := catchGuard(t, func() {
			k.g.Recombine([]henn.Ct{k.cts[0], raw}, []henn.Pt{k.pts[0], k.pts[1]}, []int64{1, 1})
		})
		if !errors.Is(err, guard.ErrForeignCiphertext) {
			t.Fatalf("want ErrForeignCiphertext, got %v", err)
		}
	})
	t.Run("term-scale", func(t *testing.T) {
		k := newRecombineKit(t, rnsEngine(t, plan, 64), guard.DefaultConfig(), 2)
		// Term 0 reaches Δ·q, bare term 1 stays at Δ.
		err := catchGuard(t, func() {
			k.g.Recombine(k.cts, []henn.Pt{k.pts[0], nil}, []int64{1, 1})
		})
		if !errors.Is(err, guard.ErrScaleDrift) {
			t.Fatalf("want ErrScaleDrift, got %v", err)
		}
	})
	t.Run("summed-noise-budget", func(t *testing.T) {
		const terms = 16
		// Measure one product's tracked budget with enforcement off.
		probe := newRecombineKit(t, rnsEngine(t, plan, 65), guard.Config{MinNoiseBits: math.Inf(-1)}, 1)
		termBits := probe.g.NoiseBits(probe.g.MulPlainPt(probe.cts[0], probe.pts[0]))

		// 16 equal terms sum to a bound 4 bits worse than each term: a
		// threshold 2 bits below one term passes every product alone and
		// must trip on the sum.
		cfg := guard.DefaultConfig()
		cfg.MinNoiseBits = termBits - 2
		k := newRecombineKit(t, rnsEngine(t, plan, 65), cfg, 1)
		args := make([]henn.Ct, terms)
		pts := make([]henn.Pt, terms)
		weights := make([]int64, terms)
		for j := range args {
			args[j], pts[j], weights[j] = k.cts[0], k.pts[0], 1
		}
		if bits := k.g.NoiseBits(k.g.MulPlainPt(k.cts[0], k.pts[0])); bits < cfg.MinNoiseBits {
			t.Fatalf("a single product already fails the budget (%v < %v)", bits, cfg.MinNoiseBits)
		}
		err := catchGuard(t, func() { k.g.Recombine(args, pts, weights) })
		if !errors.Is(err, guard.ErrNoiseBudgetExhausted) {
			t.Fatalf("want ErrNoiseBudgetExhausted, got %v", err)
		}
		var se *guard.StageError
		if !errors.As(err, &se) || se.Op != "Recombine" {
			t.Fatalf("want StageError at Recombine, got %#v", err)
		}
	})
}
