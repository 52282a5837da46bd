package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cnnhe/internal/primes"
)

// The inner-product kernel (MulCoeffsSum) against a big.Int reference:
// out = Σⱼ aⱼ·bⱼ mod q per coefficient, with nil bⱼ meaning +aⱼ. The
// word backend accumulates lazily in 128 bits, so the cases below pin
// the places laziness could go wrong: a 61-bit modulus with more terms
// than one reduction window holds (64 at 61 bits), all-maximal residues,
// nil terms, the wide fallback, and coefficient ranges that split the
// accumulation blocks off their natural boundaries.

// refInnerProduct computes the expected coefficient j of limb i.
func refInnerProduct(r *Ring, as, bs []*Poly, i, j int) *big.Int {
	q := r.SubRings[i].Modulus()
	acc := new(big.Int)
	for t := range as {
		a := coeffBig(r, as[t], i, j)
		if bs[t] != nil {
			a.Mul(a, coeffBig(r, bs[t], i, j))
		}
		acc.Add(acc, a)
	}
	return acc.Mod(acc, q)
}

// innerProductTerms draws n random (a, b) pairs; every nilEvery-th b is
// nil (0 disables).
func innerProductTerms(r *Ring, rng *rand.Rand, n, nilEvery int) (as, bs []*Poly) {
	for t := 0; t < n; t++ {
		as = append(as, randPoly(r, rng))
		if nilEvery > 0 && t%nilEvery == nilEvery-1 {
			bs = append(bs, nil)
		} else {
			bs = append(bs, randPoly(r, rng))
		}
	}
	return as, bs
}

func checkInnerProduct(t *testing.T, r *Ring, limbs []int, as, bs []*Poly, out *Poly) {
	t.Helper()
	for _, i := range limbs {
		for j := 0; j < r.NVal; j++ {
			want := refInnerProduct(r, as, bs, i, j)
			if got := coeffBig(r, out, i, j); got.Cmp(want) != 0 {
				t.Fatalf("limb %d (%d-bit) coeff %d: got %v want %v",
					i, r.SubRings[i].BitLen(), j, got, want)
			}
		}
	}
}

func TestMulCoeffsSumVsBig(t *testing.T) {
	cases := []struct {
		name     string
		bits     []int
		special  int
		terms    int
		nilEvery int
	}{
		// 61-bit limbs: 70 terms cross the 64-term reduction window.
		{"word-61x2/70-terms", []int{61, 61}, 0, 70, 0},
		{"word-61x2/130-terms-nil", []int{61, 61}, 0, 130, 5},
		// The serving benchmark's chain shape: 40/26…/40 plus a special.
		{"word-40-26x3-40/31-terms", []int{40, 26, 26, 26, 40}, 1, 31, 0},
		{"word-40-26x3-40/nil", []int{40, 26, 26, 26, 40}, 1, 9, 3},
		{"word-single-term", []int{40, 26}, 0, 1, 0},
		{"word-single-nil-term", []int{40, 26}, 0, 1, 1},
		// Wide limbs take the MulCoeffs/MulCoeffsThenAdd fallback.
		{"wide-80-90/nil", []int{80, 90}, 0, 7, 2},
		{"mixed-40-80/nil", []int{40, 80, 26}, 1, 12, 4},
	}
	for _, tc := range cases {
		tc := tc
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", tc.name, parallel), func(t *testing.T) {
				specialBits := 0
				if tc.special > 0 {
					specialBits = 45
				}
				chain, err := primes.BuildChain(9, tc.bits, specialBits, tc.special)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRing(512, chain.Moduli, tc.special, 1)
				if err != nil {
					t.Fatal(err)
				}
				r.Parallel = parallel
				rng := rand.New(rand.NewSource(int64(len(tc.name))))
				as, bs := innerProductTerms(r, rng, tc.terms, tc.nilEvery)
				limbs := r.Limbs(r.MaxLevel(), true)
				out := randPoly(r, rng) // stale contents must be overwritten
				r.MulCoeffsSum(limbs, as, bs, out)
				checkInnerProduct(t, r, limbs, as, bs, out)
			})
		}
	}
}

// TestMulCoeffsSumWorstCase drives every residue to q−1 at 61 bits, the
// largest product the accumulator ever sees, over 200 terms (three full
// reduction windows plus a partial one): the high word must never wrap.
func TestMulCoeffsSumWorstCase(t *testing.T) {
	chain, err := primes.BuildChain(6, []int{61}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(64, chain.Moduli, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := r.SubRings[0].(*wordRing).mod.Q
	if got := termsPerReduce(r.SubRings[0].BitLen()); got != 64 {
		t.Fatalf("termsPerReduce(61) = %d, want 64", got)
	}
	full := r.NewPolyQ(0)
	for j := range full.Coeffs[0] {
		full.Coeffs[0][j] = q - 1
	}
	const terms = 200
	as := make([]*Poly, terms)
	bs := make([]*Poly, terms)
	for i := range as {
		as[i] = full
		if i%7 != 3 {
			bs[i] = full
		}
	}
	out := r.NewPolyQ(0)
	limbs := r.Limbs(0, false)
	r.MulCoeffsSum(limbs, as, bs, out)
	checkInnerProduct(t, r, limbs, as, bs, out)
}

// TestMulCoeffsSumRanges calls the subring kernel directly on coefficient
// ranges that start and end off the 256-coefficient accumulation block
// (and off the pool's slab boundaries), on both backends: coefficients
// outside [lo, hi) must stay untouched, those inside must be exact.
func TestMulCoeffsSumRanges(t *testing.T) {
	chain, err := primes.BuildChain(10, []int{61, 40, 90}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(1024, chain.Moduli, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	as, bs := innerProductTerms(r, rng, 67, 6)
	for i, sr := range r.SubRings {
		for _, rg := range [][2]int{{0, 1024}, {1, 1023}, {37, 300}, {255, 257}, {513, 1000}, {700, 700}} {
			lo, hi := rg[0], rg[1]
			va := make([][]uint64, len(as))
			vb := make([][]uint64, len(as))
			for j := range as {
				va[j] = as[j].Coeffs[i]
				if bs[j] != nil {
					vb[j] = bs[j].Coeffs[i]
				}
			}
			out := make([]uint64, len(as[0].Coeffs[i]))
			const sentinel = 0xdeadbeef
			for k := range out {
				out[k] = sentinel
			}
			sr.MulCoeffsSum(va, vb, lo, hi, out)
			w := sr.Width()
			for j := 0; j < r.NVal; j++ {
				if j < lo || j >= hi {
					for k := 0; k < w; k++ {
						if out[j*w+k] != sentinel {
							t.Fatalf("limb %d range [%d,%d): coefficient %d outside the range was written", i, lo, hi, j)
						}
					}
					continue
				}
				got := new(big.Int)
				sr.CoeffBig(out, j, got)
				if want := refInnerProduct(r, as, bs, i, j); got.Cmp(want) != 0 {
					t.Fatalf("limb %d range [%d,%d) coeff %d: got %v want %v", i, lo, hi, j, got, want)
				}
			}
		}
	}
}
