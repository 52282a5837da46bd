package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cnnhe/internal/primes"
)

// Kernel micro-benchmarks (`make bench-kernels`): NTT, pointwise multiply
// and the rescale division per limb count, serial vs pool-parallel, with
// -benchmem so the zero-hot-path-allocation property stays visible. The
// parallel/serial pair at a given limb count is the limb-level speedup the
// revived pool delivers; it scales with GOMAXPROCS.

// benchRing builds a paper-shaped word chain (40, 26×(limbs−2), 40 + one
// 60-bit special) at the production degree.
func benchRing(b *testing.B, logN, limbs int, parallel bool) *Ring {
	b.Helper()
	bits := make([]int, limbs)
	bits[0] = 40
	for i := 1; i < limbs-1; i++ {
		bits[i] = 26
	}
	bits[limbs-1] = 40
	chain, err := primes.BuildChain(logN, bits, 60, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(1<<logN, chain.Moduli, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	r.Parallel = parallel
	return r
}

func benchPoly(r *Ring, seed int64) *Poly {
	rng := rand.New(rand.NewSource(seed))
	p := r.NewPoly(r.MaxLevel())
	for _, i := range r.Limbs(r.MaxLevel(), true) {
		r.SubRings[i].SampleUniform(rng, p.Coeffs[i])
	}
	return p
}

// kernelCases sweeps the limb counts a CNN1/CNN2 evaluation actually passes
// through (fresh ciphertext down to the last rescale), serial and parallel.
func kernelCases() []struct {
	limbs    int
	parallel bool
} {
	var cases []struct {
		limbs    int
		parallel bool
	}
	for _, limbs := range []int{2, 4, 8, 13} {
		for _, par := range []bool{false, true} {
			cases = append(cases, struct {
				limbs    int
				parallel bool
			}{limbs, par})
		}
	}
	return cases
}

func BenchmarkKernelNTT(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			p := benchPoly(r, 1)
			limbs := r.Limbs(r.MaxLevel(), true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.NTT(limbs, p)
				r.INTT(limbs, p)
			}
		})
	}
}

func BenchmarkKernelMulCoeffs(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			x := benchPoly(r, 1)
			y := benchPoly(r, 2)
			out := r.NewPoly(r.MaxLevel())
			limbs := r.Limbs(r.MaxLevel(), true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulCoeffs(limbs, x, y, out)
			}
		})
	}
}

func BenchmarkKernelMulCoeffsThenAdd(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			x := benchPoly(r, 1)
			y := benchPoly(r, 2)
			out := benchPoly(r, 3)
			limbs := r.Limbs(r.MaxLevel(), true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulCoeffsThenAdd(limbs, x, y, out)
			}
		})
	}
}

// BenchmarkKernelMulCoeffsSum is the plaintext inner product of one
// BSGS giant step (31 terms, the CNN1 shape) as one lazily reduced
// kernel call; the Chain sub-benchmarks run the same sum as the
// MulCoeffs + Add sequence (one fresh output polynomial per term, like
// the unfused MulPlain/Add graph) it replaces.
func BenchmarkKernelMulCoeffsSum(b *testing.B) {
	const terms = 31
	for _, tc := range kernelCases() {
		r := benchRing(b, 12, tc.limbs, tc.parallel)
		as := make([]*Poly, terms)
		bs := make([]*Poly, terms)
		for j := range as {
			as[j] = benchPoly(r, int64(2*j+1))
			bs[j] = benchPoly(r, int64(2*j+2))
		}
		limbs := r.Limbs(r.MaxLevel(), false)
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v/fused", tc.limbs, tc.parallel), func(b *testing.B) {
			out := r.NewPolyQ(r.MaxLevel())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulCoeffsSum(limbs, as, bs, out)
			}
		})
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v/chain", tc.limbs, tc.parallel), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc := r.NewPolyQ(r.MaxLevel())
				r.MulCoeffs(limbs, as[0], bs[0], acc)
				for j := 1; j < terms; j++ {
					t := r.NewPolyQ(r.MaxLevel())
					r.MulCoeffs(limbs, as[j], bs[j], t)
					sum := r.NewPolyQ(r.MaxLevel())
					r.Add(limbs, acc, t, sum)
					acc = sum
				}
			}
		})
	}
}

// BenchmarkKernelRescale measures the pooled-scratch exact division that
// backs Rescale and ModDown.
func BenchmarkKernelRescale(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			p := benchPoly(r, 1)
			src := r.MaxLevel()
			qLimbs := r.Limbs(src-1, false)
			out := r.NewPolyQ(src - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.DivideExactByLimb(src, qLimbs, p, out)
			}
		})
	}
}

// BenchmarkKernelMulScalar shows the cached Shoup constants: after the
// first call the scalar path is allocation-free.
func BenchmarkKernelMulScalar(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			p := benchPoly(r, 1)
			out := r.NewPoly(r.MaxLevel())
			limbs := r.Limbs(r.MaxLevel(), true)
			s := big.NewInt(1099511627689)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulScalar(limbs, p, s, out)
			}
		})
	}
}
