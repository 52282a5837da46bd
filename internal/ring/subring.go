// Package ring implements the RNS (residue number system) polynomial ring
// R_q = Z_q[X]/(X^N+1) with q = ∏ q_i held in residue form: a polynomial is
// a stack of "limbs", one coefficient vector per prime q_i. Limbs are
// independent — the essence of the RNS-CKKS design — and every limb-wise
// operation can run in parallel across limbs.
//
// Two limb backends are provided: a fast single-word backend for primes of
// at most 61 bits (Shoup-multiplied lazy Harvey NTT butterflies) and a wide
// two-word backend for primes up to 122 bits (Barrett-256 arithmetic). The
// wide backend exists to support the paper's moduli-chain-length sweeps,
// where a fixed ~366-bit ciphertext modulus is split into as few as three
// limbs.
package ring

import (
	"math/big"
	"math/rand"
)

// SubRing is the per-prime residue ring Z_{q_i}[X]/(X^N+1). Coefficient
// vectors are []uint64 of length N·Width(): one word per coefficient for the
// word backend, two little-endian words for the wide backend.
type SubRing interface {
	// N returns the ring degree.
	N() int
	// Width returns the number of 64-bit words per coefficient (1 or 2).
	Width() int
	// Modulus returns q_i as a fresh big.Int.
	Modulus() *big.Int
	// BitLen returns the bit length of q_i.
	BitLen() int

	// NTT transforms a in place from coefficient to evaluation domain
	// (negacyclic, bit-reversed output order).
	NTT(a []uint64)
	// INTT is the inverse of NTT (bit-reversed input, natural output).
	INTT(a []uint64)

	// Add sets out = a + b element-wise. Aliasing of any arguments is allowed.
	Add(a, b, out []uint64)
	// Sub sets out = a - b element-wise.
	Sub(a, b, out []uint64)
	// Neg sets out = -a element-wise.
	Neg(a, out []uint64)
	// MulCoeffs sets out = a ⊙ b element-wise (pointwise product).
	MulCoeffs(a, b, out []uint64)
	// MulCoeffsThenAdd sets out += a ⊙ b element-wise.
	MulCoeffsThenAdd(a, b, out []uint64)
	// MulCoeffsSum sets out = Σⱼ as[j] ⊙ bs[j] element-wise over the
	// coefficient range [lo, hi) — the plaintext inner product. A nil
	// bs (or a nil bs[j]) adds as[j] unmultiplied. as[j], bs[j] and out
	// are whole limb vectors; out must not alias an input.
	MulCoeffsSum(as, bs [][]uint64, lo, hi int, out []uint64)
	// MulScalar sets out = a · s for a scalar s given as a big.Int in [0, q).
	MulScalar(a []uint64, s *big.Int, out []uint64)
	// SubScalarThenMulScalar sets out = (a - c) · s for scalars c, s in [0,q).
	// It is the inner step of RNS rescaling. a and out may alias.
	SubScalarThenMulScalar(a []uint64, c, s *big.Int, out []uint64)

	// Automorphism applies X → X^galEl (galEl odd) in the coefficient
	// domain: out[i·galEl mod 2N adjusted] = ±a[i]. a and out must not alias.
	Automorphism(a []uint64, galEl uint64, out []uint64)

	// ReduceFrom sets out = src-limb coefficients reduced mod q_i, where
	// the source limb belongs to subring src (possibly different width).
	ReduceFrom(src SubRing, a, out []uint64)

	// SetCoeffBig stores v (in [0, q)) at coefficient index j.
	SetCoeffBig(a []uint64, j int, v *big.Int)
	// CoeffBig loads coefficient j into out.
	CoeffBig(a []uint64, j int, out *big.Int)
	// SetCoeffInt64 stores the centered value v at coefficient index j
	// (negative values wrap to q - |v|).
	SetCoeffInt64(a []uint64, j int, v int64)
	// SetCoeffsInt64 stores centered values vec[0..] at coefficient
	// indices 0.. — the bulk form of SetCoeffInt64, avoiding a dynamic
	// dispatch per coefficient on the encode hot path.
	SetCoeffsInt64(a []uint64, vec []int64)

	// SampleUniform fills a with independent uniform residues from rng.
	SampleUniform(rng *rand.Rand, a []uint64)
}

// NewSubRing builds a SubRing for the prime modulus q (as big.Int) and ring
// degree n (a power of two). The prime must satisfy q ≡ 1 (mod 2n). rng
// seeds the (deterministic given rng) primitive-root search.
func NewSubRing(n int, q *big.Int, rng *rand.Rand) SubRing {
	if n < 2 || n&(n-1) != 0 {
		panic("ring: degree must be a power of two ≥ 2")
	}
	if q.BitLen() <= 61 {
		return newWordRing(n, q.Uint64(), rng)
	}
	return newWideRing(n, q, rng)
}

// bitrev returns i bit-reversed over logN bits.
func bitrev(i, logN int) int {
	r := 0
	for b := 0; b < logN; b++ {
		r = (r << 1) | (i & 1)
		i >>= 1
	}
	return r
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
