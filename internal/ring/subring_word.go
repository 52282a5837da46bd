package ring

import (
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"cnnhe/internal/zq"
)

// wordRing is the fast single-word limb backend for primes ≤ 61 bits.
//
// The hot kernels below (NTT, INTT, pointwise arithmetic) are written with
// the modulus constants hoisted into locals, butterflies unrolled two-wide
// over bounds-check-eliminated subslices, and the Barrett/Shoup reductions
// inlined by hand: at logN 11–14 these loops are the bulk of every
// homomorphic operation, and a per-element method call or bounds check is
// measurable. Lazy-reduction invariants (values carried in [0, 4q) across
// NTT stages, one correction pass at the end) are documented per kernel —
// see DESIGN.md §14 and the MaxWordModulusBits headroom comment in zq.
type wordRing struct {
	n    int
	logN int
	mod  zq.Modulus

	// psiRev[m+i] is ψ^{bitrev(i, log m·?)} laid out for the iterative
	// Cooley-Tukey NTT (index m+i at stage with m blocks), ψ a primitive
	// 2N-th root of unity.
	psiRev       []uint64
	psiRevShoup  []uint64
	ipsiRev      []uint64 // inverse-root table for the Gentleman-Sande INTT
	ipsiRevShoup []uint64
	nInv         uint64
	nInvShoup    uint64
	mask         uint64 // rejection mask for uniform sampling

	// scalars memoizes the Shoup constant per reduced scalar word, so
	// Rescale's repeated MulScalar(invQ) calls skip the big.Int reduction
	// and the hardware division in ShoupPrecomp. Copy-on-write map; the
	// mutex serializes writers only.
	scalars   atomic.Value // map[uint64]uint64: reduced scalar → Shoup constant
	scalarsMu sync.Mutex
}

// maxScalarCache bounds the per-subring scalar-constant cache. The working
// set is the invQ entries plus a handful of encoder constants — tiny — but
// adversarial scalar streams must not grow the map without bound.
const maxScalarCache = 512

func newWordRing(n int, q uint64, rng *rand.Rand) *wordRing {
	mod := zq.NewModulus(q)
	twoN := uint64(2 * n)
	if (q-1)%twoN != 0 {
		panic("ring: modulus not NTT-friendly for this degree")
	}
	logN := log2(n)
	psi := mod.PrimitiveNthRoot(twoN, rng)
	ipsi := mod.Inv(psi)
	r := &wordRing{
		n:            n,
		logN:         logN,
		mod:          mod,
		psiRev:       make([]uint64, n),
		psiRevShoup:  make([]uint64, n),
		ipsiRev:      make([]uint64, n),
		ipsiRevShoup: make([]uint64, n),
		mask:         (uint64(1) << uint(mod.Bits)) - 1,
	}
	// Powers of ψ in bit-reversed order (Longa–Naehrig layout).
	pw, ipw := uint64(1), uint64(1)
	pows := make([]uint64, n)
	ipows := make([]uint64, n)
	for i := 0; i < n; i++ {
		pows[i], ipows[i] = pw, ipw
		pw = mod.Mul(pw, psi)
		ipw = mod.Mul(ipw, ipsi)
	}
	for i := 0; i < n; i++ {
		j := bitrev(i, logN)
		r.psiRev[j] = pows[i]
		r.psiRevShoup[j] = mod.ShoupPrecomp(pows[i])
		r.ipsiRev[j] = ipows[i]
		r.ipsiRevShoup[j] = mod.ShoupPrecomp(ipows[i])
	}
	r.nInv = mod.Inv(uint64(n))
	r.nInvShoup = mod.ShoupPrecomp(r.nInv)
	return r
}

func (r *wordRing) N() int              { return r.n }
func (r *wordRing) Width() int          { return 1 }
func (r *wordRing) Modulus() *big.Int   { return new(big.Int).SetUint64(r.mod.Q) }
func (r *wordRing) BitLen() int         { return r.mod.Bits }
func (r *wordRing) ModulusWord() uint64 { return r.mod.Q }

// NTT: iterative Cooley-Tukey with lazy Harvey butterflies. Input in natural
// order fully reduced; output bit-reversed, fully reduced.
//
// Invariant: coefficients stay in [0, 4q) between stages. Each butterfly
// corrects its top input once ([0,4q) → [0,2q)), the Shoup-lazy twiddle
// product is < 2q for any 64-bit input, and both outputs land back in
// [0, 4q). A single two-step correction pass at the end brings everything
// to [0, q) — this is the headroom MaxWordModulusBits = 61 reserves.
func (r *wordRing) NTT(a []uint64) {
	q, twoQ := r.mod.Q, r.mod.TwoQ
	n := len(a)
	psi, psiS := r.psiRev, r.psiRevShoup
	t := n
	for m := 1; m < n>>1; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			w, ws := psi[m+i], psiS[m+i]
			j1 := 2 * i * t
			x := a[j1 : j1+t : j1+t]
			y := a[j1+t : j1+2*t : j1+2*t]
			for j := 0; j < t; j += 2 {
				u0 := x[j]
				if u0 >= twoQ {
					u0 -= twoQ
				}
				y0 := y[j]
				h0, _ := bits.Mul64(y0, ws)
				v0 := y0*w - h0*q
				x[j] = u0 + v0
				y[j] = u0 + twoQ - v0

				u1 := x[j+1]
				if u1 >= twoQ {
					u1 -= twoQ
				}
				y1 := y[j+1]
				h1, _ := bits.Mul64(y1, ws)
				v1 := y1*w - h1*q
				x[j+1] = u1 + v1
				y[j+1] = u1 + twoQ - v1
			}
		}
	}
	// Last stage (t = 1): adjacent pairs, one twiddle per butterfly, fused
	// with the final [0,4q) → [0,q) correction.
	if n >= 2 {
		half := n >> 1
		phi := psi[half:n]
		phiS := psiS[half:n]
		for i := 0; i < half; i++ {
			u := a[2*i]
			if u >= twoQ {
				u -= twoQ
			}
			yv := a[2*i+1]
			h, _ := bits.Mul64(yv, phiS[i])
			v := yv*phi[i] - h*q
			x0 := u + v
			if x0 >= twoQ {
				x0 -= twoQ
			}
			if x0 >= q {
				x0 -= q
			}
			y0 := u + twoQ - v
			if y0 >= twoQ {
				y0 -= twoQ
			}
			if y0 >= q {
				y0 -= q
			}
			a[2*i] = x0
			a[2*i+1] = y0
		}
	}
}

// INTT: Gentleman-Sande, bit-reversed input → natural order output, fully
// reduced, including the 1/N scaling.
//
// Invariant: inputs fully reduced, coefficients stay in [0, 2q) between
// stages (sums corrected once, Shoup-lazy differences < 2q); the final 1/N
// Shoup multiply reduces to [0, q) with one conditional subtraction.
func (r *wordRing) INTT(a []uint64) {
	q, twoQ := r.mod.Q, r.mod.TwoQ
	n := len(a)
	ipsi, ipsiS := r.ipsiRev, r.ipsiRevShoup
	// First stage (t = 1): adjacent pairs, one twiddle per butterfly.
	if n >= 2 {
		half := n >> 1
		phi := ipsi[half:n]
		phiS := ipsiS[half:n]
		for i := 0; i < half; i++ {
			u, v := a[2*i], a[2*i+1]
			s := u + v
			if s >= twoQ {
				s -= twoQ
			}
			a[2*i] = s
			d := u + twoQ - v
			h, _ := bits.Mul64(d, phiS[i])
			a[2*i+1] = d*phi[i] - h*q
		}
	}
	t := 2
	for m := n >> 2; m >= 1; m >>= 1 {
		j1 := 0
		for i := 0; i < m; i++ {
			w, ws := ipsi[m+i], ipsiS[m+i]
			x := a[j1 : j1+t : j1+t]
			y := a[j1+t : j1+2*t : j1+2*t]
			for j := 0; j < t; j += 2 {
				u0, v0 := x[j], y[j]
				s0 := u0 + v0
				if s0 >= twoQ {
					s0 -= twoQ
				}
				x[j] = s0
				d0 := u0 + twoQ - v0
				h0, _ := bits.Mul64(d0, ws)
				y[j] = d0*w - h0*q

				u1, v1 := x[j+1], y[j+1]
				s1 := u1 + v1
				if s1 >= twoQ {
					s1 -= twoQ
				}
				x[j+1] = s1
				d1 := u1 + twoQ - v1
				h1, _ := bits.Mul64(d1, ws)
				y[j+1] = d1*w - h1*q
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	nInv, nInvS := r.nInv, r.nInvShoup
	for j := range a {
		x := a[j]
		h, _ := bits.Mul64(x, nInvS)
		v := x*nInv - h*q
		if v >= q {
			v -= q
		}
		a[j] = v
	}
}

func (r *wordRing) Add(a, b, out []uint64) {
	q := r.mod.Q
	a = a[:len(out)]
	b = b[:len(out)]
	for i := range out {
		s := a[i] + b[i]
		if s >= q {
			s -= q
		}
		out[i] = s
	}
}

func (r *wordRing) Sub(a, b, out []uint64) {
	q := r.mod.Q
	a = a[:len(out)]
	b = b[:len(out)]
	for i := range out {
		s := a[i] - b[i]
		if s > a[i] { // borrow
			s += q
		}
		out[i] = s
	}
}

func (r *wordRing) Neg(a, out []uint64) {
	q := r.mod.Q
	a = a[:len(out)]
	for i := range out {
		if a[i] == 0 {
			out[i] = 0
		} else {
			out[i] = q - a[i]
		}
	}
}

// MulCoeffs runs the 128-bit Barrett reduction (zq.Modulus.reduce128)
// inlined over the whole slab: per-element it is two Mul64 for the product,
// three Mul64 + carries for the quotient estimate, and a conditional
// correction.
func (r *wordRing) MulCoeffs(a, b, out []uint64) {
	q := r.mod.Q
	b0, b1 := r.mod.BRC[0], r.mod.BRC[1]
	a = a[:len(out)]
	b = b[:len(out)]
	for i := range out {
		hi, lo := bits.Mul64(a[i], b[i])
		ahi, _ := bits.Mul64(lo, b1)
		bhi, blo := bits.Mul64(lo, b0)
		chi, clo := bits.Mul64(hi, b1)
		mid, c1 := bits.Add64(blo, clo, 0)
		_, c2 := bits.Add64(mid, ahi, 0)
		qhat := hi*b0 + bhi + chi + c1 + c2
		v := lo - qhat*q
		for v >= q {
			v -= q
		}
		out[i] = v
	}
}

// MulCoeffsThenAdd fuses the Barrett product with the accumulate over the
// whole slab, keeping out[i] resident in a register across both steps.
func (r *wordRing) MulCoeffsThenAdd(a, b, out []uint64) {
	q := r.mod.Q
	b0, b1 := r.mod.BRC[0], r.mod.BRC[1]
	a = a[:len(out)]
	b = b[:len(out)]
	for i := range out {
		hi, lo := bits.Mul64(a[i], b[i])
		ahi, _ := bits.Mul64(lo, b1)
		bhi, blo := bits.Mul64(lo, b0)
		chi, clo := bits.Mul64(hi, b1)
		mid, c1 := bits.Add64(blo, clo, 0)
		_, c2 := bits.Add64(mid, ahi, 0)
		qhat := hi*b0 + bhi + chi + c1 + c2
		v := lo - qhat*q
		for v >= q {
			v -= q
		}
		s := out[i] + v
		if s >= q {
			s -= q
		}
		out[i] = s
	}
}

// sumBlock is the coefficient block MulCoeffsSum accumulates at a time:
// two 256-word accumulator arrays (4 KiB) stay in L1 while every term's
// slice of the block streams through.
const sumBlock = 256

// termsPerReduce is how many products MulCoeffsSum may add into a
// 128-bit accumulator before it must reduce: after a reduction the
// accumulator holds r < q, and T more terms each below q² keep it under
// r + T·(q−1)² < T·q² ≤ 2^128 for T = ⌊2^(128−2·bits(q))⌋ — 64 terms at
// 61-bit q, effectively unbounded below 32 bits.
func termsPerReduce(bitLen int) int {
	e := 128 - 2*bitLen
	if e >= 62 {
		return 1 << 62
	}
	return 1 << e
}

// MulCoeffsSum is the lazily reduced inner product: per block of
// coefficients it accumulates every term's exact 128-bit product (two
// words, carry into the high word) and pays one Barrett reduction per
// coefficient at the end, plus one per termsPerReduce terms. The chain
// MulCoeffs + Add would instead reduce every product and every partial
// sum. The result is the same residue, so it is bit-identical.
func (r *wordRing) MulCoeffsSum(as, bs [][]uint64, lo, hi int, out []uint64) {
	q := r.mod.Q
	b0, b1 := r.mod.BRC[0], r.mod.BRC[1]
	per := termsPerReduce(r.mod.Bits)
	// reduce is the inlined 128-bit Barrett of MulCoeffs; it is exact for
	// any 128-bit input (the quotient estimate is off by at most 2).
	reduce := func(hi, lo uint64) uint64 {
		ahi, _ := bits.Mul64(lo, b1)
		bhi, blo := bits.Mul64(lo, b0)
		chi, clo := bits.Mul64(hi, b1)
		mid, c1 := bits.Add64(blo, clo, 0)
		_, c2 := bits.Add64(mid, ahi, 0)
		qhat := hi*b0 + bhi + chi + c1 + c2
		v := lo - qhat*q
		for v >= q {
			v -= q
		}
		return v
	}
	var accLo, accHi [sumBlock]uint64
	for c0 := lo; c0 < hi; c0 += sumBlock {
		c1 := min(c0+sumBlock, hi)
		n := c1 - c0
		aLo, aHi := accLo[:n], accHi[:n]
		clear(aLo)
		clear(aHi)
		pending := 0
		for j, a := range as {
			if pending == per {
				for k := range aLo {
					aLo[k] = reduce(aHi[k], aLo[k])
					aHi[k] = 0
				}
				pending = 0
			}
			pending++
			a = a[c0:c1:c1]
			if bs == nil || bs[j] == nil {
				for k := range aLo {
					s, c := bits.Add64(aLo[k], a[k], 0)
					aLo[k] = s
					aHi[k] += c
				}
				continue
			}
			b := bs[j][c0:c1:c1]
			for k := range aLo {
				ph, pl := bits.Mul64(a[k], b[k])
				s, c := bits.Add64(aLo[k], pl, 0)
				aLo[k] = s
				aHi[k] += ph + c
			}
		}
		o := out[c0:c1:c1]
		for k := range o {
			o[k] = reduce(aHi[k], aLo[k])
		}
	}
}

// scalarWord reduces s to a word in [0, q) without allocating on the common
// paths: non-negative word-sized scalars (every invQ entry and encoder
// constant) never touch big.Int arithmetic.
func (r *wordRing) scalarWord(s *big.Int) uint64 {
	if s.Sign() >= 0 && s.IsUint64() {
		v := s.Uint64()
		if v < r.mod.Q {
			return v
		}
		return v % r.mod.Q
	}
	return new(big.Int).Mod(s, r.Modulus()).Uint64()
}

// shoupFor returns the memoized Shoup constant for the reduced scalar sv.
func (r *wordRing) shoupFor(sv uint64) uint64 {
	cache, _ := r.scalars.Load().(map[uint64]uint64)
	if ss, ok := cache[sv]; ok {
		return ss
	}
	ss := r.mod.ShoupPrecomp(sv)
	r.scalarsMu.Lock()
	cur, _ := r.scalars.Load().(map[uint64]uint64)
	if _, ok := cur[sv]; !ok && len(cur) < maxScalarCache {
		next := make(map[uint64]uint64, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		next[sv] = ss
		r.scalars.Store(next)
	}
	r.scalarsMu.Unlock()
	return ss
}

func (r *wordRing) MulScalar(a []uint64, s *big.Int, out []uint64) {
	q := r.mod.Q
	sv := r.scalarWord(s)
	ss := r.shoupFor(sv)
	a = a[:len(out)]
	for i := range out {
		h, _ := bits.Mul64(a[i], ss)
		v := a[i]*sv - h*q
		if v >= q {
			v -= q
		}
		out[i] = v
	}
}

func (r *wordRing) SubScalarThenMulScalar(a []uint64, c, s *big.Int, out []uint64) {
	q := r.mod.Q
	cv := r.scalarWord(c)
	sv := r.scalarWord(s)
	ss := r.shoupFor(sv)
	a = a[:len(out)]
	for i := range out {
		d := a[i] - cv
		if d > a[i] { // borrow
			d += q
		}
		h, _ := bits.Mul64(d, ss)
		v := d*sv - h*q
		if v >= q {
			v -= q
		}
		out[i] = v
	}
}

func (r *wordRing) Automorphism(a []uint64, galEl uint64, out []uint64) {
	n := uint64(r.n)
	twoN := 2 * n
	mask := twoN - 1
	for i := uint64(0); i < n; i++ {
		j := (i * galEl) & mask
		if j < n {
			out[j] = a[i]
		} else {
			out[j-n] = r.mod.Neg(a[i])
		}
	}
}

func (r *wordRing) ReduceFrom(src SubRing, a, out []uint64) {
	switch s := src.(type) {
	case *wordRing:
		if s.mod.Q == r.mod.Q {
			copy(out, a)
			return
		}
		q := r.mod.Q
		a = a[:len(out)]
		for i := range out {
			v := a[i]
			if v >= q {
				v %= q
			}
			out[i] = v
		}
	case *wideRing:
		a = a[:2*len(out)]
		for i := range out {
			out[i] = r.mod.Reduce128(a[2*i+1], a[2*i])
		}
	default:
		panic("ring: unknown source subring")
	}
}

func (r *wordRing) SetCoeffBig(a []uint64, j int, v *big.Int) {
	a[j] = v.Uint64()
}

func (r *wordRing) CoeffBig(a []uint64, j int, out *big.Int) {
	out.SetUint64(a[j])
}

func (r *wordRing) SetCoeffInt64(a []uint64, j int, v int64) {
	if v >= 0 {
		a[j] = r.mod.Reduce(uint64(v))
	} else {
		a[j] = r.mod.Neg(r.mod.Reduce(uint64(-v)))
	}
}

func (r *wordRing) SetCoeffsInt64(a []uint64, vec []int64) {
	q := r.mod.Q
	a = a[:len(vec)]
	for j, v := range vec {
		if v >= 0 {
			u := uint64(v)
			if u >= q {
				u %= q
			}
			a[j] = u
		} else {
			u := uint64(-v)
			if u >= q {
				u %= q
			}
			if u != 0 {
				u = q - u
			}
			a[j] = u
		}
	}
}

func (r *wordRing) SampleUniform(rng *rand.Rand, a []uint64) {
	for i := range a {
		for {
			v := rng.Uint64() & r.mask
			if v < r.mod.Q {
				a[i] = v
				break
			}
		}
	}
}
