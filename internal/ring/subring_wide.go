package ring

import (
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"

	"cnnhe/internal/zq"
)

// wideRing is the two-word limb backend for primes of 62–122 bits. It
// exists so that a fixed total ciphertext modulus can be split into fewer,
// larger limbs (the paper's Table IV/VI moduli-chain sweeps); its heavier
// multiprecision-style arithmetic is exactly the cost RNS amortizes away,
// so no lazy-reduction tricks are applied here. Element-wise methods derive
// their iteration count from the output slice, so the ring layer can hand
// them coefficient-aligned sub-slabs.
type wideRing struct {
	n    int
	logN int
	mod  zq.WideModulus

	psiRev       []zq.Wide
	psiRevShoup  []zq.Wide
	ipsiRev      []zq.Wide
	ipsiRevShoup []zq.Wide
	nInv         zq.Wide
	nInvShoup    zq.Wide
	maskHi       uint64 // rejection mask for the high word when sampling

	// scalars memoizes the Shoup constant per reduced scalar (keyed by the
	// comparable zq.Wide value), mirroring the word backend's cache.
	scalars   atomic.Value // map[zq.Wide]zq.Wide: reduced scalar → Shoup constant
	scalarsMu sync.Mutex
}

func newWideRing(n int, q *big.Int, rng *rand.Rand) *wideRing {
	mod := zq.NewWideModulus(q)
	twoN := uint64(2 * n)
	qm1 := new(big.Int).Sub(q, big.NewInt(1))
	if new(big.Int).Mod(qm1, new(big.Int).SetUint64(twoN)).Sign() != 0 {
		panic("ring: wide modulus not NTT-friendly for this degree")
	}
	logN := log2(n)
	psi := mod.PrimitiveNthRoot(twoN, rng)
	ipsi := mod.Inv(psi)
	r := &wideRing{
		n:            n,
		logN:         logN,
		mod:          mod,
		psiRev:       make([]zq.Wide, n),
		psiRevShoup:  make([]zq.Wide, n),
		ipsiRev:      make([]zq.Wide, n),
		ipsiRevShoup: make([]zq.Wide, n),
	}
	hiBits := mod.Bits - 64
	if hiBits >= 64 {
		r.maskHi = ^uint64(0)
	} else {
		r.maskHi = (uint64(1) << uint(hiBits)) - 1
	}
	pw, ipw := zq.Wide{Lo: 1}, zq.Wide{Lo: 1}
	for i := 0; i < n; i++ {
		j := bitrev(i, logN)
		r.psiRev[j] = pw
		r.psiRevShoup[j] = mod.ShoupPrecomp(pw)
		r.ipsiRev[j] = ipw
		r.ipsiRevShoup[j] = mod.ShoupPrecomp(ipw)
		pw = mod.Mul(pw, psi)
		ipw = mod.Mul(ipw, ipsi)
	}
	r.nInv = mod.Inv(zq.Wide{Lo: uint64(n)})
	r.nInvShoup = mod.ShoupPrecomp(r.nInv)
	return r
}

func (r *wideRing) N() int            { return r.n }
func (r *wideRing) Width() int        { return 2 }
func (r *wideRing) Modulus() *big.Int { return r.mod.Modulus() }
func (r *wideRing) BitLen() int       { return r.mod.Bits }

func (r *wideRing) get(a []uint64, i int) zq.Wide    { return zq.Wide{Lo: a[2*i], Hi: a[2*i+1]} }
func (r *wideRing) put(a []uint64, i int, v zq.Wide) { a[2*i], a[2*i+1] = v.Lo, v.Hi }

func (r *wideRing) NTT(a []uint64) {
	t := r.n
	for m := 1; m < r.n; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			w := r.psiRev[m+i]
			ws := r.psiRevShoup[m+i]
			j1 := 2 * i * t
			for j := j1; j < j1+t; j++ {
				u := r.get(a, j)
				v := r.mod.ShoupMul(r.get(a, j+t), w, ws)
				r.put(a, j, r.mod.Add(u, v))
				r.put(a, j+t, r.mod.Sub(u, v))
			}
		}
	}
}

func (r *wideRing) INTT(a []uint64) {
	t := 1
	for m := r.n >> 1; m >= 1; m >>= 1 {
		j1 := 0
		for i := 0; i < m; i++ {
			w := r.ipsiRev[m+i]
			ws := r.ipsiRevShoup[m+i]
			for j := j1; j < j1+t; j++ {
				u := r.get(a, j)
				v := r.get(a, j+t)
				r.put(a, j, r.mod.Add(u, v))
				r.put(a, j+t, r.mod.ShoupMul(r.mod.Sub(u, v), w, ws))
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for i := 0; i < r.n; i++ {
		r.put(a, i, r.mod.ShoupMul(r.get(a, i), r.nInv, r.nInvShoup))
	}
}

func (r *wideRing) Add(a, b, out []uint64) {
	for i := 0; i < len(out)/2; i++ {
		r.put(out, i, r.mod.Add(r.get(a, i), r.get(b, i)))
	}
}

func (r *wideRing) Sub(a, b, out []uint64) {
	for i := 0; i < len(out)/2; i++ {
		r.put(out, i, r.mod.Sub(r.get(a, i), r.get(b, i)))
	}
}

func (r *wideRing) Neg(a, out []uint64) {
	for i := 0; i < len(out)/2; i++ {
		r.put(out, i, r.mod.Neg(r.get(a, i)))
	}
}

func (r *wideRing) MulCoeffs(a, b, out []uint64) {
	for i := 0; i < len(out)/2; i++ {
		r.put(out, i, r.mod.Mul(r.get(a, i), r.get(b, i)))
	}
}

func (r *wideRing) MulCoeffsThenAdd(a, b, out []uint64) {
	for i := 0; i < len(out)/2; i++ {
		p := r.mod.Mul(r.get(a, i), r.get(b, i))
		r.put(out, i, r.mod.Add(r.get(out, i), p))
	}
}

// MulCoeffsSum is the wide backend's inner product: a plain
// MulCoeffs/MulCoeffsThenAdd chain over the range (the ablation chains
// this backend serves are not on the serving hot path).
func (r *wideRing) MulCoeffsSum(as, bs [][]uint64, lo, hi int, out []uint64) {
	o := out[2*lo : 2*hi]
	if len(as) == 0 {
		clear(o)
		return
	}
	for j, a := range as {
		a = a[2*lo : 2*hi]
		var b []uint64
		if bs != nil && bs[j] != nil {
			b = bs[j][2*lo : 2*hi]
		}
		switch {
		case j == 0 && b != nil:
			r.MulCoeffs(a, b, o)
		case j == 0:
			copy(o, a)
		case b != nil:
			r.MulCoeffsThenAdd(a, b, o)
		default:
			r.Add(o, a, o)
		}
	}
}

// scalarWide reduces s into [0, q) without allocating when s is already a
// non-negative ≤128-bit value (the invQ and encoder constants always are).
func (r *wideRing) scalarWide(s *big.Int) zq.Wide {
	if s.Sign() >= 0 {
		if w := s.Bits(); len(w) <= 2 {
			var v zq.Wide
			if len(w) > 0 {
				v.Lo = uint64(w[0])
			}
			if len(w) > 1 {
				v.Hi = uint64(w[1])
			}
			if v.Less(r.mod.Q) {
				return v
			}
			return r.mod.Reduce(v)
		}
	}
	return zq.WideFromBig(new(big.Int).Mod(s, r.mod.Modulus()))
}

// shoupFor returns the memoized Shoup constant for the reduced scalar sv.
func (r *wideRing) shoupFor(sv zq.Wide) zq.Wide {
	cache, _ := r.scalars.Load().(map[zq.Wide]zq.Wide)
	if ss, ok := cache[sv]; ok {
		return ss
	}
	ss := r.mod.ShoupPrecomp(sv)
	r.scalarsMu.Lock()
	cur, _ := r.scalars.Load().(map[zq.Wide]zq.Wide)
	if _, ok := cur[sv]; !ok && len(cur) < maxScalarCache {
		next := make(map[zq.Wide]zq.Wide, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		next[sv] = ss
		r.scalars.Store(next)
	}
	r.scalarsMu.Unlock()
	return ss
}

func (r *wideRing) MulScalar(a []uint64, s *big.Int, out []uint64) {
	sv := r.scalarWide(s)
	ss := r.shoupFor(sv)
	for i := 0; i < len(out)/2; i++ {
		r.put(out, i, r.mod.ShoupMul(r.get(a, i), sv, ss))
	}
}

func (r *wideRing) SubScalarThenMulScalar(a []uint64, c, s *big.Int, out []uint64) {
	cv := r.scalarWide(c)
	sv := r.scalarWide(s)
	ss := r.shoupFor(sv)
	for i := 0; i < len(out)/2; i++ {
		r.put(out, i, r.mod.ShoupMul(r.mod.Sub(r.get(a, i), cv), sv, ss))
	}
}

func (r *wideRing) Automorphism(a []uint64, galEl uint64, out []uint64) {
	n := uint64(r.n)
	mask := 2*n - 1
	for i := uint64(0); i < n; i++ {
		j := (i * galEl) & mask
		v := r.get(a, int(i))
		if j < n {
			r.put(out, int(j), v)
		} else {
			r.put(out, int(j-n), r.mod.Neg(v))
		}
	}
}

func (r *wideRing) ReduceFrom(src SubRing, a, out []uint64) {
	switch s := src.(type) {
	case *wordRing:
		// Any word value is below a wide modulus (> 2^61).
		for i := 0; i < len(a); i++ {
			out[2*i], out[2*i+1] = a[i], 0
		}
	case *wideRing:
		if s.mod.Q == r.mod.Q {
			copy(out, a)
			return
		}
		for i := 0; i < len(out)/2; i++ {
			r.put(out, i, r.mod.Reduce(s.get(a, i)))
		}
	default:
		panic("ring: unknown source subring")
	}
}

func (r *wideRing) SetCoeffBig(a []uint64, j int, v *big.Int) {
	r.put(a, j, zq.WideFromBig(v))
}

func (r *wideRing) CoeffBig(a []uint64, j int, out *big.Int) {
	out.Set(r.get(a, j).Big())
}

func (r *wideRing) SetCoeffInt64(a []uint64, j int, v int64) {
	if v >= 0 {
		r.put(a, j, zq.Wide{Lo: uint64(v)})
	} else {
		r.put(a, j, r.mod.Neg(zq.Wide{Lo: uint64(-v)}))
	}
}

func (r *wideRing) SetCoeffsInt64(a []uint64, vec []int64) {
	for j, v := range vec {
		if v >= 0 {
			a[2*j], a[2*j+1] = uint64(v), 0
		} else {
			w := r.mod.Neg(zq.Wide{Lo: uint64(-v)})
			a[2*j], a[2*j+1] = w.Lo, w.Hi
		}
	}
}

func (r *wideRing) SampleUniform(rng *rand.Rand, a []uint64) {
	for i := 0; i < r.n; i++ {
		for {
			v := zq.Wide{Lo: rng.Uint64(), Hi: rng.Uint64() & r.maskHi}
			if v.Less(r.mod.Q) {
				r.put(a, i, v)
				break
			}
		}
	}
}
