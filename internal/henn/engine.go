// Package henn evaluates trained CNNs homomorphically: the paper's
// privacy-preserving CNN-HE and CNN-HE-RNS models.
//
// A trained internal/nn model is compiled into a Plan — a sequence of
// homomorphic stages over a single packed ciphertext holding the flattened
// activation vector. Every linear layer (convolutions included, with batch
// normalization and input scaling folded in) becomes an explicit
// slots×slots matrix evaluated by the Halevi–Shoup diagonal method with
// baby-step/giant-step rotations; every SLAF activation becomes a depth-2
// polynomial evaluation with per-unit coefficient vectors.
//
// The same Plan runs on two interchangeable engines: the RNS engine
// (internal/ckks, the paper's CKKS-RNS) and the multiprecision baseline
// engine (internal/ckksbig, original CKKS). Their latency difference on
// identical plans is the paper's CNN-HE vs CNN-HE-RNS comparison
// (Tables III and V).
package henn

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn/ir"
)

// Ct is an opaque ciphertext handle owned by an Engine. It aliases ir.Ct
// so compiled plans, lowered graphs, and the executor share one handle
// type across packages.
type Ct = ir.Ct

// Pt is an opaque pre-encoded plaintext handle (see Engine.EncodeVecsAt).
type Pt = ir.Pt

// PlainSpec describes one plaintext vector to pre-encode at an exact
// (level, scale).
type PlainSpec = ir.PlainSpec

// Engine abstracts the two CKKS backends behind the operations the
// compiled plans and lowered op graphs need; see ir.Engine for the full
// method contract.
type Engine = ir.Engine

// ptCacheKey identifies a cached plaintext encoding.
type ptCacheKey struct {
	key   string
	level int
	scale float64
}

// RNSEngine is the CKKS-RNS backend (internal/ckks).
type RNSEngine struct {
	Ctx *ckks.Context
	Enc *ckks.Encoder
	Ept *ckks.Encryptor
	Dec *ckks.Decryptor
	Ev  *ckks.Evaluator
	SK  *ckks.SecretKey

	mu      sync.Mutex
	ptCache map[ptCacheKey]*ckks.Plaintext
}

// NewRNSEngine builds a full CKKS-RNS deployment (keys for the given
// rotations) over params.
func NewRNSEngine(params ckks.Parameters, rotations []int, seed int64) (*RNSEngine, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var rtk *ckks.RotationKeySet
	if len(rotations) > 0 {
		rtk = kg.GenRotationKeys(sk, rotations, false)
	}
	return &RNSEngine{
		Ctx:     ctx,
		Enc:     ckks.NewEncoder(ctx),
		Ept:     ckks.NewEncryptor(ctx, pk, seed+1),
		Dec:     ckks.NewDecryptor(ctx, sk),
		Ev:      ckks.NewEvaluator(ctx, rlk, rtk),
		SK:      sk,
		ptCache: map[ptCacheKey]*ckks.Plaintext{},
	}, nil
}

func (e *RNSEngine) cachedPlaintext(key string, level int, scale float64, v []float64) *ckks.Plaintext {
	k := ptCacheKey{key, level, scale}
	e.mu.Lock()
	pt, ok := e.ptCache[k]
	e.mu.Unlock()
	if ok {
		return pt
	}
	pt = e.Enc.Encode(v, level, scale)
	e.mu.Lock()
	e.ptCache[k] = pt
	e.mu.Unlock()
	return pt
}

// MulPlainVecCached implements Engine.
func (e *RNSEngine) MulPlainVecCached(ct Ct, key string, v []float64, scale float64) Ct {
	c := ct.(*ckks.Ciphertext)
	return e.Ev.MulPlain(c, e.cachedPlaintext(key, c.Level, scale, v))
}

// AddPlainVecCached implements Engine.
func (e *RNSEngine) AddPlainVecCached(ct Ct, key string, v []float64) Ct {
	c := ct.(*ckks.Ciphertext)
	return e.Ev.AddPlain(c, e.cachedPlaintext(key, c.Level, c.Scale, v))
}

// Name implements Engine.
func (e *RNSEngine) Name() string { return "ckks-rns" }

// Slots implements Engine.
func (e *RNSEngine) Slots() int { return e.Ctx.Params.Slots() }

// MaxLevel implements Engine.
func (e *RNSEngine) MaxLevel() int { return e.Ctx.Params.MaxLevel() }

// Scale implements Engine.
func (e *RNSEngine) Scale() float64 { return e.Ctx.Params.Scale }

// QiFloat implements Engine.
func (e *RNSEngine) QiFloat(level int) float64 { return e.Ctx.Params.QiFloat(level) }

// SpecialPFloat returns the key-switching modulus P as a float64 (used by
// the guard's key-switch noise bound).
func (e *RNSEngine) SpecialPFloat() float64 {
	f, _ := new(big.Float).SetInt(e.Ctx.Params.Chain.P()).Float64()
	return f
}

// EncryptVec implements Engine.
func (e *RNSEngine) EncryptVec(values []float64) Ct {
	pt := e.Enc.Encode(values, e.MaxLevel(), e.Scale())
	return e.Ept.Encrypt(pt)
}

// DecryptVec implements Engine.
func (e *RNSEngine) DecryptVec(ct Ct) []float64 {
	return e.Enc.Decode(e.Dec.DecryptNew(ct.(*ckks.Ciphertext)))
}

// Level implements Engine.
func (e *RNSEngine) Level(ct Ct) int { return ct.(*ckks.Ciphertext).Level }

// ScaleOf implements Engine.
func (e *RNSEngine) ScaleOf(ct Ct) float64 { return ct.(*ckks.Ciphertext).Scale }

// Add implements Engine.
func (e *RNSEngine) Add(a, b Ct) Ct {
	return e.Ev.Add(a.(*ckks.Ciphertext), b.(*ckks.Ciphertext))
}

// AddPlainVec implements Engine.
func (e *RNSEngine) AddPlainVec(ct Ct, v []float64) Ct {
	c := ct.(*ckks.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, c.Scale)
	return e.Ev.AddPlain(c, pt)
}

// MulPlainVecAtScale implements Engine.
func (e *RNSEngine) MulPlainVecAtScale(ct Ct, v []float64, scale float64) Ct {
	c := ct.(*ckks.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, scale)
	return e.Ev.MulPlain(c, pt)
}

// MulRelin implements Engine.
func (e *RNSEngine) MulRelin(a, b Ct) Ct {
	return e.Ev.Mul(a.(*ckks.Ciphertext), b.(*ckks.Ciphertext))
}

// MulInt implements Engine.
func (e *RNSEngine) MulInt(ct Ct, n int64) Ct {
	return e.Ev.MulInt(ct.(*ckks.Ciphertext), n)
}

// Recombine implements Engine with the fused ckks.Evaluator.Recombine.
func (e *RNSEngine) Recombine(args []Ct, pts []Pt, weights []int64) Ct {
	return rnsRecombine(e.Ev, args, pts, weights)
}

// rnsRecombine unwraps engine handles for ckks.Evaluator.Recombine, the
// one inner-product implementation both RNS engines share.
func rnsRecombine(ev *ckks.Evaluator, args []Ct, pts []Pt, weights []int64) Ct {
	cts := make([]*ckks.Ciphertext, len(args))
	for i, a := range args {
		cts[i] = a.(*ckks.Ciphertext)
	}
	var ps []*ckks.Plaintext
	if pts != nil {
		ps = make([]*ckks.Plaintext, len(pts))
		for i, p := range pts {
			if p != nil {
				ps[i] = p.(*ckks.Plaintext)
			}
		}
	}
	return ev.Recombine(cts, ps, weights)
}

// Rescale implements Engine.
func (e *RNSEngine) Rescale(ct Ct) Ct { return e.Ev.Rescale(ct.(*ckks.Ciphertext)) }

// DropLevel implements Engine.
func (e *RNSEngine) DropLevel(ct Ct, n int) Ct { return e.Ev.DropLevel(ct.(*ckks.Ciphertext), n) }

// Rotate implements Engine.
func (e *RNSEngine) Rotate(ct Ct, k int) Ct {
	if k == 0 {
		return ct
	}
	return e.Ev.Rotate(ct.(*ckks.Ciphertext), k)
}

// RotateMany implements Engine using hoisted rotations.
func (e *RNSEngine) RotateMany(ct Ct, ks []int) map[int]Ct {
	c := ct.(*ckks.Ciphertext)
	outs := e.Ev.RotateHoisted(c, nonZero(ks))
	m := make(map[int]Ct, len(ks))
	for _, k := range ks {
		if k == 0 {
			m[0] = ct
			continue
		}
		m[k] = outs[k]
	}
	return m
}

// EncodeVecsAt implements Engine: the ahead-of-time encoding pass. The
// encoder is stateless, so the batch is encoded on all CPUs.
func (e *RNSEngine) EncodeVecsAt(specs []PlainSpec) []Pt {
	es := make([]ckks.EncodeSpec, len(specs))
	for i, s := range specs {
		es[i] = ckks.EncodeSpec{Values: s.Values, Level: s.Level, Scale: s.Scale}
	}
	pts := e.Enc.EncodeBatch(es, runtime.NumCPU())
	out := make([]Pt, len(pts))
	for i, pt := range pts {
		out[i] = pt
	}
	return out
}

// MulPlainPt implements Engine.
func (e *RNSEngine) MulPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.MulPlain(ct.(*ckks.Ciphertext), pt.(*ckks.Plaintext))
}

// AddPlainPt implements Engine.
func (e *RNSEngine) AddPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.AddPlain(ct.(*ckks.Ciphertext), pt.(*ckks.Plaintext))
}

func nonZero(ks []int) []int {
	out := ks[:0:0]
	for _, k := range ks {
		if k != 0 {
			out = append(out, k)
		}
	}
	return out
}

// BigEngine is the multiprecision (non-RNS) baseline backend.
type BigEngine struct {
	Ctx *ckksbig.Context
	Enc *ckksbig.Encoder
	Ept *ckksbig.Encryptor
	Dec *ckksbig.Decryptor
	Ev  *ckksbig.Evaluator
	SK  *ckksbig.SecretKey

	mu      sync.Mutex
	ptCache map[ptCacheKey]*ckksbig.Plaintext
}

// NewBigEngine builds the baseline deployment.
func NewBigEngine(params ckksbig.Parameters, rotations []int, seed int64) (*BigEngine, error) {
	ctx, err := ckksbig.NewContext(params)
	if err != nil {
		return nil, err
	}
	kg := ckksbig.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var rtk *ckksbig.RotationKeySet
	if len(rotations) > 0 {
		rtk = kg.GenRotationKeys(sk, rotations, false)
	}
	return &BigEngine{
		Ctx:     ctx,
		Enc:     ckksbig.NewEncoder(ctx),
		Ept:     ckksbig.NewEncryptor(ctx, pk, seed+1),
		Dec:     ckksbig.NewDecryptor(ctx, sk),
		Ev:      ckksbig.NewEvaluator(ctx, rlk, rtk),
		SK:      sk,
		ptCache: map[ptCacheKey]*ckksbig.Plaintext{},
	}, nil
}

func (e *BigEngine) cachedPlaintext(key string, level int, scale float64, v []float64) *ckksbig.Plaintext {
	k := ptCacheKey{key, level, scale}
	e.mu.Lock()
	pt, ok := e.ptCache[k]
	e.mu.Unlock()
	if ok {
		return pt
	}
	pt = e.Enc.Encode(v, level, scale)
	e.mu.Lock()
	e.ptCache[k] = pt
	e.mu.Unlock()
	return pt
}

// MulPlainVecCached implements Engine.
func (e *BigEngine) MulPlainVecCached(ct Ct, key string, v []float64, scale float64) Ct {
	c := ct.(*ckksbig.Ciphertext)
	return e.Ev.MulPlain(c, e.cachedPlaintext(key, c.Level, scale, v))
}

// AddPlainVecCached implements Engine.
func (e *BigEngine) AddPlainVecCached(ct Ct, key string, v []float64) Ct {
	c := ct.(*ckksbig.Ciphertext)
	return e.Ev.AddPlain(c, e.cachedPlaintext(key, c.Level, c.Scale, v))
}

// Name implements Engine.
func (e *BigEngine) Name() string { return "ckks-big" }

// Slots implements Engine.
func (e *BigEngine) Slots() int { return e.Ctx.Params.Slots() }

// MaxLevel implements Engine.
func (e *BigEngine) MaxLevel() int { return e.Ctx.Params.MaxLevel() }

// Scale implements Engine.
func (e *BigEngine) Scale() float64 { return e.Ctx.Params.Scale }

// QiFloat implements Engine.
func (e *BigEngine) QiFloat(level int) float64 { return e.Ctx.Params.QiFloat(level) }

// SpecialPFloat returns the key-switching modulus P as a float64 (used by
// the guard's key-switch noise bound).
func (e *BigEngine) SpecialPFloat() float64 {
	f, _ := new(big.Float).SetInt(e.Ctx.P).Float64()
	return f
}

// EncryptVec implements Engine.
func (e *BigEngine) EncryptVec(values []float64) Ct {
	pt := e.Enc.Encode(values, e.MaxLevel(), e.Scale())
	return e.Ept.Encrypt(pt)
}

// DecryptVec implements Engine.
func (e *BigEngine) DecryptVec(ct Ct) []float64 {
	return e.Enc.Decode(e.Dec.DecryptNew(ct.(*ckksbig.Ciphertext)))
}

// Level implements Engine.
func (e *BigEngine) Level(ct Ct) int { return ct.(*ckksbig.Ciphertext).Level }

// ScaleOf implements Engine.
func (e *BigEngine) ScaleOf(ct Ct) float64 { return ct.(*ckksbig.Ciphertext).Scale }

// Add implements Engine.
func (e *BigEngine) Add(a, b Ct) Ct {
	return e.Ev.Add(a.(*ckksbig.Ciphertext), b.(*ckksbig.Ciphertext))
}

// AddPlainVec implements Engine.
func (e *BigEngine) AddPlainVec(ct Ct, v []float64) Ct {
	c := ct.(*ckksbig.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, c.Scale)
	return e.Ev.AddPlain(c, pt)
}

// MulPlainVecAtScale implements Engine.
func (e *BigEngine) MulPlainVecAtScale(ct Ct, v []float64, scale float64) Ct {
	c := ct.(*ckksbig.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, scale)
	return e.Ev.MulPlain(c, pt)
}

// MulRelin implements Engine.
func (e *BigEngine) MulRelin(a, b Ct) Ct {
	return e.Ev.Mul(a.(*ckksbig.Ciphertext), b.(*ckksbig.Ciphertext))
}

// MulInt implements Engine.
func (e *BigEngine) MulInt(ct Ct, n int64) Ct {
	return e.Ev.MulInt(ct.(*ckksbig.Ciphertext), n)
}

// Recombine implements Engine as the plain reference chain — MulPlain,
// MulInt and Add term by term — that the fused RNS kernel must match.
func (e *BigEngine) Recombine(args []Ct, pts []Pt, weights []int64) Ct {
	var acc *ckksbig.Ciphertext
	for i, a := range args {
		c := a.(*ckksbig.Ciphertext)
		if pts != nil && pts[i] != nil {
			c = e.Ev.MulPlain(c, pts[i].(*ckksbig.Plaintext))
		}
		if weights[i] != 1 {
			c = e.Ev.MulInt(c, weights[i])
		}
		if acc == nil {
			acc = c
		} else {
			acc = e.Ev.Add(acc, c)
		}
	}
	return acc
}

// Rescale implements Engine.
func (e *BigEngine) Rescale(ct Ct) Ct { return e.Ev.Rescale(ct.(*ckksbig.Ciphertext)) }

// DropLevel implements Engine.
func (e *BigEngine) DropLevel(ct Ct, n int) Ct {
	return e.Ev.DropLevel(ct.(*ckksbig.Ciphertext), n)
}

// Rotate implements Engine.
func (e *BigEngine) Rotate(ct Ct, k int) Ct {
	if k == 0 {
		return ct
	}
	return e.Ev.Rotate(ct.(*ckksbig.Ciphertext), k)
}

// RotateMany implements Engine using hoisted rotations.
func (e *BigEngine) RotateMany(ct Ct, ks []int) map[int]Ct {
	c := ct.(*ckksbig.Ciphertext)
	outs := e.Ev.RotateHoisted(c, nonZero(ks))
	m := make(map[int]Ct, len(ks))
	for _, k := range ks {
		if k == 0 {
			m[0] = ct
			continue
		}
		m[k] = outs[k]
	}
	return m
}

// EncodeVecsAt implements Engine: the ahead-of-time encoding pass.
func (e *BigEngine) EncodeVecsAt(specs []PlainSpec) []Pt {
	es := make([]ckksbig.EncodeSpec, len(specs))
	for i, s := range specs {
		es[i] = ckksbig.EncodeSpec{Values: s.Values, Level: s.Level, Scale: s.Scale}
	}
	pts := e.Enc.EncodeBatch(es, runtime.NumCPU())
	out := make([]Pt, len(pts))
	for i, pt := range pts {
		out[i] = pt
	}
	return out
}

// MulPlainPt implements Engine.
func (e *BigEngine) MulPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.MulPlain(ct.(*ckksbig.Ciphertext), pt.(*ckksbig.Plaintext))
}

// AddPlainPt implements Engine.
func (e *BigEngine) AddPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.AddPlain(ct.(*ckksbig.Ciphertext), pt.(*ckksbig.Plaintext))
}

var (
	_ Engine = (*RNSEngine)(nil)
	_ Engine = (*BigEngine)(nil)
)

func init() {
	// Guard against interface drift in one place.
	_ = fmt.Sprintf
}
