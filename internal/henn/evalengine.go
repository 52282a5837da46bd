package henn

import (
	"math/big"
	"runtime"
	"sync"

	"cnnhe/internal/ckks"
)

// RNSEvalEngine is the CKKS-RNS backend restricted to evaluation-key
// material: it can run a lowered op graph over ciphertexts that arrive
// already encrypted, and nothing else. The struct deliberately has no
// secret-key, decryptor, or encryptor field — the server-side engine for
// client-held-key inference is private by construction, not by
// discipline. EncryptVec and DecryptVec exist only to satisfy the Engine
// interface and panic if reached; the executor's RunEncrypted path never
// calls them.
type RNSEvalEngine struct {
	Ctx *ckks.Context
	Enc *ckks.Encoder
	Ev  *ckks.Evaluator

	mu      sync.Mutex
	ptCache map[ptCacheKey]*ckks.Plaintext
}

// NewRNSEvalEngine builds an evaluation-only engine from a client's
// registered key material. rtk may be nil when the plan needs no
// rotations.
func NewRNSEvalEngine(ctx *ckks.Context, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet) *RNSEvalEngine {
	return &RNSEvalEngine{
		Ctx:     ctx,
		Enc:     ckks.NewEncoder(ctx),
		Ev:      ckks.NewEvaluator(ctx, rlk, rtk),
		ptCache: map[ptCacheKey]*ckks.Plaintext{},
	}
}

// NewRNSEngineFromKeys builds a full engine from explicit key material
// instead of generating its own — the client-side reference engine: the
// e2e parity tests run the plaintext-path inference on exactly the keys
// the client registered with the server. encSeed seeds the encryptor's
// randomness so a wire round trip can be replayed bit-for-bit.
func NewRNSEngineFromKeys(ctx *ckks.Context, sk *ckks.SecretKey, pk *ckks.PublicKey,
	rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet, encSeed int64) *RNSEngine {
	return &RNSEngine{
		Ctx:     ctx,
		Enc:     ckks.NewEncoder(ctx),
		Ept:     ckks.NewEncryptor(ctx, pk, encSeed),
		Dec:     ckks.NewDecryptor(ctx, sk),
		Ev:      ckks.NewEvaluator(ctx, rlk, rtk),
		SK:      sk,
		ptCache: map[ptCacheKey]*ckks.Plaintext{},
	}
}

func (e *RNSEvalEngine) cachedPlaintext(key string, level int, scale float64, v []float64) *ckks.Plaintext {
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
func (e *RNSEvalEngine) MulPlainVecCached(ct Ct, key string, v []float64, scale float64) Ct {
	c := ct.(*ckks.Ciphertext)
	return e.Ev.MulPlain(c, e.cachedPlaintext(key, c.Level, scale, v))
}

// AddPlainVecCached implements Engine.
func (e *RNSEvalEngine) AddPlainVecCached(ct Ct, key string, v []float64) Ct {
	c := ct.(*ckks.Ciphertext)
	return e.Ev.AddPlain(c, e.cachedPlaintext(key, c.Level, c.Scale, v))
}

// Name implements Engine.
func (e *RNSEvalEngine) Name() string { return "ckks-rns-eval" }

// Slots implements Engine.
func (e *RNSEvalEngine) Slots() int { return e.Ctx.Params.Slots() }

// MaxLevel implements Engine.
func (e *RNSEvalEngine) MaxLevel() int { return e.Ctx.Params.MaxLevel() }

// Scale implements Engine.
func (e *RNSEvalEngine) Scale() float64 { return e.Ctx.Params.Scale }

// QiFloat implements Engine.
func (e *RNSEvalEngine) QiFloat(level int) float64 { return e.Ctx.Params.QiFloat(level) }

// SpecialPFloat returns the key-switching modulus P as a float64 (used by
// the guard's key-switch noise bound).
func (e *RNSEvalEngine) SpecialPFloat() float64 {
	f, _ := new(big.Float).SetInt(e.Ctx.Params.Chain.P()).Float64()
	return f
}

// EncryptVec implements Engine by panicking: an evaluation-only engine
// holds no encryption key path on purpose. Inputs must arrive as
// ciphertexts (exec.Prepared.RunEncrypted).
func (e *RNSEvalEngine) EncryptVec([]float64) Ct {
	panic("henn: RNSEvalEngine cannot encrypt: evaluation-only engine")
}

// DecryptVec implements Engine by panicking: there is no secret key
// here. Results must be returned as ciphertexts for the key holder to
// decrypt.
func (e *RNSEvalEngine) DecryptVec(Ct) []float64 {
	panic("henn: RNSEvalEngine cannot decrypt: no secret key")
}

// Level implements Engine.
func (e *RNSEvalEngine) Level(ct Ct) int { return ct.(*ckks.Ciphertext).Level }

// ScaleOf implements Engine.
func (e *RNSEvalEngine) ScaleOf(ct Ct) float64 { return ct.(*ckks.Ciphertext).Scale }

// Add implements Engine.
func (e *RNSEvalEngine) Add(a, b Ct) Ct {
	return e.Ev.Add(a.(*ckks.Ciphertext), b.(*ckks.Ciphertext))
}

// AddPlainVec implements Engine.
func (e *RNSEvalEngine) AddPlainVec(ct Ct, v []float64) Ct {
	c := ct.(*ckks.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, c.Scale)
	return e.Ev.AddPlain(c, pt)
}

// MulPlainVecAtScale implements Engine.
func (e *RNSEvalEngine) MulPlainVecAtScale(ct Ct, v []float64, scale float64) Ct {
	c := ct.(*ckks.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, scale)
	return e.Ev.MulPlain(c, pt)
}

// MulRelin implements Engine.
func (e *RNSEvalEngine) MulRelin(a, b Ct) Ct {
	return e.Ev.Mul(a.(*ckks.Ciphertext), b.(*ckks.Ciphertext))
}

// MulInt implements Engine.
func (e *RNSEvalEngine) MulInt(ct Ct, n int64) Ct {
	return e.Ev.MulInt(ct.(*ckks.Ciphertext), n)
}

// Recombine implements Engine with the fused ckks.Evaluator.Recombine.
func (e *RNSEvalEngine) Recombine(args []Ct, pts []Pt, weights []int64) Ct {
	return rnsRecombine(e.Ev, args, pts, weights)
}

// Rescale implements Engine.
func (e *RNSEvalEngine) Rescale(ct Ct) Ct { return e.Ev.Rescale(ct.(*ckks.Ciphertext)) }

// DropLevel implements Engine.
func (e *RNSEvalEngine) DropLevel(ct Ct, n int) Ct {
	return e.Ev.DropLevel(ct.(*ckks.Ciphertext), n)
}

// Rotate implements Engine.
func (e *RNSEvalEngine) Rotate(ct Ct, k int) Ct {
	if k == 0 {
		return ct
	}
	return e.Ev.Rotate(ct.(*ckks.Ciphertext), k)
}

// RotateMany implements Engine using hoisted rotations.
func (e *RNSEvalEngine) RotateMany(ct Ct, ks []int) map[int]Ct {
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

// EncodeVecsAt implements Engine: the ahead-of-time encoding pass.
func (e *RNSEvalEngine) EncodeVecsAt(specs []PlainSpec) []Pt {
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
func (e *RNSEvalEngine) MulPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.MulPlain(ct.(*ckks.Ciphertext), pt.(*ckks.Plaintext))
}

// AddPlainPt implements Engine.
func (e *RNSEvalEngine) AddPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.AddPlain(ct.(*ckks.Ciphertext), pt.(*ckks.Plaintext))
}

var _ Engine = (*RNSEvalEngine)(nil)
