package serve

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/client"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
)

// keyedFixture is a running keyed server over the tiny model plus the
// pieces tests need to talk to it.
type keyedFixture struct {
	keyed *Keyed
	srv   *httptest.Server
	cl    *client.Client
	plan  *henn.Plan
	ctx   *ckks.Context
}

func newKeyedFixture(t testing.TB) *keyedFixture {
	return newKeyedFixtureCfg(t, nil)
}

// newKeyedFixtureCfg lets a test adjust the server config (store bounds,
// durable dir) before startup.
func newKeyedFixtureCfg(t testing.TB, mutate func(*KeyedConfig)) *keyedFixture {
	t.Helper()
	m := tinyModel(61)
	plan, err := henn.Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckDepth(p.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := KeyedConfig{
		Ctx:     ctx,
		Plan:    plan,
		Model:   "tiny",
		Backend: "ckks-rns",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	k, err := NewKeyed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Close)
	srv := httptest.NewServer(k.Handler())
	t.Cleanup(srv.Close)
	return &keyedFixture{
		keyed: k,
		srv:   srv,
		cl:    client.New(srv.URL),
		plan:  plan,
		ctx:   ctx,
	}
}

// clientKeys runs the client-side key ceremony against the fixture's
// /v1/info: reconstruct params, generate a seeded key set, register it.
func (f *keyedFixture) clientKeys(t testing.TB, seed int64) *client.KeySet {
	t.Helper()
	info, err := f.cl.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ks, err := client.GenerateKeys(info, client.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.cl.Register(context.Background(), ks); err != nil {
		t.Fatal(err)
	}
	return ks
}

// keyedReference evaluates graph g locally on the client's own key
// material with the same encryption randomness: the computation the
// encrypted route must reproduce bit for bit.
func keyedReference(t testing.TB, ks *client.KeySet, g *ir.Graph, inputs [][]float64, encSeed int64, outDim int) []float64 {
	t.Helper()
	ref := henn.NewRNSEngineFromKeys(ks.Context(), ks.SK, ks.PK, ks.RLK, ks.RTK, encSeed)
	prep, err := exec.Prepare(ref, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(context.Background(), inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ref.DecryptVec(res.Out)[:outDim]
}

// servedGraph re-derives the graph the server should be serving — the
// plan lowered for the context's parameters and run through the plan's
// own optimizer setting — and checks the server serves that shape.
func servedGraph(t testing.TB, k *Keyed, optimize func(henn.Engine) (*opt.Result, error), p ckks.Parameters) *ir.Graph {
	t.Helper()
	res, err := optimize(henn.ParamsOnlyEngine("ckks-rns", p.Slots(), p.MaxLevel(), p.Scale, p.QiFloat))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := k.OptResult().After.String(), res.After.String(); got != want {
		t.Fatalf("server serves %s, plan optimizes to %s", got, want)
	}
	if got, want := k.OptResult().Setting, res.Setting; got != want {
		t.Fatalf("server optimizer setting %q, plan's %q", got, want)
	}
	return res.Graph
}

// TestKeyedEncryptedRoundTrip is the protocol's end-to-end core: keygen
// → register → encrypt → server-side eval under client keys → local
// decrypt, with logits bit-identical to the same keys evaluating the
// same optimized graph through the full (secret-holding) engine locally.
func TestKeyedEncryptedRoundTrip(t *testing.T) {
	f := newKeyedFixture(t)
	g := servedGraph(t, f.keyed, f.plan.Optimize, f.ctx.Params)
	if r := f.keyed.OptResult(); r.After.EngineCalls >= r.Before.EngineCalls {
		t.Fatalf("served graph is not optimized: %s", r.Summary())
	}
	ks := f.clientKeys(t, 91)
	img := testImage(rand.New(rand.NewSource(7)), f.plan.InputDim)
	const encSeed = 777

	got, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.plan.OutputDim,
		client.WithEncryptionSeed(encSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Logits) != f.plan.OutputDim {
		t.Fatalf("got %d logits, want %d", len(got.Logits), f.plan.OutputDim)
	}

	// Reference: the identical computation run locally with the same key
	// material and the same encryption randomness.
	want := keyedReference(t, ks, g, [][]float64{img}, encSeed, f.plan.OutputDim)
	for i := range want {
		if got.Logits[i] != want[i] {
			t.Fatalf("logit %d: encrypted route %v, local reference %v", i, got.Logits[i], want[i])
		}
	}

	// A second round trip under the cached per-client engine must agree
	// too (exercises the Entry.Eval reuse path).
	again, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.plan.OutputDim,
		client.WithEncryptionSeed(encSeed))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again.Logits[i] != want[i] {
			t.Fatalf("cached-engine logit %d: %v, want %v", i, again.Logits[i], want[i])
		}
	}
}

// TestKeyedHonoursDisabledOptimizer: Plan.Opt = opt.Disabled() (heserve
// -opt=off) serves the canonical lowering unchanged, bit-identical to a
// local run of that unoptimized graph.
func TestKeyedHonoursDisabledOptimizer(t *testing.T) {
	f := newKeyedFixtureCfg(t, func(cfg *KeyedConfig) { cfg.Plan.Opt = opt.Disabled() })
	r := f.keyed.OptResult()
	if r.Setting != "off" || r.After.Ops != r.Before.Ops || len(r.Passes) != 0 {
		t.Fatalf("opt=off plan served an optimized graph: %s", r.Summary())
	}
	g, err := f.plan.Lower(henn.ParamsOnlyEngine("ckks-rns", f.ctx.Params.Slots(),
		f.ctx.Params.MaxLevel(), f.ctx.Params.Scale, f.ctx.Params.QiFloat))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Graph.Stats().String(), g.Stats().String(); got != want {
		t.Fatalf("served %s, canonical lowering %s", got, want)
	}
	ks := f.clientKeys(t, 92)
	img := testImage(rand.New(rand.NewSource(8)), f.plan.InputDim)
	const encSeed = 778
	got, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.plan.OutputDim,
		client.WithEncryptionSeed(encSeed))
	if err != nil {
		t.Fatal(err)
	}
	want := keyedReference(t, ks, g, [][]float64{img}, encSeed, f.plan.OutputDim)
	for i := range want {
		if got.Logits[i] != want[i] {
			t.Fatalf("logit %d: encrypted route %v, unoptimized local reference %v", i, got.Logits[i], want[i])
		}
	}
}

func TestKeyedInfo(t *testing.T) {
	f := newKeyedFixture(t)
	info, err := f.cl.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Model != "tiny" || info.Backend != "ckks-rns" {
		t.Fatalf("model/backend = %q/%q", info.Model, info.Backend)
	}
	if info.InputDim != f.plan.InputDim || info.OutputDim != f.plan.OutputDim {
		t.Fatalf("dims %d/%d, want %d/%d", info.InputDim, info.OutputDim, f.plan.InputDim, f.plan.OutputDim)
	}
	if info.Slots != f.ctx.Params.Slots() || info.Levels != f.ctx.Params.MaxLevel() {
		t.Fatalf("slots/levels %d/%d", info.Slots, info.Levels)
	}
	want := f.plan.Rotations()
	if len(info.Rotations) != len(want) || len(want) == 0 {
		t.Fatalf("advertised %d rotations, plan needs %d", len(info.Rotations), len(want))
	}
	for i := range want {
		if info.Rotations[i] != want[i] {
			t.Fatalf("rotation %d: %d != %d", i, info.Rotations[i], want[i])
		}
	}
	if !info.EncryptedRoute {
		t.Fatal("encrypted route not advertised")
	}
	if info.Params.Fingerprint != f.ctx.Params.Fingerprint() {
		t.Fatal("params fingerprint mismatch")
	}
	// The manifest must be sufficient to rebuild the exact parameters.
	if _, err := client.ParamsFromInfo(info.Params); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedUnknownFingerprint(t *testing.T) {
	f := newKeyedFixture(t)
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+client.PathClassifyEncrypted,
		strings.NewReader("x"))
	req.Header.Set(client.HeaderKeyFingerprint, "deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestKeyedRejectsIncompatibleBundle(t *testing.T) {
	f := newKeyedFixture(t)

	kg := ckks.NewKeyGenerator(f.ctx, 55)
	sk := kg.GenSecretKey()

	post := func(body []byte) int {
		resp, err := http.Post(f.srv.URL+client.PathKeys, client.ContentTypeCKKS,
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Wrong params digest → 409.
	digest := f.ctx.Params.ParamsDigest()
	digest[0] ^= 0xFF
	var buf bytes.Buffer
	if err := f.ctx.WriteKeyBundle(&buf, &ckks.KeyBundle{
		ParamsDigest: digest,
		PK:           kg.GenPublicKey(sk),
		RLK:          kg.GenRelinearizationKey(sk),
		RTK:          kg.GenRotationKeys(sk, f.plan.Rotations(), false),
	}); err != nil {
		t.Fatal(err)
	}
	if code := post(buf.Bytes()); code != http.StatusConflict {
		t.Fatalf("params mismatch: status %d, want 409", code)
	}

	// Rotation keys missing the plan's requirement → 409.
	buf.Reset()
	if err := f.ctx.WriteKeyBundle(&buf, &ckks.KeyBundle{
		ParamsDigest: f.ctx.Params.ParamsDigest(),
		PK:           kg.GenPublicKey(sk),
		RLK:          kg.GenRelinearizationKey(sk),
		RTK:          kg.GenRotationKeys(sk, f.plan.Rotations()[:1], false),
	}); err != nil {
		t.Fatal(err)
	}
	if code := post(buf.Bytes()); code != http.StatusConflict {
		t.Fatalf("missing rotations: status %d, want 409", code)
	}

	// Truncated frame → 400.
	if code := post(buf.Bytes()[:buf.Len()/2]); code != http.StatusBadRequest {
		t.Fatalf("truncated bundle: status %d, want 400", code)
	}
}

func TestKeyedOversizeBodies(t *testing.T) {
	f := newKeyedFixture(t)
	ks := f.clientKeys(t, 92)
	fp, err := ks.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	big := make([]byte, int(f.keyed.bundleLimit)+1)
	resp, err := http.Post(f.srv.URL+client.PathKeys, client.ContentTypeCKKS,
		bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize bundle: status %d, want 413", resp.StatusCode)
	}

	big = make([]byte, int(f.keyed.ctLimit)+1)
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+client.PathClassifyEncrypted,
		bytes.NewReader(big))
	req.Header.Set(client.HeaderKeyFingerprint, fp)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize ciphertext: status %d, want 413", resp.StatusCode)
	}
}

func TestKeyedRejectsGarbageCiphertext(t *testing.T) {
	f := newKeyedFixture(t)
	ks := f.clientKeys(t, 93)
	fp, err := ks.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	garbage := testImageBytes(94, 4096)
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+client.PathClassifyEncrypted,
		bytes.NewReader(garbage))
	req.Header.Set(client.HeaderKeyFingerprint, fp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage ciphertext: status %d, want 400", resp.StatusCode)
	}
}

// TestKeyedClientSelfHealsEviction: when the server forgets a client's
// bundle (LRU eviction here; a restart without the durable store in
// production), the SDK re-registers the bundle it already holds and
// replays the classification — no error surfaces and no keygen reruns.
func TestKeyedClientSelfHealsEviction(t *testing.T) {
	f := newKeyedFixtureCfg(t, func(cfg *KeyedConfig) { cfg.MaxClients = 1 })
	ksA := f.clientKeys(t, 96)
	img := testImage(rand.New(rand.NewSource(11)), f.plan.InputDim)
	const encSeed = 779
	first, err := f.cl.ClassifyEncrypted(context.Background(), ksA, img, f.plan.OutputDim,
		client.WithEncryptionSeed(encSeed))
	if err != nil {
		t.Fatal(err)
	}

	// A second client's registration evicts A from the 1-entry store.
	f.clientKeys(t, 97)
	fpA, err := ksA.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.keyed.Store().Get(fpA); err == nil {
		t.Fatal("bundle A still resident — eviction fixture broken")
	}

	// The same call transparently re-registers and succeeds, with the
	// same logits (same keys, same encryption randomness).
	healed, err := f.cl.ClassifyEncrypted(context.Background(), ksA, img, f.plan.OutputDim,
		client.WithEncryptionSeed(encSeed))
	if err != nil {
		t.Fatalf("self-heal round trip: %v", err)
	}
	for i := range first.Logits {
		if healed.Logits[i] != first.Logits[i] {
			t.Fatalf("logit %d drifted across self-heal: %v != %v", i, healed.Logits[i], first.Logits[i])
		}
	}
	if _, err := f.keyed.Store().Get(fpA); err != nil {
		t.Fatalf("bundle A not re-registered: %v", err)
	}
}

// testImageBytes is deterministic junk for framing-rejection tests.
func testImageBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestKeyedPathHoldsNoSecretKey pins the privacy invariant: the engine
// the encrypted route evaluates on is the eval-only type, whose secret
// operations are unreachable (they panic), and it is built exclusively
// from wire-registered key material.
func TestKeyedPathHoldsNoSecretKey(t *testing.T) {
	f := newKeyedFixture(t)
	ks := f.clientKeys(t, 95)
	img := testImage(rand.New(rand.NewSource(9)), f.plan.InputDim)
	if _, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.plan.OutputDim); err != nil {
		t.Fatal(err)
	}
	fp, err := ks.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := f.keyed.Store().Get(fp)
	if err != nil {
		t.Fatal(err)
	}
	entry.Mu.Lock()
	defer entry.Mu.Unlock()
	ev, ok := entry.Eval.(*keyedEval)
	if !ok {
		t.Fatalf("entry eval state is %T", entry.Eval)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DecryptVec on the keyed path did not panic")
		}
	}()
	ev.g.DecryptVec(nil)
}

// TestClassifyBodyLimit413 pins the plaintext route's plan-sized body
// cap: an oversize JSON body gets a 413, not a generic decode error.
func TestClassifyBodyLimit413(t *testing.T) {
	f := newFixture(t, 2)
	s, err := New(Config{Batch: f.bp, Engine: f.eng})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := make([]byte, int(s.classifyBodyLimit())+1)
	for i := range body {
		body[i] = ' '
	}
	body[0] = '{'
	resp, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}
