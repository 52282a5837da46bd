package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/client"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/keys"
	"cnnhe/internal/nn"
	"cnnhe/internal/serve"
	"cnnhe/internal/telemetry"
)

// requestTimeout bounds one request end to end (cmd/heserve's default).
const requestTimeout = 2 * time.Minute

// keyedServer is one serve.Keyed instance behind a loopback listener.
type keyedServer struct {
	model *nn.Model
	keyed *serve.Keyed
	http  *httptest.Server
	ctx   *ckks.Context
	plan  *henn.Plan        // unsharded workloads
	sp    *henn.ShardedPlan // sharded workloads
}

// buildKeyedServer does what cmd/heserve does before it listens on the
// keyed routes: load the model, compile, build the CKKS context, mount
// serve.Keyed.
func buildKeyedServer(w *workload, tr *tracer) (*keyedServer, error) {
	m, err := w.model()
	if err != nil {
		return nil, err
	}
	s := &keyedServer{model: m}
	slots := 1 << (w.logN - 1)
	depth := 0
	err = tr.do("henn.compile", 0, 0, func() error {
		if w.sharded {
			sp, err := henn.CompileShardedAuto(m, slots)
			if err != nil {
				return err
			}
			if sp.NumShards() < 2 {
				return fmt.Errorf("sharded workload compiled to %d shard(s)", sp.NumShards())
			}
			s.sp, depth = sp, sp.Depth
			return nil
		}
		plan, err := henn.Compile(m, slots)
		if err != nil {
			return err
		}
		s.plan, depth = plan, plan.Depth
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("compiling: %w", err)
	}
	p, err := chainParams(w.logN, depth)
	if err != nil {
		return nil, err
	}
	if s.ctx, err = ckks.NewContext(p); err != nil {
		return nil, err
	}
	s.keyed, err = serve.NewKeyed(serve.KeyedConfig{
		Ctx: s.ctx, Plan: s.plan, Sharded: s.sp,
		Model: "cnn1", Backend: "ckks-rns",
		MaxClients: w.maxClients, RequestTimeout: requestTimeout,
	})
	if err != nil {
		return nil, err
	}
	s.http = httptest.NewServer(s.keyed.Handler())
	return s, nil
}

// close stops the listener and drops the handler, so the resident
// bundles and evaluation state become garbage. Safe to call twice.
func (s *keyedServer) close() {
	if s.keyed == nil {
		return
	}
	s.http.Close()
	s.keyed.Close()
	s.keyed, s.http = nil, nil
}

func (s *keyedServer) rotations() []int {
	if s.sp != nil {
		return s.sp.Rotations()
	}
	return s.plan.Rotations()
}

func (s *keyedServer) lower(e henn.Engine) (*ir.Graph, error) {
	if s.sp != nil {
		return s.sp.Lower(e)
	}
	return s.plan.Lower(e)
}

// regStampKey carries a *regStamp in a request context: the metering
// transport marks when the SDK started uploading a key bundle for that
// request, which is where first_result_s starts.
type regStampKey struct{}

type regStamp struct {
	mu sync.Mutex
	at time.Time
}

func (r *regStamp) mark(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.at.IsZero() {
		r.at = t
	}
}

func (r *regStamp) get() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.at
}

// meter is the client's HTTP transport: it counts request body bytes per
// route and stamps bundle uploads, without touching the requests.
type meter struct {
	base http.RoundTripper

	mu                 sync.Mutex
	uploadBytes        int64 // classify bodies
	keyBytes, keyPosts int64 // key-bundle uploads
}

func (mt *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost {
		mt.mu.Lock()
		switch req.URL.Path {
		case client.PathKeys:
			mt.keyBytes += req.ContentLength
			mt.keyPosts++
		case client.PathClassifyEncrypted, "/classify":
			mt.uploadBytes += req.ContentLength
		}
		mt.mu.Unlock()
		if req.URL.Path == client.PathKeys {
			if st, ok := req.Context().Value(regStampKey{}).(*regStamp); ok {
				st.mark(time.Now())
			}
		}
	}
	return mt.base.RoundTrip(req)
}

func (mt *meter) counts() (upload, keyBytes, keyPosts int64) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.uploadBytes, mt.keyBytes, mt.keyPosts
}

// newMeteredClient returns an SDK client for base whose transport is a
// fresh meter; close releases its idle connections.
func newMeteredClient(base string) (*client.Client, *meter, func()) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	mt := &meter{base: tr}
	cl := &client.Client{
		BaseURL: base,
		HTTP:    &http.Client{Transport: mt, Timeout: requestTimeout},
		Retry:   client.DefaultRetryPolicy(),
	}
	return cl, mt, tr.CloseIdleConnections
}

// forEach runs f(0..n-1) with at most limit calls in flight, waits for
// all, and returns the first error.
func forEach(n, limit int, f func(i int) error) error {
	sem := make(chan struct{}, max(limit, 1))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// keyedRun is the state of one keyed-route run.
type keyedRun struct {
	w    *workload
	o    opts
	m    *measurement
	tr   *tracer
	srv  *keyedServer
	ref  *reference
	cl   *client.Client
	mt   *meter
	info *client.InfoResponse
	ks   []*client.KeySet
}

func (r *keyedRun) classifyOpts(encSeed int64) []client.ClassifyOption {
	o := []client.ClassifyOption{client.WithEncryptionSeed(encSeed)}
	if r.srv.sp != nil {
		o = append(o, client.WithShardManifest(r.srv.sp.Input))
	}
	return o
}

// classify runs one SDK round trip for client ci on image img and
// records it. Warm-up requests are checked but not sampled. A stamp
// already in ctx (an explicit registration just before) is kept.
func (r *keyedRun) classify(ctx context.Context, ci, img int, encSeed int64, warm bool) error {
	st, ok := ctx.Value(regStampKey{}).(*regStamp)
	if !ok {
		st = &regStamp{}
		ctx = context.WithValue(ctx, regStampKey{}, st)
	}
	t0 := time.Now()
	res, err := r.cl.ClassifyEncrypted(ctx, r.ks[ci], r.ref.images[img], r.info.OutputDim, r.classifyOpts(encSeed)...)
	done := time.Now()
	if err != nil {
		r.m.failure(false, err, r.o.log)
		return err
	}
	logitErr, wrong := r.ref.check(img, res.Logits)
	if warm {
		r.m.checked(logitErr, wrong)
	} else {
		r.m.sample(done, done.Sub(t0), res.EvalMillis, logitErr, wrong)
	}
	if at := st.get(); !at.IsZero() {
		r.m.firstResult(done.Sub(at))
	}
	return nil
}

func runKeyed(w *workload, o opts) (*measurement, error) {
	r := &keyedRun{w: w, o: o, m: &measurement{}}
	if o.traced {
		r.tr = newTracer()
	}
	ctx := context.Background()

	// Server side, repeated; the last instance serves the run.
	for i := 0; i < w.serverReps; i++ {
		if r.srv != nil {
			r.srv.close()
		}
		t0 := time.Now()
		srv, err := buildKeyedServer(w, r.tr)
		if err != nil {
			return nil, err
		}
		r.m.serverSetup = append(r.m.serverSetup, time.Since(t0).Seconds())
		r.srv = srv
	}
	defer r.srv.close()
	r.ref = newReference(w, r.srv.model, o.seed)
	var closeIdle func()
	r.cl, r.mt, closeIdle = newMeteredClient(r.srv.http.URL)
	defer closeIdle()
	var err error
	if r.info, err = r.cl.Info(ctx); err != nil {
		return nil, err
	}

	// Client population: keygen + bundle serialization, nproc at a time.
	t0 := time.Now()
	r.ks = make([]*client.KeySet, w.clients)
	err = forEach(w.clients, runtime.NumCPU(), func(i int) error {
		var ks *client.KeySet
		err := r.tr.do("client.keygen", 0, 0, func() (err error) {
			ks, err = client.GenerateKeys(r.info, client.WithSeed(o.seed*1_000_003+100+int64(i)))
			return err
		})
		if err != nil {
			return err
		}
		if err := r.tr.do("client.bundle", 0, 0, func() error { _, err := ks.Bundle(); return err }); err != nil {
			return err
		}
		r.ks[i] = ks
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("client keys: %w", err)
	}
	r.m.clientPhase = time.Since(t0)

	// Warm-up: register and classify once per client, so the measured
	// phase sees prepared evaluation state. Round-robin churn warms none:
	// every one of its requests registers (404 self-heal) and prepares.
	warmN := w.warmed()
	h0 := liveHeapMiB()
	t0 = time.Now()
	err = forEach(warmN, w.inFlight, func(i int) error {
		st := &regStamp{}
		rctx := context.WithValue(ctx, regStampKey{}, st)
		if _, err := r.cl.Register(rctx, r.ks[i]); err != nil {
			return err
		}
		return r.classify(rctx, i, i%imagePool, o.seed*1_000_003+200+int64(i), true)
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.m.warmPhase = time.Since(t0)

	// Measured phase: closed loop, inFlight callers, each starting
	// requests until the deadline and at least minPerCaller of them, so a
	// slow machine still yields a median of more than one sample.
	const minPerCaller = 2
	before := telemetry.Default().Snapshot()
	up0, _, posts0 := r.mt.counts()
	r.m.phaseStart = time.Now()
	deadline := r.m.phaseStart.Add(o.duration)
	_ = forEach(w.inFlight, w.inFlight, func(wk int) error {
		for i := 0; i < minPerCaller || time.Now().Before(deadline); i++ {
			req := wk + i*w.inFlight
			ci := wk % w.clients
			if w.roundRobin {
				ci = (req + warmN) % w.clients
			}
			_ = r.classify(ctx, ci, req%imagePool, o.seed*1_000_003+10_000+int64(req), false)
		}
		return nil
	})
	diff := telemetry.Default().Snapshot().Sub(before)
	up1, keyBytes, posts1 := r.mt.counts()
	r.m.uploadBytes, r.m.uploads = up1-up0, int64(r.m.attempted)
	r.m.registerBytes, r.m.register = keyBytes, posts1
	// Measured at the end rather than after the warm-up, so no forced
	// collection empties the pools the phase runs on: the growth since
	// the client keys were made is the resident clients' server state.
	r.m.heapMiB = liveHeapMiB()
	r.m.serverMiBPerClient = (r.m.heapMiB - h0) / float64(w.resident())
	if r.m.attempted == 0 {
		return nil, fmt.Errorf("no request completed in %v", o.duration)
	}
	if !o.traced {
		return r.m, nil
	}

	// Traced run: registry-derived layer counts come from the measured
	// HTTP phase above; the layer-by-layer replay needs the server's
	// memory back first.
	reg := registryLayers(diff, r.m.ok+r.m.wrong)
	reg["keys.reregister_frac"] = float64(posts1-posts0) / float64(r.m.attempted)
	httpP50 := median(r.m.latencies)
	httpEvalMS := median(r.m.evalMS)
	r.srv.close()
	runtime.GC()
	if err := r.replay(ctx); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	return r.m, r.finishTrace(reg, httpP50, httpEvalMS)
}

// replayEval mirrors serve.Keyed's per-client evaluation state.
type replayEval struct {
	g    *guard.GuardedEngine
	prep *exec.Prepared
}

// replayer calls each layer's public functions in the order the keyed
// handlers and the SDK call them, with a span around every call.
type replayer struct {
	*keyedRun
	store *keys.Store
	wire  *loopback
}

// loopback moves request and response bodies over a real loopback HTTP
// connection to a handler that reads them the way serve.Keyed does
// (io.ReadAll). The replay calls the layers directly, so without it the
// traced request would skip the transport the served request pays —
// for churn, a 359 MiB bundle upload.
type loopback struct {
	srv *httptest.Server
	tr  *http.Transport
	hc  *http.Client
}

func newLoopback() *loopback {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n, _ := strconv.Atoi(r.URL.Query().Get("reply"))
		_, _ = w.Write(make([]byte, n))
	}))
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return &loopback{srv: srv, tr: tr, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (l *loopback) close() {
	l.tr.CloseIdleConnections()
	l.srv.Close()
}

// send posts body and reads a reply of replyBytes, inside a
// serve.transport span.
func (rp *replayer) send(parent, req int, body []byte, replyBytes int) error {
	return rp.tr.do("serve.transport", parent, req, func() error {
		resp, err := rp.wire.hc.Post(rp.wire.srv.URL+"/?reply="+strconv.Itoa(replyBytes), client.ContentTypeCKKS, bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
}

// replay re-runs the workload's request pattern layer by layer: the same
// clients, resident-bundle bound and concurrency, two rounds per caller
// after the same warm-up.
func (r *keyedRun) replay(ctx context.Context) error {
	store, err := keys.NewStore(keys.Config{
		Ctx:               r.srv.ctx,
		RequiredRotations: r.srv.rotations(),
		MaxEntries:        r.w.maxClients,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	rp := &replayer{keyedRun: r, store: store, wire: newLoopback()}
	defer rp.wire.close()
	warmN := r.w.warmed()
	err = forEach(warmN, r.w.inFlight, func(i int) error {
		bundle, _ := r.ks[i].Bundle()
		if err := r.tr.do("keys.register", 0, 0, func() error { _, err := store.Register(bundle); return err }); err != nil {
			return err
		}
		_, err := rp.request(ctx, 0, i, i%imagePool, r.o.seed*1_000_003+200+int64(i))
		return err
	})
	if err != nil {
		return err
	}
	const rounds = 2
	var next sync.Mutex
	reqID := 0
	return forEach(r.w.inFlight, r.w.inFlight, func(wk int) error {
		for i := 0; i < rounds; i++ {
			req := wk + i*r.w.inFlight
			ci := wk % r.w.clients
			if r.w.roundRobin {
				ci = (req + warmN) % r.w.clients
			}
			next.Lock()
			reqID++
			id := reqID
			next.Unlock()
			if _, err := rp.request(ctx, id, ci, req%imagePool, r.o.seed*1_000_003+10_000+int64(req)); err != nil {
				return err
			}
		}
		return nil
	})
}

// request is one SDK round trip, replayed: encrypt and serialize on the
// client, the handler's steps on the server (with the SDK's 404
// re-register and replay), then decode and decrypt.
func (rp *replayer) request(ctx context.Context, req, ci, img int, encSeed int64) ([]float64, error) {
	tr := rp.tr
	root := tr.begin("bench.request", 0, req)
	defer tr.end(root)
	ks := rp.ks[ci]
	fp, err := ks.Fingerprint()
	if err != nil {
		return nil, err
	}
	var cts []*ckks.Ciphertext
	err = tr.do("client.encrypt", root, req, func() error {
		if rp.srv.sp != nil {
			cts, err = ks.EncryptImageShards(rp.srv.sp.Input, rp.ref.images[img], &encSeed)
			return err
		}
		ct, err := ks.EncryptImage(rp.ref.images[img], &encSeed)
		cts = []*ckks.Ciphertext{ct}
		return err
	})
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	err = tr.do("ckks.write_ct", root, req, func() error {
		for _, ct := range cts {
			if err := ks.Context().WriteCiphertext(&body, ct); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := rp.send(root, req, body.Bytes(), 0); err != nil {
		return nil, err
	}
	out, err := rp.handle(ctx, root, req, fp, body.Bytes())
	if errors.Is(err, keys.ErrNotFound) {
		bundle, _ := ks.Bundle()
		if err := rp.send(root, req, bundle, 0); err != nil {
			return nil, err
		}
		if err := tr.do("keys.register", root, req, func() error { _, err := rp.store.Register(bundle); return err }); err != nil {
			return nil, err
		}
		if err := rp.send(root, req, body.Bytes(), 0); err != nil {
			return nil, err
		}
		out, err = rp.handle(ctx, root, req, fp, body.Bytes())
	}
	if err != nil {
		return nil, err
	}
	// The reply leg carries the result ciphertext back.
	if err := rp.send(root, req, nil, len(out)); err != nil {
		return nil, err
	}
	var res *ckks.Ciphertext
	if err := tr.do("ckks.read_result", root, req, func() (err error) {
		res, err = ks.Context().ReadCiphertext(bytes.NewReader(out))
		return err
	}); err != nil {
		return nil, err
	}
	var logits []float64
	if err := tr.do("client.decrypt", root, req, func() (err error) {
		logits, err = ks.DecryptLogits(res, rp.info.OutputDim)
		return err
	}); err != nil {
		return nil, err
	}
	logitErr, wrong := rp.ref.check(img, logits)
	rp.m.checked(logitErr, wrong)
	return logits, nil
}

// handle mirrors serve.Keyed.handleClassifyEncrypted.
func (rp *replayer) handle(ctx context.Context, parent, req int, fp string, payload []byte) ([]byte, error) {
	tr := rp.tr
	h := tr.begin("serve.handle", parent, req)
	defer tr.end(h)
	var entry *keys.Entry
	if err := tr.do("keys.get", h, req, func() (err error) { entry, err = rp.store.Get(fp); return err }); err != nil {
		return nil, err
	}
	shards := 1
	if rp.srv.sp != nil {
		shards = rp.srv.sp.NumShards()
	}
	cts := make([]*ckks.Ciphertext, shards)
	err := tr.do("ckks.read_ct", h, req, func() (err error) {
		body := bytes.NewReader(payload)
		for i := range cts {
			if cts[i], err = rp.srv.ctx.ReadCiphertext(body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	entry.Mu.Lock()
	defer entry.Mu.Unlock()
	ev, err := rp.evalFor(entry, h, req)
	if err != nil {
		return nil, err
	}
	if ev.g.Err() != nil {
		_ = ev.g.Reset()
	}
	adopted := make([]ir.Ct, len(cts))
	err = tr.do("guard.adopt", h, req, func() (err error) {
		for i, ct := range cts {
			if adopted[i], err = ev.g.Adopt(ct); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec := telemetry.NewRunRecorder()
	rctx := telemetry.WithRecorder(ctx, rec)
	ev.g.SetRunContext(rctx)
	defer ev.g.SetRunContext(nil)
	var res *exec.Result
	if err := tr.do("exec.run", h, req, func() (err error) {
		res, err = ev.prep.RunEncrypted(rctx, adopted, exec.Options{})
		return err
	}); err != nil {
		_ = ev.g.Reset()
		return nil, err
	}
	out, ok := guard.Underlying(res.Out).(*ckks.Ciphertext)
	if !ok {
		return nil, fmt.Errorf("unexpected output ciphertext type %T", guard.Underlying(res.Out))
	}
	var buf bytes.Buffer
	if err := tr.do("ckks.write_result", h, req, func() error { return rp.srv.ctx.WriteCiphertext(&buf, out) }); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// evalFor mirrors serve.Keyed.evalFor: an eval-only engine over the
// client's keys, guarded, with the plan lowered and prepared on first
// use. Caller holds entry.Mu.
func (rp *replayer) evalFor(entry *keys.Entry, parent, req int) (*replayEval, error) {
	if ev, ok := entry.Eval.(*replayEval); ok {
		return ev, nil
	}
	tr := rp.tr
	var g *guard.GuardedEngine
	var graph *ir.Graph
	err := tr.do("henn.lower", parent, req, func() (err error) {
		eng := henn.NewRNSEvalEngine(rp.srv.ctx, entry.Bundle.RLK, entry.Bundle.RTK)
		g = guard.New(eng, guard.DefaultConfig())
		graph, err = rp.srv.lower(g)
		return err
	})
	if err != nil {
		return nil, err
	}
	var prep *exec.Prepared
	if err := tr.do("exec.prepare", parent, req, func() (err error) { prep, err = exec.Prepare(g, graph); return err }); err != nil {
		return nil, err
	}
	ev := &replayEval{g: g, prep: prep}
	entry.Eval = ev
	return ev, nil
}

// finishTrace turns the replay's spans and the measured phase's
// registry difference into the per-layer metric set.
func (r *keyedRun) finishTrace(ls layerSet, httpP50, httpEvalMS float64) error {
	bundle, err := r.ks[0].Bundle()
	if err != nil {
		return err
	}
	if err := r.tr.do("ckks.read_bundle", 0, 0, func() error {
		_, err := r.srv.ctx.ReadKeyBundle(bytes.NewReader(bundle))
		return err
	}); err != nil {
		return err
	}
	p := r.srv.ctx.Params
	if err := graphLayers(r.tr, ls, p, r.srv.lower); err != nil {
		return err
	}
	if err := ringLayers(ls, p, r.o.seed); err != nil {
		return err
	}
	root := spanLayers(ls, r.tr.snapshot())
	ls["serve.eval_ms"] = httpEvalMS
	ls["serve.overhead_ms"] = httpP50*1000 - httpEvalMS - ls["client.encrypt_ms"] - ls["client.decrypt_ms"]
	ls["serve.rejected"] = float64(r.m.refused)
	ls["trace_overhead_frac"] = (root.Seconds() - httpP50) / httpP50
	ls["quality.logit_err_max"] = r.m.logitErrMax
	r.m.layers = ls.finalize()
	return writeSpans(r.tr, r.o, r.w.name)
}
