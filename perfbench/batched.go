package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/serve"
	"cnnhe/internal/telemetry"
)

// batchedServer is one serve.Server (the server-held-key micro-batching
// route) behind a loopback listener.
type batchedServer struct {
	model *nn.Model
	bp    *henn.BatchPlan
	ctx   *ckks.Context
	srv   *serve.Server
	http  *httptest.Server
}

// buildBatchedServer does what cmd/heserve does before it listens on
// POST /classify: load, compile the batched plan, build the parameters,
// generate the server's keys, warm the plan and start the batcher with
// heserve's default flags.
func buildBatchedServer(w *workload, seed int64, tr *tracer) (*batchedServer, error) {
	m, err := w.model()
	if err != nil {
		return nil, err
	}
	s := &batchedServer{model: m}
	if err := tr.do("henn.compile", 0, 0, func() (err error) {
		s.bp, err = henn.CompileBatched(m, 1<<(w.logN-1), w.batch)
		return err
	}); err != nil {
		return nil, fmt.Errorf("compiling: %w", err)
	}
	if s.bp.Plan.Opt, err = opt.ParseFlag("on"); err != nil {
		return nil, err
	}
	p, err := chainParams(w.logN, s.bp.Plan.Depth)
	if err != nil {
		return nil, err
	}
	var e *henn.RNSEngine
	if err := tr.do("ckks.server_keygen", 0, 0, func() (err error) {
		e, err = henn.NewRNSEngine(p, s.bp.Plan.Rotations(), seed+7)
		return err
	}); err != nil {
		return nil, err
	}
	s.ctx = e.Ctx
	g := guard.New(e, guard.DefaultConfig())
	// serve.New warms the plan first thing; warming it here under a span
	// leaves serve.New a cache hit and the work unchanged.
	if err := tr.do("exec.prepare", 0, 0, func() error { return s.bp.Plan.Warm(g) }); err != nil {
		return nil, err
	}
	s.srv, err = serve.New(serve.Config{
		Batch: s.bp, Engine: g, MaxWait: 10 * time.Millisecond, RequestTimeout: requestTimeout,
	})
	if err != nil {
		return nil, err
	}
	s.http = httptest.NewServer(s.srv.Handler())
	return s, nil
}

func (s *batchedServer) close() {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // every request has returned; nothing is queued
}

// classify posts one image as JSON and returns the decoded response
// and the HTTP status.
func classifyJSON(ctx context.Context, hc *http.Client, url string, img []float64) (*serve.ClassifyResponse, int, error) {
	body, err := json.Marshal(serve.ClassifyRequest{Image: img})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/classify", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("POST /classify: %s", resp.Status)
	}
	var out serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return &out, resp.StatusCode, nil
}

// openLoop sends n requests on a seeded schedule at mean rate, at most
// limit in flight (a send that finds them all busy waits, and the wait
// is counted as generator lag), and calls send for each with its
// arrival record. It returns when every request has finished.
func openLoop(n int, rate float64, seed int64, limit int, start time.Time, send func(i int, a *arrival)) []arrival {
	rng := seededRand(seed, 300)
	sched := openSchedule(n, rate, rng.Float64)
	arrivals := make([]arrival, n)
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i, at := range sched {
		due := start.Add(at)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		arrivals[i].Due, arrivals[i].Sent = due, time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			send(i, &arrivals[i])
			arrivals[i].Done = time.Now()
		}(i)
	}
	wg.Wait()
	return arrivals
}

// arrivalsFor is how many open-loop requests fit the measured phase at
// rate (at least two, so a run always has a median of a pair).
func arrivalsFor(d time.Duration, rate float64) int {
	return max(2, int(math.Ceil(d.Seconds()*rate)))
}

func runBatched(w *workload, o opts) (*measurement, error) {
	m := &measurement{}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	// Server side, repeated; the last instance serves the run. Each
	// instance holds its own keys and the previous one is released first,
	// so the live heap grown over the whole set-up is what the route's
	// one key holder (the server) costs.
	var s *batchedServer
	h0 := liveHeapMiB()
	for i := 0; i < w.serverReps; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		t0 := time.Now()
		var err error
		if s, err = buildBatchedServer(w, o.seed, tr); err != nil {
			return nil, err
		}
		m.serverSetup = append(m.serverSetup, time.Since(t0).Seconds())
	}
	defer s.close()
	rotations := s.bp.Plan.Rotations()
	m.registerBytes, m.register = int64(s.ctx.KeyBundleWireSize(len(rotations))), 1
	ref := newReference(w, s.model, o.seed)

	hcTransport := http.DefaultTransport.(*http.Transport).Clone()
	defer hcTransport.CloseIdleConnections()
	mt := &meter{base: hcTransport}
	hc := &http.Client{Transport: mt, Timeout: requestTimeout}
	ctx := context.Background()

	before := telemetry.Default().Snapshot()
	n := arrivalsFor(o.duration, w.rate)
	m.phaseStart = time.Now()
	arrivals := openLoop(n, w.rate, o.seed, runtime.NumCPU(), m.phaseStart, func(i int, a *arrival) {
		img := i % imagePool
		resp, status, err := classifyJSON(ctx, hc, s.http.URL, ref.images[img])
		done := time.Now()
		if err != nil {
			m.failure(status == http.StatusTooManyRequests, err, o.log)
			return
		}
		logitErr, wrong := ref.check(img, resp.Logits)
		m.sample(done, done.Sub(a.Due), resp.EvalMillis, logitErr, wrong)
		if i == 0 {
			m.firstResult(done.Sub(a.Due))
		}
	})
	if m.attempted == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	for _, a := range arrivals {
		m.lags = append(m.lags, millis(a.Lag()))
	}
	diff := telemetry.Default().Snapshot().Sub(before)
	up, _, _ := mt.counts()
	m.uploadBytes, m.uploads = up, int64(m.attempted)
	m.heapMiB = liveHeapMiB()
	m.serverMiBPerClient = m.heapMiB - h0
	if !o.traced {
		return m, nil
	}

	ls := registryLayers(diff, m.ok+m.wrong)
	ls["serve.batch_fill"] /= float64(w.batch)
	httpP50, httpEvalMS := median(m.latencies), median(m.evalMS)
	if err := replayBatched(tr, s, ref, m, w, o); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := graphLayers(tr, ls, s.ctx.Params, s.bp.Plan.Lower); err != nil {
		return nil, err
	}
	if err := ringLayers(ls, s.ctx.Params, o.seed); err != nil {
		return nil, err
	}
	root := spanLayers(ls, tr.snapshot())
	ls["serve.eval_ms"] = httpEvalMS
	ls["serve.overhead_ms"] = httpP50*1000 - httpEvalMS
	ls["serve.rejected"] = float64(m.refused)
	ls["loadgen.lag_ms"] = median(m.lags)
	ls["trace_overhead_frac"] = (root.Seconds() - httpP50) / httpP50
	ls["quality.logit_err_max"] = m.logitErrMax
	m.layers = ls.finalize()
	return m, writeSpans(tr, o, w.name)
}

// replayBatched re-runs the open loop layer by layer: the handler's JSON
// decode, serve.Server.Submit (queue, batching and the shared batch
// evaluation, whose server-reported time is placed as an exec span at
// the end of Submit), and the response encode, with the client's
// encode/decode around them.
func replayBatched(tr *tracer, s *batchedServer, ref *reference, m *measurement, w *workload, o opts) error {
	n := 2
	var mu sync.Mutex
	var firstErr error
	openLoop(n, w.rate, o.seed+1, runtime.NumCPU(), time.Now(), func(i int, a *arrival) {
		err := replayBatchedRequest(tr, s, ref, m, i+1, i%imagePool)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

func replayBatchedRequest(tr *tracer, s *batchedServer, ref *reference, m *measurement, req, img int) error {
	root := tr.begin("bench.request", 0, req)
	defer tr.end(root)
	var body []byte
	if err := tr.do("client.encode_json", root, req, func() (err error) {
		body, err = json.Marshal(serve.ClassifyRequest{Image: ref.images[img]})
		return err
	}); err != nil {
		return err
	}
	var in serve.ClassifyRequest
	if err := tr.do("serve.decode_json", root, req, func() error { return json.Unmarshal(body, &in) }); err != nil {
		return err
	}
	sub := tr.begin("serve.submit", root, req)
	logits, info, err := s.srv.Submit(context.Background(), in.Image)
	tr.add("exec.batch_eval", sub, req, time.Now(), info.Eval)
	tr.end(sub)
	if err != nil {
		return err
	}
	var out []byte
	if err := tr.do("serve.encode_json", root, req, func() (err error) {
		out, err = json.Marshal(serve.ClassifyResponse{Class: logits.Argmax(), Logits: logits, BatchSize: info.Size})
		return err
	}); err != nil {
		return err
	}
	var resp serve.ClassifyResponse
	if err := tr.do("client.decode_json", root, req, func() error { return json.Unmarshal(out, &resp) }); err != nil {
		return err
	}
	logitErr, wrong := ref.check(img, resp.Logits)
	m.checked(logitErr, wrong)
	return nil
}
