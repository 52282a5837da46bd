// Command heserve is the micro-batching encrypted-inference daemon: it
// accepts single-image classification requests over HTTP, aggregates
// them into packed micro-batches (the paper's SIMD amortization, Table
// I), evaluates each batch as one ciphertext through the shared
// prepared op graph under the guard runtime, and fans the per-block
// logits back out to the waiting requests.
//
// Endpoints:
//
//	POST /classify       {"image": [pixels in [0,255], length 784]}
//	                     → {"class", "logits", "batch_size", "eval_ms"}
//	GET  /healthz        liveness (503 once draining)
//	GET  /v1/info        plan + CKKS parameter manifest (rns backend)
//	POST /v1/keys        register a client evaluation-key bundle
//	POST /v1/classify/encrypted
//	                     ciphertext in, encrypted logits out — evaluated
//	                     under the client's keys; the server holds no
//	                     secret key on this path (see hectl)
//	GET  /metrics        Prometheus text (queue depth, batch fill ratio,
//	                     request/batch latency histograms, …)
//	GET  /metrics.json   the same snapshot as JSON
//	GET  /debug/pprof/   live profiling
//
// Overload returns 429 with a Retry-After hint instead of queueing
// without bound; SIGINT/SIGTERM stops intake, drains queued requests
// through final batches, and exits cleanly.
//
// Usage:
//
//	heserve -model models/cnn1.gob -addr localhost:8000 [-batch 4]
//	        [-logn 12] [-levels 0] [-backend rns|big] [-max-wait 10ms]
//	        [-queue 16] [-request-timeout 2m] [-target-latency 0]
//	        [-max-clients 16] [-key-ttl 0] [-key-store dir]
//	        [-chaos spec] [-chaos-seed 1] [-log-level info]
//
// -key-store makes registered client key bundles durable: each bundle is
// snapshotted to the directory and re-verified on restart, so a killed
// worker comes back still knowing its clients. -chaos wraps the listener
// with seeded network-fault injection (see internal/chaos) for soak and
// chaos testing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"cnnhe/internal/chaos"
	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/ring"
	"cnnhe/internal/serve"
	"cnnhe/internal/telemetry"
)

// parseLevel maps a -log-level flag value to a slog level.
func parseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	}
	return slog.LevelInfo
}

// buildEngine mirrors heinfer's parameter construction: a modulus chain
// sized to the plan's depth at the requested ring degree, wrapped in the
// guard so failures classify instead of decrypting to garbage. levels
// pins the chain's usable depth (0 = automatic: max(plan depth, 12)).
// For the rns backend the inner engine's CKKS context is also returned,
// so the encrypted key-holder routes can share the exact instantiation.
func buildEngine(depth int, rotations []int, backend string, logN, levels int, seed int64) (henn.Engine, *ckks.Context, error) {
	k := depth + 1
	if k < 13 {
		k = 13
	}
	if levels > 0 {
		k = levels + 1
	}
	bits := []int{40}
	for i := 0; i < k-2; i++ {
		bits = append(bits, 26)
	}
	bits = append(bits, 40)
	params, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(26))
	if err != nil {
		return nil, nil, fmt.Errorf("building CKKS parameters: %w", err)
	}
	if depth > params.MaxLevel() {
		return nil, nil, fmt.Errorf("plan needs %d levels but the modulus chain provides %d", depth, params.MaxLevel())
	}
	var inner henn.Engine
	var rnsCtx *ckks.Context
	switch backend {
	case "rns":
		e, err := henn.NewRNSEngine(params, rotations, seed+7)
		if err != nil {
			return nil, nil, err
		}
		inner, rnsCtx = e, e.Ctx
	case "big":
		bp, err := ckksbig.FromRNSParameters(params)
		if err != nil {
			return nil, nil, err
		}
		e, err := henn.NewBigEngine(bp, rotations, seed+7)
		if err != nil {
			return nil, nil, err
		}
		inner = e
	default:
		return nil, nil, fmt.Errorf("unknown backend %q", backend)
	}
	return guard.New(inner, guard.DefaultConfig()), rnsCtx, nil
}

// shardedClassifyHandler serves the single-image plaintext JSON route
// for a sharded plan. No micro-batching: an image larger than the slot
// count cannot share a ciphertext with another, so requests evaluate one
// at a time (the mutex also keeps the guarded engine single-threaded).
func shardedClassifyHandler(sp *henn.ShardedPlan, e henn.Engine, timeout time.Duration) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON := func(status int, v any) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(v)
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
			return
		}
		var in struct {
			Image []float64 `json:"image"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22)).Decode(&in); err != nil {
			writeJSON(http.StatusBadRequest, map[string]string{"error": "decoding request: " + err.Error()})
			return
		}
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		mu.Lock()
		logits, rep, err := sp.InferCtx(ctx, e, in.Image)
		mu.Unlock()
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, henn.ErrBadInput) {
				status = http.StatusBadRequest
			} else if errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			writeJSON(status, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(http.StatusOK, map[string]any{
			"class":      logits.Argmax(),
			"logits":     []float64(logits),
			"batch_size": 1,
			"eval_ms":    float64(rep.Eval) / float64(time.Millisecond),
		})
	})
}

func main() {
	var (
		modelPath  = flag.String("model", "models/cnn1.gob", "trained SLAF model (.gob)")
		addr       = flag.String("addr", "localhost:8000", "HTTP listen address")
		batch      = flag.Int("batch", 4, "images packed per ciphertext (must divide the slot count)")
		logN       = flag.Int("logn", 12, "ring degree exponent (14 = paper scale)")
		levels     = flag.Int("levels", 0, "usable modulus-chain depth (0 = auto from plan depth)")
		backend    = flag.String("backend", "rns", "rns (CKKS-RNS) or big (multiprecision CKKS)")
		seed       = flag.Int64("seed", 1, "random seed")
		maxWait    = flag.Duration("max-wait", 10*time.Millisecond, "max time the oldest request waits for its batch to fill")
		queueSize  = flag.Int("queue", 0, "request queue capacity (0 = 4×batch); a full queue answers 429")
		reqTimeout = flag.Duration("request-timeout", 2*time.Minute, "per-request deadline, queue wait included (0 = none)")
		drainWait  = flag.Duration("drain-timeout", time.Minute, "shutdown budget for draining queued requests")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		maxClients = flag.Int("max-clients", 0, "registered key bundles kept (0 = default, LRU beyond)")
		keyTTL     = flag.Duration("key-ttl", 0, "idle expiry for registered key bundles (0 = none)")
		keyStore   = flag.String("key-store", "", "directory for durable key-bundle snapshots (empty = in-memory only)")
		targetLat  = flag.Duration("target-latency", 0, "batch-latency SLO driving adaptive admission (0 = request-timeout/2)")
		chaosSpec  = flag.String("chaos", "", "network fault spec, e.g. 'latency:ms=100:p=0.3,reset:p=0.05' (testing only)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for -chaos fault randomness")
		optFlag    = flag.String("opt", "on", "graph optimizer: on, off, exact, or a comma-separated pass list")
		ringPar    = flag.Bool("ring-parallel", ring.ParallelDefault(), "limb/slab-parallel ring kernels (default: on when GOMAXPROCS > 1)")
	)
	flag.Parse()

	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr,
		&slog.HandlerOptions{Level: parseLevel(*logLevel)})))
	ring.SetParallelDefault(*ringPar)
	slog.Info("ring kernels", "ring_parallel", *ringPar, "gomaxprocs", runtime.GOMAXPROCS(0))
	fatal := func(msg string, args ...any) {
		slog.Error(msg, args...)
		os.Exit(1)
	}

	// The serving instruments register on the default registry; enable
	// collection before the server resolves them.
	telemetry.SetEnabled(true)

	model, arch, err := nn.LoadModel(*modelPath)
	if err != nil {
		fatal("loading model failed (run hetrain first)", "model", *modelPath, "err", err)
	}
	slots := 1 << (*logN - 1)
	optOpts, err := opt.ParseFlag(*optFlag)
	if err != nil {
		fatal("bad -opt flag", "opt", *optFlag, "err", err)
	}

	// CompileShardedAuto decides the serving shape: a 1×1 grid keeps the
	// micro-batching path; a model whose input tensor exceeds the slot
	// count (CNN3 on CIFAR-10) serves through the sharded pipeline, where
	// each image travels as NumShards ciphertexts.
	sp, err := henn.CompileShardedAuto(model, slots)
	if err != nil {
		fatal("compiling plan failed", "model", *modelPath, "err", err)
	}

	mux := http.NewServeMux()
	var srv *serve.Server // micro-batching server; nil in sharded mode
	var engine henn.Engine
	batchSize := *batch
	if sp.NumShards() > 1 {
		if *batch != 1 {
			slog.Info("sharded plan serves single-image requests; ignoring -batch", "batch", *batch)
		}
		batchSize = 1
		sp.Opt = optOpts
		slog.Info("compiled sharded plan", "model", arch, "slots", slots,
			"shards", sp.NumShards(), "manifest", sp.Input.String(),
			"depth", sp.Depth, "optimizer", optOpts.Setting())
		var rnsCtx *ckks.Context
		engine, rnsCtx, err = buildEngine(sp.Depth, sp.Rotations(), *backend, *logN, *levels, *seed)
		if err != nil {
			fatal("creating engine failed", "backend", *backend, "err", err)
		}
		t0 := time.Now()
		if err := sp.Warm(engine); err != nil {
			fatal("warming sharded plan failed", "err", err)
		}
		slog.Info("plan warmed", "in", time.Since(t0).Round(time.Millisecond))
		mux.Handle("/classify", shardedClassifyHandler(sp, engine, *reqTimeout))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		})
		if rnsCtx != nil {
			keyed, err := serve.NewKeyed(serve.KeyedConfig{
				Ctx:            rnsCtx,
				Sharded:        sp,
				Model:          arch,
				Backend:        engine.Name(),
				MaxClients:     *maxClients,
				KeyTTL:         *keyTTL,
				StoreDir:       *keyStore,
				RequestTimeout: *reqTimeout,
			})
			if err != nil {
				fatal("starting keyed routes failed", "err", err)
			}
			defer keyed.Close()
			keyed.Routes(mux)
			slog.Info("encrypted key-holder routes mounted", "shards", sp.NumShards(),
				"rotations", len(sp.Rotations()), "max_clients", *maxClients,
				"key_store", *keyStore, "resident_bundles", keyed.Store().Len(),
				"optimizer", keyed.OptResult().Summary())
		}
	} else {
		bp, err := henn.CompileBatched(model, slots, *batch)
		if err != nil {
			fatal("compiling batched plan failed", "model", *modelPath, "batch", *batch, "err", err)
		}
		bp.Plan.Opt = optOpts
		slog.Info("compiled batched plan", "model", arch, "slots", slots,
			"batch", bp.Batch, "block", bp.BlockSize, "depth", bp.Plan.Depth,
			"optimizer", optOpts.Setting())

		var rnsCtx *ckks.Context
		engine, rnsCtx, err = buildEngine(bp.Plan.Depth, bp.Plan.Rotations(), *backend, *logN, *levels, *seed)
		if err != nil {
			fatal("creating engine failed", "backend", *backend, "err", err)
		}

		// New warms the plan (lowering + ahead-of-time plaintext encoding),
		// so startup pays the one-time cost, not the first request.
		t0 := time.Now()
		srv, err = serve.New(serve.Config{
			Batch:          bp,
			Engine:         engine,
			MaxWait:        *maxWait,
			QueueSize:      *queueSize,
			RequestTimeout: *reqTimeout,
			TargetLatency:  *targetLat,
		})
		if err != nil {
			fatal("starting batch server failed", "err", err)
		}
		slog.Info("plan warmed", "in", time.Since(t0).Round(time.Millisecond))
		batchSize = bp.Batch

		mux.Handle("/classify", srv.Handler())
		mux.Handle("/healthz", srv.Handler())

		// The client-held-key protocol: /v1/info, /v1/keys and
		// /v1/classify/encrypted. rns backend only — the encrypted route
		// evaluates on an eval-only RNS engine built from each client's
		// registered bundle, so the server never holds a key that could
		// decrypt what it computes on.
		if rnsCtx != nil {
			base, err := henn.Compile(model, slots)
			if err != nil {
				fatal("compiling single-image plan failed", "model", *modelPath, "err", err)
			}
			base.Opt = optOpts
			keyed, err := serve.NewKeyed(serve.KeyedConfig{
				Ctx:            rnsCtx,
				Plan:           base,
				Model:          arch,
				Backend:        engine.Name(),
				MaxClients:     *maxClients,
				KeyTTL:         *keyTTL,
				StoreDir:       *keyStore,
				RequestTimeout: *reqTimeout,
			})
			if err != nil {
				fatal("starting keyed routes failed", "err", err)
			}
			defer keyed.Close()
			keyed.Routes(mux)
			slog.Info("encrypted key-holder routes mounted",
				"rotations", len(base.Rotations()), "max_clients", *maxClients,
				"key_store", *keyStore, "resident_bundles", keyed.Store().Len(),
				"optimizer", keyed.OptResult().Summary())
		}
	}

	tmux := telemetry.Handler(telemetry.Default())
	mux.Handle("/metrics", tmux)
	mux.Handle("/metrics.json", tmux)
	mux.Handle("/debug/", tmux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listening failed", "addr", *addr, "err", err)
	}
	if *chaosSpec != "" {
		inj, cerr := chaos.Parse(*chaosSpec, *chaosSeed)
		if cerr != nil {
			fatal("parsing -chaos spec failed", "spec", *chaosSpec, "err", cerr)
		}
		ln = inj.WrapListener(ln)
		slog.Warn("chaos fault injection armed on the listener",
			"spec", *chaosSpec, "seed", *chaosSeed)
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	slog.Info("heserve listening", "url", "http://"+*addr,
		"batch", batchSize, "max_wait", *maxWait, "backend", engine.Name())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fatal("http server failed", "err", err)
	case <-ctx.Done():
	}

	// Graceful stop: close the HTTP listener first (in-flight handlers
	// keep waiting on their batches), then drain the micro-batch queue.
	// The drain budget is a bound, not a promise: when it expires the
	// daemon force-closes the remaining connections and exits anyway —
	// a hung batch must not wedge shutdown.
	slog.Info("shutting down: draining in-flight batches", "budget", *drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Warn("http shutdown incomplete", "err", err)
	}
	if srv == nil {
		slog.Info("drained, exiting")
		return
	}
	if err := srv.Shutdown(dctx); err != nil {
		slog.Warn("drain budget exceeded; force-closing remaining connections",
			"budget", *drainWait, "err", err)
		_ = httpSrv.Close()
	} else {
		slog.Info("drained, exiting")
	}
}
