package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/dataset"
	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

// cnn1Path is the committed MNIST CNN1 (SLAF) model every workload serves.
const cnn1Path = "models/cnn1-slaf-n6000-s1.gob"

// logitTol is the absolute HE-vs-plaintext logit tolerance the repo's
// encrypted-inference tests use (internal/henn, internal/serve). A
// result is wrong when any logit is further than this from the
// plaintext model's, or when its argmax differs while the plaintext
// top-2 margin exceeds 2·logitTol.
const logitTol = 0.05

// workload is one seeded traffic mix against one route.
type workload struct {
	name string
	// model loads the served model; shape is its input tensor (C, H, W).
	model func() (*nn.Model, error)
	shape [3]int
	// images draws the seeded request images (raw pixels in [0, 255]).
	images func(n int, seed int64) [][]float64
	logN   int
	grid   string // shard grid, "1x1" when unsharded

	// Keyed route (serve.Keyed): clients key holders, at most
	// maxClients resident bundles (0 = store default), inFlight
	// concurrent closed-loop callers. roundRobin sends one request at a
	// time cycling through more clients than the store holds, with none
	// registered in set-up, so every request finds its bundle missing.
	keyed      bool
	sharded    bool
	clients    int
	maxClients int
	inFlight   int
	roundRobin bool

	// Batched route (serve.Server): batch capacity and the open-loop
	// mean arrival rate in images per second.
	batch int
	rate  float64

	// serverReps is how many times the server side is set up; setup_s
	// takes the median.
	serverReps int
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and
// README.md give the reason for each.
var workloads = []*workload{
	{
		name: "keyed-cnn1", model: loadCNN1, shape: [3]int{1, 28, 28}, images: mnistImages,
		logN: 11, grid: "1x1",
		keyed: true, clients: 2, inFlight: 2, serverReps: 3,
	},
	{
		name: "keyed-churn", model: loadCNN1, shape: [3]int{1, 28, 28}, images: mnistImages,
		logN: 11, grid: "1x1",
		keyed: true, clients: 2, maxClients: 1, inFlight: 1, roundRobin: true, serverReps: 3,
	},
	{
		name: "batched-open", model: loadCNN1, shape: [3]int{1, 28, 28}, images: mnistImages,
		logN: 12, grid: "1x1",
		// About 40% of the route's 2-in-flight capacity (~0.31 images/s on
		// 2 cores). At 50% one arrival lands per batch evaluation, so the
		// evaluator is saturated by half-full batches and queue waits
		// swing with the machine's speed rather than the server's.
		batch: 2, rate: 0.12, serverReps: 2,
	},
	{
		name: "keyed-sharded", model: loadCNN1, shape: [3]int{1, 28, 28}, images: mnistImages,
		logN: 10, grid: "2x1",
		keyed: true, sharded: true, clients: 1, inFlight: 1, serverReps: 3,
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// warmed is how many keyed clients register and classify once during
// set-up.
func (w *workload) warmed() int {
	if w.roundRobin {
		return 0
	}
	return w.clients
}

// resident is how many keyed clients' bundles the store holds at the
// end of a run.
func (w *workload) resident() int {
	if w.maxClients > 0 {
		return min(w.clients, w.maxClients)
	}
	return w.clients
}

func (w *workload) run(o opts) (*measurement, error) {
	if w.keyed {
		return runKeyed(w, o)
	}
	return runBatched(w, o)
}

func loadCNN1() (*nn.Model, error) {
	m, arch, err := nn.LoadModel(cnn1Path)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", cnn1Path, err)
	}
	if arch != "cnn1" {
		return nil, fmt.Errorf("%s holds %q, want cnn1", cnn1Path, arch)
	}
	return m, nil
}

// mnistImages draws n synthetic MNIST digits from seed (the repo's
// offline dataset; no download).
func mnistImages(n int, seed int64) [][]float64 {
	ds := dataset.SyntheticMNIST(n, seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = ds.Image(i)
	}
	return out
}

// chainParams builds cmd/heserve's parameter shape: 40-bit base prime,
// 26-bit rescaling primes, 40-bit top, one 60-bit special prime, scale
// 2^26, with max(depth + 1, 13) ciphertext primes (heserve's automatic
// chain length).
func chainParams(logN, depth int) (ckks.Parameters, error) {
	k := max(depth+1, 13)
	bits := []int{40}
	for i := 0; i < k-2; i++ {
		bits = append(bits, 26)
	}
	bits = append(bits, 40)
	p, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(26))
	if err != nil {
		return ckks.Parameters{}, fmt.Errorf("building CKKS parameters: %w", err)
	}
	if depth > p.MaxLevel() {
		return ckks.Parameters{}, fmt.Errorf("plan needs %d levels, chain gives %d", depth, p.MaxLevel())
	}
	return p, nil
}

// reference holds the request images and the plaintext model's logits
// for each.
type reference struct {
	images [][]float64
	logits [][]float64
}

// imagePool is how many distinct images a run cycles through.
const imagePool = 32

func newReference(w *workload, m *nn.Model, seed int64) *reference {
	r := &reference{images: w.images(imagePool, seed)}
	for _, img := range r.images {
		x := tensor.New(w.shape[0], w.shape[1], w.shape[2])
		for i, v := range img {
			x.Data[i] = v / 255
		}
		r.logits = append(r.logits, append([]float64(nil), m.Forward(x).Data...))
	}
	return r
}

// check compares HE logits for image i with the plaintext model's and
// returns the max absolute error and whether the output is wrong.
func (r *reference) check(i int, got []float64) (float64, bool) {
	want := r.logits[i]
	errMax := maxAbsDiff(got, want)
	if !(errMax <= logitTol) {
		return errMax, true
	}
	return errMax, top2Margin(want) > 2*logitTol && argmax(got) != argmax(want)
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func top2Margin(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return math.Inf(1)
	}
	return s[len(s)-1] - s[len(s)-2]
}

// liveHeapMiB forces collections and returns the live heap. The second
// cycle frees what only the first one's sweep made unreachable.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// seededRand derives an independent stream for one purpose from the run
// seed, so adding a draw for one purpose leaves the others unchanged.
func seededRand(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// measurement accumulates one run's samples. Methods are safe for
// concurrent use by the load generator's workers.
type measurement struct {
	mu sync.Mutex

	serverSetup []float64 // seconds, one per repeat
	clientPhase time.Duration
	warmPhase   time.Duration

	attempted, failed, refused, wrong int
	latencies                         []float64 // seconds, successful requests
	evalMS                            []float64 // server-reported evaluation time
	firstResults                      []float64 // seconds, registration → first logits
	lags                              []float64 // ms, open loop only
	logitErrMax                       float64
	phaseStart, lastDone              time.Time
	ok                                int

	uploadBytes, uploads    int64 // classify request bodies
	registerBytes, register int64 // key-bundle uploads

	serverMiBPerClient float64
	heapMiB            float64

	layers map[string]metric // per-layer metrics (traced runs)
	tail   tail
}

// sample records one finished request.
func (m *measurement) sample(done time.Time, lat time.Duration, evalMS, logitErr float64, wrong bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	m.logitErrMax = math.Max(m.logitErrMax, logitErr)
	if wrong {
		m.wrong++
		return
	}
	m.ok++
	m.latencies = append(m.latencies, lat.Seconds())
	m.evalMS = append(m.evalMS, evalMS)
	if done.After(m.lastDone) {
		m.lastDone = done
	}
}

// checked records the correctness of an output that is not a latency
// sample (warm-up and traced replay requests).
func (m *measurement) checked(logitErr float64, wrong bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logitErrMax = math.Max(m.logitErrMax, logitErr)
	if wrong {
		m.attempted++
		m.wrong++
	}
}

// firstResult records one registration → first decrypted logits time.
func (m *measurement) firstResult(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.firstResults = append(m.firstResults, d.Seconds())
}

// failure records a request that errored (refused = turned away by
// admission control).
func (m *measurement) failure(refused bool, err error, log io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if refused {
		m.refused++
	} else {
		m.failed++
	}
	fmt.Fprintf(log, "perfbench: request failed: %v\n", err)
}

func (m *measurement) setupS() float64 {
	return median(m.serverSetup) + m.clientPhase.Seconds() + m.warmPhase.Seconds()
}

func (m *measurement) imagesPerS() float64 {
	wall := m.lastDone.Sub(m.phaseStart).Seconds()
	if m.ok == 0 || wall <= 0 {
		return 0
	}
	return float64(m.ok) / wall
}

// result renders the stdout JSON for the requested metric set.
func (m *measurement) result(traced bool) result {
	metrics := m.layers
	if !traced {
		m.tail = tailOf(m.latencies)
		metrics = map[string]metric{
			"setup_s":               {m.setupS(), "s"},
			"latency_p50_s":         {median(m.latencies), "s"},
			"latency_tail_s":        {m.tail.Value, "s"},
			"images_per_s":          {m.imagesPerS(), "1/s"},
			"first_result_s":        {median(m.firstResults), "s"},
			"upload_kib_per_image":  {float64(m.uploadBytes) / 1024 / float64(max(m.uploads, 1)), "KiB"},
			"register_mib":          {float64(m.registerBytes) / (1 << 20) / float64(max(m.register, 1)), "MiB"},
			"server_mib_per_client": {m.serverMiBPerClient, "MiB"},
			"heap_mib":              {m.heapMiB, "MiB"},
		}
	}
	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			metrics[k] = v
		}
	}
	return result{
		Correct:   m.wrong == 0,
		Attempted: m.attempted,
		Failed:    m.failed + m.refused + m.wrong,
		Metrics:   metrics,
	}
}

// failFrac is (failed + refused + wrong) / attempted.
func (m *measurement) failFrac() float64 {
	if m.attempted == 0 {
		return 0
	}
	return float64(m.failed+m.refused+m.wrong) / float64(m.attempted)
}

// extra is what the report file carries beyond the stdout metrics.
func (m *measurement) extra() map[string]any {
	return map[string]any{
		"fail_frac":           m.failFrac(),
		"failed":              m.failed,
		"refused":             m.refused,
		"wrong":               m.wrong,
		"ok":                  m.ok,
		"latency_tail_pct":    m.tail.Percentile,
		"latency_tail_n":      m.tail.N,
		"latency_tail_beyond": m.tail.Beyond,
		"latencies_s":         m.latencies,
		"first_results_s":     m.firstResults,
		"server_setup_s":      m.serverSetup,
		"client_phase_s":      m.clientPhase.Seconds(),
		"warm_phase_s":        m.warmPhase.Seconds(),
		"logit_err_max":       m.logitErrMax,
	}
}

// summary prints the human-readable lines: every metric with its unit,
// the failure fraction with both counts, and the tail's percentile.
func (m *measurement) summary(w io.Writer) {
	fmt.Fprintf(w, "perfbench: fail_frac %.4f (%d failed + %d refused + %d wrong of %d attempted)\n",
		m.failFrac(), m.failed, m.refused, m.wrong, m.attempted)
	if m.layers == nil {
		note := ""
		if m.tail.Beyond < tailBeyond {
			note = ", fewer than 11 samples: maximum"
		}
		fmt.Fprintf(w, "perfbench: latency_tail_s is p%.1f of n=%d (%d beyond%s)\n",
			m.tail.Percentile, m.tail.N, m.tail.Beyond, note)
	}
}
