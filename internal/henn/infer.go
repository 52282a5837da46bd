package henn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/rnsdec"
	"cnnhe/internal/telemetry"
)

// ErrBadInput tags input-validation failures: mis-sized images, label/image
// length mismatches, and other caller errors detected before any
// homomorphic work is done. Match with errors.Is.
var ErrBadInput = errors.New("henn: bad input")

func badInput(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrBadInput, fmt.Sprintf(format, args...))
}

// Logits is the decrypted output of an encrypted classification.
type Logits []float64

// Argmax returns the predicted class: the lowest index holding the
// maximum logit. NaN entries are skipped — every `x > NaN` comparison is
// false, so a naive scan seeded at index 0 would report class 0 whenever
// l[0] is NaN regardless of the remaining logits. When every entry is
// NaN (or l is empty) it returns 0, deterministically.
func (l Logits) Argmax() int {
	best := -1
	for i, v := range l {
		if math.IsNaN(v) {
			continue
		}
		if best < 0 || v > l[best] {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// StageAware is optionally implemented by engines (notably
// guard.GuardedEngine) that label their errors with the pipeline stage
// currently being evaluated. InferCtx announces each stage before
// evaluating it.
type StageAware interface {
	BeginStage(name string)
}

// NoiseAware is optionally implemented by engines that track a
// per-ciphertext noise-budget estimate. NoiseBits returns
// log2(scale/noiseBound) — the significant fractional bits remaining.
type NoiseAware interface {
	NoiseBits(ct Ct) float64
}

// StageReport records one pipeline step of an InferCtx run.
type StageReport struct {
	Stage    string
	Duration time.Duration
	// Level and Scale are the ciphertext metadata after the stage.
	Level int
	Scale float64
	// NoiseBits is the engine's remaining precision estimate after the
	// stage (NaN when the engine does not track noise).
	NoiseBits float64
}

// Report is the per-stage account of one inference: timings for the
// client-side encrypt/decrypt halves, the server-side evaluation total
// (the paper's classification latency), and one row per stage.
type Report struct {
	Engine  string
	Encrypt time.Duration
	Eval    time.Duration
	Decrypt time.Duration
	Stages  []StageReport
	// FailedStage names the stage that errored ("" on success).
	FailedStage string
}

// String renders the report as a small table.
func (r *Report) String() string {
	s := fmt.Sprintf("engine %s: encrypt %v, eval %v, decrypt %v\n", r.Engine, r.Encrypt, r.Eval, r.Decrypt)
	for _, st := range r.Stages {
		s += fmt.Sprintf("  %-56s %10v  level %d", st.Stage, st.Duration.Round(time.Microsecond), st.Level)
		if !math.IsNaN(st.NoiseBits) {
			s += fmt.Sprintf("  noise budget %.1f bits", st.NoiseBits)
		}
		s += "\n"
	}
	if r.FailedStage != "" {
		s += fmt.Sprintf("  FAILED at %s\n", r.FailedStage)
	}
	return s
}

// evalGuarded runs f, converting panics — engine misuse assertions and
// guard-engine aborts — into errors. A recovered value that already is an
// error (e.g. *guard.StageError) is returned as-is so callers can classify
// it with errors.Is/errors.As.
func evalGuarded(stage string, f func() Ct) (ct Ct, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("henn: panic in %s: %v", stage, r)
			}
		}
	}()
	return f(), nil
}

// stageRunner factors the per-stage bookkeeping shared by the plain and
// RNS inference paths: context checks before every stage, stage
// announcement to StageAware engines, and panic-to-error conversion.
type stageRunner struct {
	ctx context.Context
	e   Engine
	sa  StageAware
	na  NoiseAware
	rep *Report
}

func newStageRunner(ctx context.Context, e Engine, rep *Report) *stageRunner {
	sr := &stageRunner{ctx: ctx, e: e, rep: rep}
	sr.sa, _ = e.(StageAware)
	sr.na, _ = e.(NoiseAware)
	return sr
}

// step evaluates one named stage. On failure the report's FailedStage is
// set and a classified error is returned.
func (sr *stageRunner) step(name string, f func() Ct) (Ct, error) {
	if err := sr.ctx.Err(); err != nil {
		sr.rep.FailedStage = name
		return nil, fmt.Errorf("henn: %s: %w", name, err)
	}
	if sr.sa != nil {
		sr.sa.BeginStage(name)
	}
	ct, err := evalGuarded(name, f)
	if err != nil {
		sr.rep.FailedStage = name
	}
	return ct, err
}

// record appends a stage row for ct to the report.
func (sr *stageRunner) record(name string, d time.Duration, ct Ct) {
	row := StageReport{Stage: name, Duration: d, Level: sr.e.Level(ct), Scale: sr.e.ScaleOf(ct), NoiseBits: math.NaN()}
	if sr.na != nil {
		row.NoiseBits = sr.na.NoiseBits(ct)
	}
	sr.rep.Stages = append(sr.rep.Stages, row)
}

// fillReport copies an executor result into the legacy Report shape.
func fillReport(rep *Report, res *exec.Result) {
	rep.Encrypt = res.Encrypt
	rep.Eval = res.Eval
	if res.FailedStage != "" {
		rep.FailedStage = res.FailedStage
	}
	for _, st := range res.Stages {
		rep.Stages = append(rep.Stages, StageReport{
			Stage: st.Name, Duration: st.Duration,
			Level: st.Level, Scale: st.Scale, NoiseBits: st.NoiseBits,
		})
	}
}

// decryptLogits runs the shared decrypt epilogue of both pipelines.
func decryptLogits(ctx context.Context, e Engine, ct Ct, outputDim int, rep *Report) (Logits, *Report, error) {
	sr := newStageRunner(ctx, e, rep)
	var out []float64
	t := time.Now()
	_, err := sr.step("decrypt", func() Ct { out = e.DecryptVec(ct); return nil })
	rep.Decrypt = time.Since(t)
	telemetry.RecorderFrom(ctx).RecordPhase("decrypt", t, time.Now())
	if err != nil {
		return nil, rep, err
	}
	if len(out) < outputDim {
		return nil, rep, badInput("engine decrypted %d slots, plan outputs %d", len(out), outputDim)
	}
	return Logits(out[:outputDim]), rep, nil
}

// InferCtx classifies one raw image (pixels in [0, 255], length InputDim)
// with full error reporting: the input is validated, the context deadline
// is checked before every op, engine panics are converted to errors, and
// a per-stage timing/noise Report is returned alongside the logits. The
// report is non-nil even on failure (FailedStage names the stage that
// errored). Pair with guard.New to also get per-op invariant checking and
// noise-budget enforcement.
//
// The evaluation runs on the lowered op graph (Lower) with ahead-of-time
// encoded plaintexts, prepared once per engine and shared by every
// subsequent inference. The sequential executor replays the graph in the
// legacy interpreter's exact engine-call order, so logits are
// bit-identical to InferCtxLegacy.
func (p *Plan) InferCtx(ctx context.Context, e Engine, image []float64) (Logits, *Report, error) {
	rep := &Report{Engine: e.Name()}
	if len(image) != p.InputDim {
		return nil, rep, badInput("image length %d does not match plan input dim %d", len(image), p.InputDim)
	}
	pr, err := p.prepare(e)
	if err != nil {
		rep.FailedStage = "prepare"
		return nil, rep, err
	}
	defer telInferStart()()
	res, err := pr.Run(ctx, [][]float64{image}, exec.Options{})
	fillReport(rep, res)
	if err != nil {
		return nil, rep, err
	}
	return decryptLogits(ctx, e, res.Out, p.OutputDim, rep)
}

// InferCtxLegacy is the original eager stage interpreter, retained as the
// reference oracle the executor is tested bit-identical against.
func (p *Plan) InferCtxLegacy(ctx context.Context, e Engine, image []float64) (Logits, *Report, error) {
	rep := &Report{Engine: e.Name()}
	if len(image) != p.InputDim {
		return nil, rep, badInput("image length %d does not match plan input dim %d", len(image), p.InputDim)
	}
	sr := newStageRunner(ctx, e, rep)

	t0 := time.Now()
	ct, err := sr.step("encrypt", func() Ct { return e.EncryptVec(image) })
	rep.Encrypt = time.Since(t0)
	if err != nil {
		return nil, rep, err
	}
	for i, s := range p.Stages {
		name := fmt.Sprintf("stage %d (%s)", i, s.Describe())
		s := s
		t1 := time.Now()
		ct, err = sr.step(name, func() Ct { return s.Eval(e, ct) })
		d := time.Since(t1)
		rep.Eval += d
		if err != nil {
			return nil, rep, err
		}
		sr.record(name, d, ct)
	}
	var out []float64
	t2 := time.Now()
	_, err = sr.step("decrypt", func() Ct { out = e.DecryptVec(ct); return nil })
	rep.Decrypt = time.Since(t2)
	if err != nil {
		return nil, rep, err
	}
	if len(out) < p.OutputDim {
		return nil, rep, badInput("engine decrypted %d slots, plan outputs %d", len(out), p.OutputDim)
	}
	return Logits(out[:p.OutputDim]), rep, nil
}

// Infer classifies one raw image: encrypt → evaluate every stage →
// decrypt. It returns the logits and the server-side evaluation latency
// (excluding client encrypt/decrypt, as the paper measures classification
// latency of the homomorphic pipeline). It is a thin wrapper over
// InferCtx that panics on error, preserving the historical fail-loud
// behaviour of the engines; callers that want typed errors use InferCtx.
func (p *Plan) Infer(e Engine, image []float64) (Logits, time.Duration) {
	logits, rep, err := p.InferCtx(context.Background(), e, image)
	if err != nil {
		panic(err)
	}
	return logits, rep.Eval
}

// InferBatch classifies images concurrently on up to workers goroutines,
// all sharing one prepared graph (and thus one ahead-of-time encoded
// plaintext set). Encryption is serialized — the engines' encryptors
// draw from a non-thread-safe PRNG — while evaluation and decryption,
// which are stateless, overlap freely. The engine must be one whose
// evaluator is safe for concurrent use (both backends are; a guarded
// engine serializes internally). Results are in image order; the first
// error aborts the batch.
func (p *Plan) InferBatch(ctx context.Context, e Engine, images [][]float64, workers int) ([]Logits, error) {
	for i, img := range images {
		if len(img) != p.InputDim {
			return nil, badInput("image %d length %d does not match plan input dim %d", i, len(img), p.InputDim)
		}
	}
	pr, err := p.prepare(e)
	if err != nil {
		return nil, err
	}
	encs := make([][]Ct, len(images))
	for i, img := range images {
		cts, _, _, err := pr.EncryptInputs(ctx, [][]float64{img})
		if err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
		encs[i] = cts
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(images) {
		workers = len(images)
	}
	out := make([]Logits, len(images))
	errs := make([]error, len(images))
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(images) {
					return
				}
				done := telInferStart()
				res, err := pr.RunEncrypted(ctx, encs[i], exec.Options{})
				if err != nil {
					errs[i] = err
					done()
					continue
				}
				logits, _, err := decryptLogits(ctx, e, res.Out, p.OutputDim, &Report{Engine: e.Name()})
				out[i], errs[i] = logits, err
				done()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
	}
	return out, nil
}

// Warm lowers the plan for e and pre-encodes its plaintext operands, so
// a later InferCtx pays no one-time preparation cost inside its
// deadline. Safe to call concurrently; repeated calls are no-ops.
func (p *Plan) Warm(e Engine) error {
	_, err := p.prepare(e)
	return err
}

// LatencyStats aggregates per-inference latencies.
type LatencyStats struct {
	Min, Max, Avg time.Duration
	N             int

	// samples holds every recorded latency, sorted by finish, so
	// percentiles can be read after aggregation.
	samples []time.Duration
}

func newLatencyStats() LatencyStats {
	return LatencyStats{Min: time.Duration(1<<63 - 1)}
}

func (s *LatencyStats) add(d time.Duration) {
	if d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Avg += d
	s.N++
	s.samples = append(s.samples, d)
}

func (s *LatencyStats) finish() {
	if s.N == 0 {
		// No samples: render as zeros rather than leaving the Min sentinel
		// (and a meaningless Max/Avg) visible.
		*s = LatencyStats{}
		return
	}
	s.Avg /= time.Duration(s.N)
	sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
}

// Percentile returns the nearest-rank p-th percentile (p in [0, 100]) of
// the recorded latencies, or 0 when no samples were recorded.
func (s *LatencyStats) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	if p <= 0 {
		return s.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.samples) {
		rank = len(s.samples)
	}
	return s.samples[rank-1]
}

// String renders the stats like the paper's tables (seconds).
func (s LatencyStats) String() string {
	if s.N == 0 {
		return "min 0.00s max 0.00s avg 0.00s (n=0)"
	}
	return fmt.Sprintf("min %.2fs max %.2fs avg %.2fs (n=%d)",
		s.Min.Seconds(), s.Max.Seconds(), s.Avg.Seconds(), s.N)
}

// checkEvalArgs validates an EvaluateEncrypted batch and resolves n.
func checkEvalArgs(images [][]float64, labels []int, n, inputDim int) (int, error) {
	if n <= 0 || n > len(images) {
		n = len(images)
	}
	if n == 0 {
		return 0, badInput("no images to evaluate")
	}
	if len(labels) < n {
		return 0, badInput("%d labels for %d images", len(labels), n)
	}
	for i := 0; i < n; i++ {
		if len(images[i]) != inputDim {
			return 0, badInput("image %d length %d does not match plan input dim %d", i, len(images[i]), inputDim)
		}
	}
	return n, nil
}

// inferFunc is the shape shared by Plan.InferCtx and RNSPlan.InferCtx.
type inferFunc func(ctx context.Context, e Engine, image []float64) (Logits, *Report, error)

// evaluateEncrypted classifies images[0:n] via infer and returns the
// accuracy against labels plus latency statistics — the shared body of
// both pipelines' EvaluateEncrypted.
func evaluateEncrypted(infer inferFunc, e Engine, images [][]float64, labels []int, n, inputDim int) (float64, LatencyStats, error) {
	n, err := checkEvalArgs(images, labels, n, inputDim)
	if err != nil {
		return 0, LatencyStats{}, err
	}
	stats := newLatencyStats()
	correct := 0
	for i := 0; i < n; i++ {
		logits, rep, err := infer(context.Background(), e, images[i])
		if err != nil {
			stats.finish()
			return 0, stats, fmt.Errorf("image %d: %w", i, err)
		}
		stats.add(rep.Eval)
		if logits.Argmax() == labels[i] {
			correct++
		}
	}
	stats.finish()
	return float64(correct) / float64(n), stats, nil
}

// EvaluateEncrypted classifies images[0:n] homomorphically and returns the
// accuracy against labels plus latency statistics. Mis-sized inputs and
// label/image mismatches yield a typed error (errors.Is ErrBadInput)
// before any ciphertext work starts.
func (p *Plan) EvaluateEncrypted(e Engine, images [][]float64, labels []int, n int) (float64, LatencyStats, error) {
	return evaluateEncrypted(p.InferCtx, e, images, labels, n, p.InputDim)
}

// RNSPlan is the Fig. 5 CNN-RNS pipeline: the input image is decomposed
// into K digit tensors (rnsdec digit mode — the exact, fully homomorphic
// variant of the paper's residue decomposition, see DESIGN.md S4), the
// first convolutional stage is evaluated on every part independently (in
// parallel when Parallel is set), the parts are recombined linearly inside
// the ciphertext, and the remaining stages run once.
type RNSPlan struct {
	Base   *Plan
	Digits rnsdec.DigitBasis
	// Parallel evaluates independent graph ops (notably the per-part
	// convolutions) on a bounded worker pool.
	Parallel bool
	// Opt configures the graph optimizer, like Plan.Opt (nil = default
	// pipeline; the RNS graph is where the lazy-rescale sink fires, on
	// the recompose reduction).
	Opt *opt.Options

	// cache holds one lowered, optimized, pre-encoded graph per engine
	// (the RNS graph differs from Base's: k inputs, replicated first
	// stage).
	cache prepCache
}

// prepare returns the decomposed pipeline prepared for e, building it on
// first use per engine.
func (p *RNSPlan) prepare(e Engine) (*exec.Prepared, error) {
	en, err := p.cache.get(e, p.Lower, p.Opt)
	return en.pr, err
}

// OptResult returns the optimizer outcome for e, preparing the RNS plan
// if needed.
func (p *RNSPlan) OptResult(e Engine) (*opt.Result, error) {
	en, err := p.cache.get(e, p.Lower, p.Opt)
	return en.res, err
}

// NewRNSPlan wraps a compiled plan with a k-part digit decomposition
// covering 8-bit pixels.
func NewRNSPlan(base *Plan, k int, parallel bool) (*RNSPlan, error) {
	if len(base.Stages) == 0 {
		return nil, fmt.Errorf("henn: empty base plan")
	}
	if _, ok := base.Stages[0].(*LinearStage); !ok {
		return nil, fmt.Errorf("henn: RNS pipeline requires a linear first stage")
	}
	if k < 1 {
		return nil, fmt.Errorf("henn: need at least one part")
	}
	// Smallest base with base^k ≥ 256.
	base256 := int64(2)
	for pow(base256, k) < 256 {
		base256++
	}
	db, err := rnsdec.NewDigitBasis(base256, k)
	if err != nil {
		return nil, err
	}
	return &RNSPlan{Base: base, Digits: db, Parallel: parallel}, nil
}

// pow computes bᵏ, saturating at MaxInt64. The overflow guard runs
// before every multiply: the earlier version returned mid-computation
// once the product crossed 2³², silently capping bᵏ at whatever partial
// power it had reached — harmless for the base-search caller (any value
// ≥ 256 behaves the same) but wrong as soon as any caller needs the
// true power.
func pow(b int64, k int) int64 {
	if b <= 0 {
		return 0
	}
	r := int64(1)
	for i := 0; i < k; i++ {
		if r > math.MaxInt64/b {
			return math.MaxInt64
		}
		r *= b
	}
	return r
}

// InferCtx classifies one raw image through the decomposed pipeline with
// the same validation, cancellation, and reporting contract as
// Plan.InferCtx. In Parallel mode independent ops — in particular the
// per-part convolutions — are scheduled over a worker pool; since every
// op's operands are fixed by the graph, the logits do not depend on the
// schedule.
func (p *RNSPlan) InferCtx(ctx context.Context, e Engine, image []float64) (Logits, *Report, error) {
	rep := &Report{Engine: e.Name()}
	if len(image) != p.Base.InputDim {
		return nil, rep, badInput("image length %d does not match plan input dim %d", len(image), p.Base.InputDim)
	}
	pr, err := p.prepare(e)
	if err != nil {
		rep.FailedStage = "prepare"
		return nil, rep, err
	}
	parts := p.Digits.DecomposeTensor(image)
	workers := 1
	if p.Parallel {
		workers = len(parts)
	}
	res, err := pr.Run(ctx, parts, exec.Options{Workers: workers})
	fillReport(rep, res)
	if err != nil {
		return nil, rep, err
	}
	return decryptLogits(ctx, e, res.Out, p.Base.OutputDim, rep)
}

// InferCtxLegacy is the original eager interpreter for the decomposed
// pipeline, retained as the executor's reference oracle. In Parallel mode
// the per-part convolutions each recover their own panics; the first
// error wins.
func (p *RNSPlan) InferCtxLegacy(ctx context.Context, e Engine, image []float64) (Logits, *Report, error) {
	rep := &Report{Engine: e.Name()}
	if len(image) != p.Base.InputDim {
		return nil, rep, badInput("image length %d does not match plan input dim %d", len(image), p.Base.InputDim)
	}
	sr := newStageRunner(ctx, e, rep)

	parts := p.Digits.DecomposeTensor(image)
	cts := make([]Ct, len(parts))
	t0 := time.Now()
	for i, part := range parts {
		i, part := i, part
		ct, err := sr.step(fmt.Sprintf("encrypt part %d", i), func() Ct { return e.EncryptVec(part) })
		if err != nil {
			rep.Encrypt = time.Since(t0)
			return nil, rep, err
		}
		cts[i] = ct
	}
	rep.Encrypt = time.Since(t0)
	first := p.Base.Stages[0].(*LinearStage)
	weights := p.Digits.Weights()

	start := time.Now()
	outs := make([]Ct, len(parts))
	errs := make([]error, len(parts))
	evalOne := func(i int) {
		name := fmt.Sprintf("rns part %d (%s)", i, first.Label)
		outs[i], errs[i] = evalGuarded(name, func() Ct { return p.evalPart(e, first, cts[i], i) })
	}
	if err := ctx.Err(); err != nil {
		rep.FailedStage = "rns parts"
		return nil, rep, fmt.Errorf("henn: rns parts: %w", err)
	}
	if sr.sa != nil {
		sr.sa.BeginStage("rns parts")
	}
	if p.Parallel && len(parts) > 1 {
		var wg sync.WaitGroup
		wg.Add(len(parts))
		for i := range parts {
			go func(i int) {
				defer wg.Done()
				evalOne(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range parts {
			evalOne(i)
		}
	}
	for i, err := range errs {
		if err != nil {
			rep.FailedStage = fmt.Sprintf("rns part %d", i)
			rep.Eval = time.Since(start)
			return nil, rep, err
		}
	}
	sr.record("rns parts", time.Since(start), outs[0])

	// Linear recomposition: y = Σ Bⁱ·L(dᵢ) (exact; weights are integers).
	t1 := time.Now()
	acc, err := sr.step("rns recompose", func() Ct {
		acc := outs[0] // weight B⁰ = 1; carries the bias
		for i := 1; i < len(outs); i++ {
			acc = e.Add(acc, e.MulInt(outs[i], int64(weights[i])))
		}
		return acc
	})
	if err != nil {
		rep.Eval = time.Since(start)
		return nil, rep, err
	}
	sr.record("rns recompose", time.Since(t1), acc)

	for i, s := range p.Base.Stages[1:] {
		name := fmt.Sprintf("stage %d (%s)", i+1, s.Describe())
		s := s
		t2 := time.Now()
		acc, err = sr.step(name, func() Ct { return s.Eval(e, acc) })
		if err != nil {
			rep.Eval = time.Since(start)
			return nil, rep, err
		}
		sr.record(name, time.Since(t2), acc)
	}
	rep.Eval = time.Since(start)

	var out []float64
	t3 := time.Now()
	_, err = sr.step("decrypt", func() Ct { out = e.DecryptVec(acc); return nil })
	rep.Decrypt = time.Since(t3)
	if err != nil {
		return nil, rep, err
	}
	if len(out) < p.Base.OutputDim {
		return nil, rep, badInput("engine decrypted %d slots, plan outputs %d", len(out), p.Base.OutputDim)
	}
	return Logits(out[:p.Base.OutputDim]), rep, nil
}

// Warm mirrors Plan.Warm for the decomposed pipeline.
func (p *RNSPlan) Warm(e Engine) error {
	_, err := p.prepare(e)
	return err
}

// Infer classifies one raw image through the decomposed pipeline. Like
// Plan.Infer it panics on error; use InferCtx for typed errors.
func (p *RNSPlan) Infer(e Engine, image []float64) (Logits, time.Duration) {
	logits, rep, err := p.InferCtx(context.Background(), e, image)
	if err != nil {
		panic(err)
	}
	return logits, rep.Eval
}

func (p *RNSPlan) evalPart(e Engine, first *LinearStage, ct Ct, idx int) Ct {
	if idx == 0 {
		return first.Eval(e, ct)
	}
	return first.EvalNoBias(e, ct)
}

// EvaluateEncrypted mirrors Plan.EvaluateEncrypted for the RNS pipeline.
func (p *RNSPlan) EvaluateEncrypted(e Engine, images [][]float64, labels []int, n int) (float64, LatencyStats, error) {
	return evaluateEncrypted(p.InferCtx, e, images, labels, n, p.Base.InputDim)
}
