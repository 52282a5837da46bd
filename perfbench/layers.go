package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/ring"
	"cnnhe/internal/telemetry"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric that does not apply to a workload (queue wait on a
// route without a queue) reads 0.
var perLayer = []struct{ name, unit string }{
	{"client.keygen_s", "s"}, {"client.bundle_s", "s"}, {"client.encrypt_ms", "ms"}, {"client.decrypt_ms", "ms"},
	{"ckks.write_ct_ms", "ms"}, {"ckks.read_ct_ms", "ms"}, {"ckks.read_bundle_s", "s"},
	{"keys.register_s", "s"}, {"keys.evictions", "count"}, {"keys.reregister_frac", "ratio"},
	{"henn.compile_ms", "ms"}, {"henn.lower_ms", "ms"},
	{"opt.optimize_ms", "ms"}, {"opt.engine_calls", "count"}, {"opt.rotate_calls", "count"}, {"opt.hoists", "count"},
	{"exec.prepare_s", "s"}, {"exec.plaintexts", "count"}, {"exec.run_s", "s"}, {"exec.ops_per_image", "count"},
	{"exec.op.MulPlain.ms", "ms"}, {"exec.op.MulPlain.calls", "count"},
	{"exec.op.Rotate.ms", "ms"}, {"exec.op.Rotate.calls", "count"},
	{"exec.op.Recombine.ms", "ms"}, {"exec.op.Recombine.calls", "count"},
	{"exec.op.Rescale.ms", "ms"}, {"exec.op.Rescale.calls", "count"},
	{"exec.op.MulRelin.ms", "ms"}, {"exec.op.MulRelin.calls", "count"},
	{"exec.op.Add.ms", "ms"}, {"exec.op.Add.calls", "count"},
	{"exec.hoist_saved_keyswitch", "count"},
	{"guard.adopt_ms", "ms"},
	{"ring.ntt_us_per_limb", "us"}, {"ring.intt_us_per_limb", "us"}, {"ring.mulcoeffs_us_per_limb", "us"}, {"ring.pool_speedup", "ratio"},
	{"serve.eval_ms", "ms"}, {"serve.overhead_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.batch_fill", "ratio"}, {"serve.rejected", "count"},
	{"loadgen.lag_ms", "ms"}, {"trace_overhead_frac", "ratio"}, {"quality.logit_err_max", "abs"},
	{"self.bench_ms", "ms"}, {"self.client_ms", "ms"}, {"self.ckks_ms", "ms"}, {"self.serve_ms", "ms"},
	{"self.keys_ms", "ms"}, {"self.henn_ms", "ms"}, {"self.exec_ms", "ms"}, {"self.guard_ms", "ms"},
}

// opKinds are the executed op kinds reported one by one.
var opKinds = []string{"MulPlain", "Rotate", "Recombine", "Rescale", "MulRelin", "Add"}

// layerSet is a traced run's per-layer values, keyed by metric name.
type layerSet map[string]float64

// finalize stamps units and fills metrics the workload has no value for.
func (ls layerSet) finalize() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		out[pl.name] = metric{ls[pl.name], pl.unit}
	}
	return out
}

// registryLayers derives the layer counts the program already keeps in
// the default telemetry registry, from a snapshot difference over the
// measured phase; images is how many images that phase evaluated.
func registryLayers(d telemetry.Snapshot, images int) layerSet {
	n := float64(max(images, 1))
	ls := layerSet{}
	ops, _ := seriesSum(d, "cnnhe_exec_ops_total", "")
	ls["exec.ops_per_image"] = ops / n
	for _, k := range opKinds {
		sum, count := seriesSum(d, "cnnhe_exec_op_seconds", k)
		ls["exec.op."+k+".ms"] = sum * 1000 / n
		ls["exec.op."+k+".calls"] = float64(count) / n
	}
	saved, _ := seriesSum(d, "cnnhe_exec_hoist_saved_keyswitch_total", "")
	ls["exec.hoist_saved_keyswitch"] = saved / n
	ls["keys.evictions"], _ = seriesSum(d, "cnnhe_keys_evicted_total", "")
	if qs, qc := seriesSum(d, "cnnhe_serve_queue_wait_seconds", ""); qc > 0 {
		ls["serve.queue_wait_ms"] = qs * 1000 / float64(qc)
	}
	imgs, _ := seriesSum(d, "cnnhe_serve_batch_images_total", "")
	batches, _ := seriesSum(d, "cnnhe_serve_batches_total", "")
	if batches > 0 {
		ls["serve.batch_fill"] = imgs / batches // divided by capacity by the caller
	}
	return ls
}

// seriesSum adds the value (and, for histograms, the count) of every
// series of family fam, or only those whose "kind" label is kind.
func seriesSum(s telemetry.Snapshot, fam, kind string) (float64, int64) {
	f, ok := s.Family(fam)
	if !ok {
		return 0, 0
	}
	var v float64
	var c int64
	for _, ser := range f.Series {
		if kind != "" && ser.Label("kind") != kind {
			continue
		}
		v += ser.Value
		c += ser.Count
	}
	return v, c
}

// graphLayers lowers the served plan on a parameters-only engine and
// runs the optimizer over it, as a side measurement: the keyed route
// executes the unoptimized lowering, so opt.engine_calls against
// exec.ops_per_image shows what the optimizer would save there.
func graphLayers(tr *tracer, ls layerSet, p ckks.Parameters, lower func(henn.Engine) (*ir.Graph, error)) error {
	pe := henn.ParamsOnlyEngine("ckks-rns", p.Slots(), p.MaxLevel(), p.Scale, p.QiFloat)
	var g *ir.Graph
	if err := tr.do("henn.lower", 0, 0, func() (err error) { g, err = lower(pe); return err }); err != nil {
		return fmt.Errorf("lowering for the optimizer probe: %w", err)
	}
	ls["exec.plaintexts"] = float64(g.Stats().Plains)
	var res *opt.Result
	if err := tr.do("opt.optimize", 0, 0, func() (err error) { res, err = opt.Optimize(pe, g, nil); return err }); err != nil {
		return err
	}
	ls["opt.engine_calls"] = float64(res.After.EngineCalls)
	ls["opt.rotate_calls"] = float64(res.After.ByKind[ir.OpRotate])
	ls["opt.hoists"] = float64(res.After.Hoists)
	return nil
}

// ringLayers times the NTT, inverse NTT and pointwise product at the
// workload's ring degree over the full ciphertext chain, per limb, and
// the limb-parallel pool's speedup on the NTT.
func ringLayers(ls layerSet, p ckks.Parameters, seed int64) error {
	r, err := ring.NewRing(p.N(), p.Chain.Moduli, p.Chain.SpecialCount, p.RingSeed)
	if err != nil {
		return err
	}
	level := r.MaxLevel()
	limbs := r.Limbs(level, false)
	rng := rand.New(rand.NewSource(seed))
	vec := make([]int64, p.N())
	a, b, out := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
	for _, poly := range []*ring.Poly{a, b} {
		for i := range vec {
			vec[i] = rng.Int63n(1<<20) - 1<<19
		}
		r.SetCoeffsInt64(limbs, vec, poly)
	}
	perLimb := func(f func()) float64 {
		const budget = 60 * time.Millisecond
		f() // warm caches and scratch pools
		n := 0
		t0 := time.Now()
		for time.Since(t0) < budget || n < 3 {
			f()
			n++
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n*len(limbs))
	}
	// Repeated transforms of one polynomial stay valid residues, so each
	// kernel is timed on its own.
	r.Parallel = false
	ntt := perLimb(func() { r.NTT(limbs, a) })
	ls["ring.ntt_us_per_limb"] = ntt
	ls["ring.intt_us_per_limb"] = perLimb(func() { r.INTT(limbs, a) })
	ls["ring.mulcoeffs_us_per_limb"] = perLimb(func() { r.MulCoeffs(limbs, a, b, out) })
	r.Parallel = true
	pooled := perLimb(func() { r.NTT(limbs, a) })
	if pooled > 0 {
		ls["ring.pool_speedup"] = ntt / pooled
	}
	return nil
}

// spanLayers fills the span-derived metrics and the per-layer self time
// along one request's blocking steps, and returns the median root-span
// (traced request) duration.
func spanLayers(ls layerSet, spans []span) time.Duration {
	ms := func(name string) float64 { return millis(spanMedian(spans, name)) }
	s := func(name string) float64 { return spanMedian(spans, name).Seconds() }
	ls["client.keygen_s"] = s("client.keygen")
	ls["client.bundle_s"] = s("client.bundle")
	ls["client.encrypt_ms"] = ms("client.encrypt")
	ls["client.decrypt_ms"] = ms("client.decrypt")
	ls["ckks.write_ct_ms"] = ms("ckks.write_ct")
	ls["ckks.read_ct_ms"] = ms("ckks.read_ct")
	ls["ckks.read_bundle_s"] = s("ckks.read_bundle")
	ls["keys.register_s"] = s("keys.register")
	ls["henn.compile_ms"] = ms("henn.compile")
	ls["henn.lower_ms"] = ms("henn.lower")
	ls["opt.optimize_ms"] = ms("opt.optimize")
	ls["exec.prepare_s"] = s("exec.prepare")
	ls["exec.run_s"] = s("exec.run")
	ls["guard.adopt_ms"] = ms("guard.adopt")
	self, root := layerSelf(spans)
	for layer, d := range self {
		ls["self."+layer+"_ms"] = millis(d)
	}
	return root
}

// writeSpans stores the run's spans for offline inspection.
func writeSpans(tr *tracer, o opts, name string) error {
	return tr.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", name, o.seed)))
}
