package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"cnnhe/internal/nn"
	"cnnhe/internal/telemetry"
)

// tinyModel is a conv → SLAF → dense network on 1×8×8 inputs, small
// enough to run every workload driver in seconds.
func tinyModel() (*nn.Model, error) {
	rng := rand.New(rand.NewSource(61))
	conv := nn.NewConv2D(rng, 1, 2, 3, 2, 0, 8, 8)
	m := &nn.Model{Layers: []nn.Layer{
		conv,
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(rng, conv.OutC*conv.OutH()*conv.OutW(), 4),
	}}
	hm := m.ReplaceReLUWithSLAF(3, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	return hm, nil
}

func tinyImages(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, 64)
		for j := range out[i] {
			out[i][j] = float64(rng.Intn(256))
		}
	}
	return out
}

// tiny returns a copy of the named workload scaled down to the tiny
// model on a small ring; the traffic shape (route, clients, resident
// bound, concurrency, open loop) is unchanged.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.model, c.images, c.shape = tinyModel, tinyImages, [3]int{1, 8, 8}
	c.logN = 10
	if c.sharded {
		c.logN = 6 // 32 slots: the 64-pixel input needs two shards
	}
	if !c.keyed {
		c.rate = 20
	}
	return &c
}

func TestWorkloadDriversSmoke(t *testing.T) {
	telemetry.SetEnabled(true)
	e2e, layers := benchmarkMetricNames(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			w := tiny(t, name)
			o := opts{seed: 3, duration: 300 * time.Millisecond, traced: traced, outDir: t.TempDir(), log: io.Discard}
			m, err := w.run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := m.result(traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (logit err %g)",
					name, traced, res.Correct, res.Attempted, res.Failed, m.logitErrMax)
			}
			want := e2e
			if traced {
				want = layers
			}
			if got := metricNames(res.Metrics); !equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json lists %v", name, traced, got, want)
			}
			for k, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", name, traced, k, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, k, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(o.outDir + "/spans-" + name + "-seed3.json"); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}

// benchmarkMetricNames reads the metric names BENCHMARK.json declares.
func benchmarkMetricNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !equal(sorted(wl), sorted(workloadNames())) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wl, workloadNames())
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for i, m := range spec.PerLayer {
		layers = append(layers, m.Name)
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit) {
			t.Errorf("per_layer[%d] = %s %s, benchmark has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	return sorted(e2e), sorted(layers)
}

func metricNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return sorted(out)
}

func sorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
