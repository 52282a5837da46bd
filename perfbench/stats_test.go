package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailOf(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{n: 1, value: 1, pct: 100, beyond: 0},
		{n: 10, value: 10, pct: 100, beyond: 0}, // ten samples support no percentile with ten beyond
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10},
		{n: 20, value: 10, pct: 50, beyond: 10},
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 1000, value: 990, pct: 99, beyond: 10},
	} {
		got := tailOf(seq(tc.n))
		if got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-9 || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want value %v at p%v with %d beyond", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
		above := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				above++
			}
		}
		if tc.beyond > 0 && above != tailBeyond {
			t.Errorf("n=%d: %d samples above the tail, want %d", tc.n, above, tailBeyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}

func TestOpenScheduleKeepsMeanRate(t *testing.T) {
	const rate, n = 4.0, 400
	rng := seededRand(7, 300)
	sched := openSchedule(n, rate, rng.Float64)
	slot := time.Duration(float64(time.Second) / rate)
	for i, at := range sched {
		lo := time.Duration(i) * slot
		hi := time.Duration(i)*slot + slot/10
		if at < lo || at > hi {
			t.Fatalf("arrival %d at %v outside the first tenth of its slot [%v, %v]", i, at, lo, hi)
		}
	}
	again := openSchedule(n, rate, seededRand(7, 300).Float64)
	for i := range sched {
		if sched[i] != again[i] {
			t.Fatalf("same seed gave a different schedule at %d", i)
		}
	}
}

// TestOpenLoopChargesLateness checks the open-loop accounting: when the
// in-flight cap holds a request back, the wait shows as lag, and its
// latency is timed from the due time, not from when it was finally sent.
func TestOpenLoopChargesLateness(t *testing.T) {
	const hold = 60 * time.Millisecond
	var inFlight, peak atomic.Int32
	arrivals := openLoop(3, 1000, 1, 1, time.Now(), func(i int, a *arrival) {
		n := inFlight.Add(1)
		if n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(hold)
		inFlight.Add(-1)
	})
	if peak.Load() != 1 {
		t.Fatalf("peak in flight %d, want 1", peak.Load())
	}
	if arrivals[0].Lag() > hold/2 {
		t.Errorf("first arrival lagged %v with nothing in flight", arrivals[0].Lag())
	}
	for i := 1; i < 3; i++ {
		a := arrivals[i]
		if a.Lag() < hold*time.Duration(i)*8/10 {
			t.Errorf("arrival %d lag %v, want ≥ ~%v behind the held sends", i, a.Lag(), hold*time.Duration(i))
		}
		if a.Latency() < a.Lag()+hold*8/10 {
			t.Errorf("arrival %d latency %v does not include its lag %v", i, a.Latency(), a.Lag())
		}
		if a.Latency() != a.Done.Sub(a.Due) {
			t.Errorf("arrival %d latency not timed from due", i)
		}
	}
}

func TestArrivalLagNeverNegative(t *testing.T) {
	now := time.Now()
	a := arrival{Due: now, Sent: now.Add(-time.Millisecond), Done: now.Add(time.Second)}
	if a.Lag() != 0 {
		t.Errorf("early send lag %v, want 0", a.Lag())
	}
	if a.Latency() != time.Second {
		t.Errorf("latency %v", a.Latency())
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Req: 1, Name: "bench.request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Req: 1, Name: "client.encrypt", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Req: 1, Name: "serve.handle", Start: 20 * ms, End: 50 * ms}, // overlaps 2
		{ID: 4, Parent: 3, Req: 1, Name: "exec.run", Start: 25 * ms, End: 45 * ms},
		{ID: 5, Parent: 1, Req: 1, Name: "client.decrypt", Start: 60 * ms, End: 70 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * time.Millisecond, 2: 20 * time.Millisecond, 3: 10 * time.Millisecond, 4: 20 * time.Millisecond, 5: 10 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	layers, root := layerSelf(spans)
	if root != 100*time.Millisecond {
		t.Errorf("root %v", root)
	}
	if layers["client"] != 30*time.Millisecond || layers["exec"] != 20*time.Millisecond || layers["bench"] != 50*time.Millisecond {
		t.Errorf("layer self times %v", layers)
	}
}
