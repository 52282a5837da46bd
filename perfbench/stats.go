package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to count as measured rather than guessed.
const tailBeyond = 10

// tail is the highest percentile of a sample that has at least
// tailBeyond samples beyond it.
type tail struct {
	Value      float64 // the sample at that percentile
	Percentile float64 // in [0, 100]
	N          int     // sample count
	Beyond     int     // samples strictly above Value's rank
}

// tailOf picks the highest percentile of xs with ≥ tailBeyond samples
// beyond it: the (n−10)-th smallest sample, at percentile 100·(n−10)/n.
// A sample of ten or fewer values supports no such percentile; the
// maximum is reported then, with Beyond = 0 saying so.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, N: n}
	}
	k := n - tailBeyond // 1-based rank with exactly tailBeyond above it
	return tail{Value: s[k-1], Percentile: 100 * float64(k) / float64(n), N: n, Beyond: tailBeyond}
}

// arrival is one open-loop request: when the schedule said to send it,
// when the generator actually sent it, and when its result came back.
type arrival struct {
	Due, Sent, Done time.Time
}

// Lag is how late the generator sent the request (never negative).
func (a arrival) Lag() time.Duration {
	if d := a.Sent.Sub(a.Due); d > 0 {
		return d
	}
	return 0
}

// Latency is timed from the due time, so a generator stall is charged
// to the requests it delayed rather than hidden.
func (a arrival) Latency() time.Duration { return a.Done.Sub(a.Due) }

// openSchedule returns n due offsets at mean rate perSec: arrival i
// falls in the i-th 1/perSec slot at a seeded position in its first
// tenth, so the mean rate is fixed and only a small phase within each
// slot varies with the seed (a run has few arrivals, and a wide phase
// jitter would make its queue waits depend more on the seed than on
// the server).
func openSchedule(n int, perSec float64, u func() float64) []time.Duration {
	out := make([]time.Duration, n)
	slot := 1 / perSec
	for i := range out {
		at := (float64(i) + 0.1*u()) * slot
		out[i] = time.Duration(at * float64(time.Second))
	}
	return out
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxAbsDiff returns max_i |a_i − b_i| over the shorter length, or +Inf
// when the lengths differ.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
