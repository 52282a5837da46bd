package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one request share Req; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the recorder's origin
	End    int64  `json:"end_ns"`
}

// Layer is the module a span's name is prefixed with ("exec.run" →
// "exec").
func (s span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a duration
// the program reports, placed to end at end).
func (t *tracer) add(name string, parent, req int, end time.Time, d time.Duration) {
	if t == nil {
		return
	}
	e := end.Sub(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: e - d.Nanoseconds(), End: e})
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, req int, f func() error) error {
	id := t.begin(name, parent, req)
	defer t.end(id)
	return f()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64 = 0, -1 << 62
	for _, v := range ivs {
		if v.a > hi {
			total += v.b - v.a
			hi = v.b
		} else if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return time.Duration(total)
}

// layerSelf sums self time by layer within each request, then takes the
// median across requests: the per-layer split of one request's blocking
// steps. Spans with Req 0 (set-up) are left out. The second result is
// the median root-span duration of the same requests.
func layerSelf(spans []span) (map[string]time.Duration, time.Duration) {
	self := selfTimes(spans)
	perReq := map[int]map[string]time.Duration{}
	var roots []float64
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		m := perReq[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			perReq[s.Req] = m
		}
		m[s.Layer()] += self[s.ID]
		if s.Parent == 0 {
			roots = append(roots, float64(s.Dur()))
		}
	}
	layers := map[string][]float64{}
	for _, m := range perReq {
		for l := range m {
			layers[l] = nil
		}
	}
	for _, m := range perReq {
		for l := range layers {
			layers[l] = append(layers[l], float64(m[l]))
		}
	}
	out := map[string]time.Duration{}
	for l, xs := range layers {
		out[l] = time.Duration(median(xs))
	}
	return out, time.Duration(median(roots))
}

// spanMedian is the median duration of the spans named name, or 0 when
// there are none.
func spanMedian(spans []span, name string) time.Duration {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.Dur()))
		}
	}
	return time.Duration(median(xs))
}
