package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req.
// A span whose interval lies outside its parent's is a replay: it re-runs,
// with the same inputs, part of the work the parent call did internally, so
// its duration is attributed out of the parent's self time.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do wraps fn in a span.
func (t *tracer) do(name string, parent, req int, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// spanCost is the median time of one begin/end pair, timed on a scratch
// tracer: what tracing adds to each call it wraps.
func spanCost() time.Duration {
	const pairs = 10000
	t := newTracer()
	d, _ := timeN(5, func() error {
		t.spans = t.spans[:0]
		for i := 0; i < pairs; i++ {
			t.end(t.begin("cost", -1, i))
		}
		return nil
	})
	return d / pairs
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by its descendants, minus the durations of replay
// children recorded outside it (clamped at zero).
func selfTimes(spans []span) []time.Duration {
	inside := make([][][2]time.Duration, len(spans))
	replay := make([]time.Duration, len(spans))
	for _, c := range spans {
		if c.Parent >= 0 {
			if p := spans[c.Parent]; c.Start < p.Start || c.End > p.End {
				replay[p.ID] += c.End - c.Start
			}
		}
		for a := c.Parent; a >= 0; a = spans[a].Parent {
			if p := spans[a]; c.Start >= p.Start && c.End <= p.End {
				inside[a] = append(inside[a], [2]time.Duration{c.Start, c.End})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := inside[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered time.Duration
		reach := s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = max(s.End-s.Start-covered-replay[i], 0)
	}
	return self
}

// layerShares sums self time per layer over the span trees rooted at spans
// named one of roots, and returns each layer's percentage of the total.
// A root's own self time is the benchmark's glue, reported as "bench".
func layerShares(spans []span, roots ...string) map[string]float64 {
	self := selfTimes(spans)
	inTree := make([]bool, len(spans))
	by := map[string]time.Duration{}
	var total time.Duration
	for i, s := range spans { // parents precede children
		layer := s.layer()
		if s.Parent < 0 {
			if !contains(roots, s.Name) {
				continue
			}
			layer = "bench"
		} else if !inTree[s.Parent] {
			continue
		}
		inTree[i] = true
		by[layer] += self[i]
		total += self[i]
	}
	out := make(map[string]float64, len(by))
	for l, d := range by {
		if total > 0 {
			out[l] = 100 * float64(d) / float64(total)
		}
	}
	return out
}

// writeSpans streams the spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return bw.Flush()
}
