package main

import (
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the recorder's memory; spans past it are counted, not
// kept.
const maxSpans = 400000

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Inv    int64  `json:"inv"`    // invocation or request id, -1 when none
	Self   int64  `json:"self_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per boundary.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 when not recorded).
func (t *tracer) begin(name string, parent int, inv int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Inv: inv})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	computeSelf(t.spans)
	return t.spans
}

// computeSelf sets each span's Self to its duration minus the part of its
// interval that its children cover. Children may overlap each other (two
// client connections), so their intervals are merged before subtracting.
// Unclosed spans have zero duration.
func computeSelf(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			s.Self = 0
			continue
		}
		s.Self = s.End - s.Start - covered(s.Start, s.End, kids[i])
	}
}

// covered reports how much of [lo, hi] the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// spanTotals sums duration and self time per span name, in name order.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func spanTotals(spans []span) []spanTotal {
	by := map[string]*spanTotal{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		t := by[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			by[s.Name] = t
		}
		t.Count++
		t.TotalMs += float64(s.End-s.Start) / 1e6
		t.SelfMs += float64(s.Self) / 1e6
	}
	out := make([]spanTotal, 0, len(by))
	for _, t := range by {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
