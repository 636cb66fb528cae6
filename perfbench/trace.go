package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Span is one call the benchmark made into a layer: its name, its interval
// relative to the start of the run, the span that caused it (0 = a root),
// the job it belongs to (-1 = none) and the counts that call returned.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Job    int                `json:"job"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s Span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing: Begin returns 0 and End ignores it, so untraced passes
// pay one branch per call site.
type Tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// setEnabled switches recording on or off between passes.
func (t *Tracer) setEnabled(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// Begin opens a span and returns its ID (0 when tracing is off).
func (t *Tracer) Begin(name string, parent, job int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Job: job, Name: name,
		Start: time.Since(t.t0).Nanoseconds(), End: -1})
	return id
}

// End closes span id with the counts the traced call returned.
func (t *Tracer) End(id int, counts map[string]float64) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	s.Counts = counts
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// validateSpans checks that the spans form a forest: every span is closed,
// every parent exists, and following parents never revisits a span.
func validateSpans(spans []Span) error {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID <= 0 {
			return fmt.Errorf("span %d: duplicate or invalid id", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		seen := map[int]bool{s.ID: true}
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if _, ok := byID[p]; !ok {
				return fmt.Errorf("span %d (%s): parent %d missing", s.ID, s.Name, p)
			}
			if seen[p] {
				return fmt.Errorf("span %d (%s): parent cycle through %d", s.ID, s.Name, p)
			}
			seen[p] = true
		}
	}
	return nil
}

// LayerTime is the total and self time of every span with one name. A
// span's self time is its duration minus the part of its interval its
// child spans cover.
type LayerTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func layerTimes(spans []Span) []LayerTime {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*LayerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Calls++
		lt.TotalS += s.dur()
		lt.SelfS += float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)) / 1e9
	}
	out := make([]LayerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// spansNamed returns the spans with the given name.
func spansNamed(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// sumCount totals one count over spans.
func sumCount(spans []Span, key string) float64 {
	var t float64
	for _, s := range spans {
		t += s.Counts[key]
	}
	return t
}

// sumDur totals span durations in seconds.
func sumDur(spans []Span) float64 {
	var t float64
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
