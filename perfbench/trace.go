package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call. Spans of one request share Req; Parent is the ID
// of the span that caused it (0 for a root).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run writes them out.
type Tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Record stores a span covering [start, end) and returns its ID.
func (t *Tracer) Record(name string, parent, req int64, start, end time.Time) int64 {
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	t.mu.Unlock()
	return id
}

// Time runs fn inside a span.
func (t *Tracer) Time(name string, parent, req int64, fn func()) int64 {
	start := time.Now()
	fn()
	return t.Record(name, parent, req, start, time.Now())
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the union of its children's
// intervals (clipped to the span), so overlapping children count once.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals within
// [lo, hi).
func covered(lo, hi time.Duration, spans []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		default:
			curB = max(curB, v[1])
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// layerStat summarizes the spans of one name: call count and median self
// time (a median, so one host stall inside a call does not move it).
type layerStat struct {
	N          int
	SelfMedian time.Duration
}

func aggregate(spans []Span) map[string]layerStat {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID]))
	}
	out := make(map[string]layerStat, len(byName))
	for name, xs := range byName {
		out[name] = layerStat{N: len(xs), SelfMedian: time.Duration(median(xs))}
	}
	return out
}

// pairedDiff is the median over requests of a's self time minus b's, for
// requests that have one span of each name.
func pairedDiff(spans []Span, a, b string) time.Duration {
	self := selfTimes(spans)
	at, bt := make(map[int64]time.Duration), make(map[int64]time.Duration)
	for _, s := range spans {
		switch s.Name {
		case a:
			at[s.Req] = self[s.ID]
		case b:
			bt[s.Req] = self[s.ID]
		}
	}
	var d []float64
	for req, x := range at {
		if y, ok := bt[req]; ok {
			d = append(d, float64(x-y))
		}
	}
	return time.Duration(median(d))
}
