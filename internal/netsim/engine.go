// Package netsim is a discrete-event packet-level network simulator built
// for the paper's access-network scenario (Figure 2): per-gamer access
// links, an aggregation node, a bottleneck link to the game server, FIFO and
// WFQ/priority schedulers, and packet-delay measurement. It stands in for
// the LAN party and DSL testbed the authors measured (see DESIGN.md's
// substitution table) and cross-validates the analytic models of §3.
package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// ErrBadConfig reports an invalid simulator configuration.
var ErrBadConfig = errors.New("netsim: invalid configuration")

// event is one scheduled callback.
type event struct {
	time float64
	seq  uint64 // tie-breaker: schedule order
	fn   func()
}

// eventHeap is a min-heap on (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event loop. Events at equal times
// fire in scheduling order, making runs fully deterministic for a fixed
// seed.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
	// Processed counts executed events (for reporting and runaway guards).
	Processed uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay seconds (>= 0).
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("netsim: negative delay %v", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time t (>= Now).
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("netsim: scheduling into the past: %v < %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{time: t, seq: e.seq, fn: fn})
}

// Run processes events until the horizon (inclusive) or until no events
// remain. It returns the number of events processed in this call.
func (e *Engine) Run(until float64) uint64 {
	var n uint64
	for len(e.events) > 0 {
		next := e.events[0]
		if next.time > until {
			break
		}
		heap.Pop(&e.events)
		e.now = next.time
		next.fn()
		n++
		e.Processed++
	}
	if e.now < until {
		e.now = until
	}
	return n
}
