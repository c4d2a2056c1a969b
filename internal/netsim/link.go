package netsim

import (
	"fmt"
	"math"

	"fpsping/internal/trace"
)

// Class partitions traffic for the schedulers of §1: gaming (interactive)
// versus elastic background.
type Class int

// Traffic classes.
const (
	ClassGaming Class = iota
	ClassElastic
	numClasses
)

// Packet is one simulated datagram.
type Packet struct {
	// Size in bytes (includes all headers; the paper's sizes are on-wire).
	Size int
	// Flow identifies source and destination endpoints.
	Flow trace.Flow
	// Class selects the scheduler queue.
	Class Class
	// Burst is the server tick number for downstream packets, else -1.
	Burst int
	// Sent is the emission timestamp at the origin node.
	Sent float64
	// Seq numbers packets within their flow.
	Seq int64
}

// Handler consumes packets delivered by a link.
type Handler interface {
	HandlePacket(p *Packet)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(p *Packet)

// HandlePacket calls f.
func (f HandlerFunc) HandlePacket(p *Packet) { f(p) }

// Scheduler picks the next queued packet on a link.
type Scheduler interface {
	// Enqueue stores p; returns false if it was dropped (queue overflow).
	Enqueue(p *Packet) bool
	// Dequeue removes and returns the next packet, or nil if empty.
	Dequeue() *Packet
}

// FIFO is a single shared queue with an optional byte limit (0 = unbounded):
// the baseline scheduler of §1 where elastic traffic can hurt gaming delay.
type FIFO struct {
	Limit int
	q     []*Packet
	bytes int
	Drops int
}

// Enqueue appends unless the byte limit would be exceeded.
func (f *FIFO) Enqueue(p *Packet) bool {
	if f.Limit > 0 && f.bytes+p.Size > f.Limit {
		f.Drops++
		return false
	}
	f.q = append(f.q, p)
	f.bytes += p.Size
	return true
}

// Dequeue pops the head.
func (f *FIFO) Dequeue() *Packet {
	if len(f.q) == 0 {
		return nil
	}
	p := f.q[0]
	f.q[0] = nil
	f.q = f.q[1:]
	f.bytes -= p.Size
	return p
}

// HoLPriority serves ClassGaming strictly before ClassElastic
// (non-preemptive head-of-line priority, §1).
type HoLPriority struct {
	Limit int
	q     [numClasses][]*Packet
	bytes int
	Drops int
}

// Enqueue stores p in its class queue.
func (h *HoLPriority) Enqueue(p *Packet) bool {
	if h.Limit > 0 && h.bytes+p.Size > h.Limit {
		h.Drops++
		return false
	}
	h.q[p.Class] = append(h.q[p.Class], p)
	h.bytes += p.Size
	return true
}

// Dequeue pops from the highest-priority non-empty class.
func (h *HoLPriority) Dequeue() *Packet {
	for c := 0; c < int(numClasses); c++ {
		if len(h.q[c]) > 0 {
			p := h.q[c][0]
			h.q[c][0] = nil
			h.q[c] = h.q[c][1:]
			h.bytes -= p.Size
			return p
		}
	}
	return nil
}

// WFQ is a two-class self-clocked fair queueing scheduler (SCFQ), the
// practical realization of the WFQ discussed in §1: each class is guaranteed
// its weight share of the link, so gaming traffic gets its provisioned
// capacity without starving the elastic class.
type WFQ struct {
	// Weights are the per-class shares; they need not sum to 1.
	Weights [numClasses]float64
	Limit   int
	q       [numClasses][]*Packet
	tags    [numClasses][]float64
	last    [numClasses]float64
	current float64 // finish tag of the packet in service (SCFQ virtual time)
	bytes   int
	Drops   int
}

// NewWFQ builds a scheduler with the given positive weights.
func NewWFQ(gamingWeight, elasticWeight float64, limit int) (*WFQ, error) {
	if !(gamingWeight > 0) || !(elasticWeight > 0) {
		return nil, fmt.Errorf("%w: WFQ weights %g/%g", ErrBadConfig, gamingWeight, elasticWeight)
	}
	return &WFQ{Weights: [numClasses]float64{gamingWeight, elasticWeight}, Limit: limit}, nil
}

// Enqueue stamps the packet with its SCFQ finish tag.
func (w *WFQ) Enqueue(p *Packet) bool {
	if w.Limit > 0 && w.bytes+p.Size > w.Limit {
		w.Drops++
		return false
	}
	start := math.Max(w.last[p.Class], w.current)
	finish := start + float64(p.Size)/w.Weights[p.Class]
	w.last[p.Class] = finish
	w.q[p.Class] = append(w.q[p.Class], p)
	w.tags[p.Class] = append(w.tags[p.Class], finish)
	w.bytes += p.Size
	return true
}

// Dequeue serves the smallest finish tag across classes.
func (w *WFQ) Dequeue() *Packet {
	best := -1
	bestTag := math.Inf(1)
	for c := 0; c < int(numClasses); c++ {
		if len(w.q[c]) > 0 && w.tags[c][0] < bestTag {
			best = c
			bestTag = w.tags[c][0]
		}
	}
	if best < 0 {
		return nil
	}
	p := w.q[best][0]
	w.q[best][0] = nil
	w.q[best] = w.q[best][1:]
	w.tags[best] = w.tags[best][1:]
	w.current = bestTag
	w.bytes -= p.Size
	return p
}

// Link is a store-and-forward transmission line: packets serialize one at a
// time at Rate bits per second, then ride a fixed propagation delay to the
// destination handler. Serialization of the next packet overlaps the
// propagation of the previous one, as on real links.
type Link struct {
	// Name labels the link in stats and errors.
	Name string
	// Rate is the line rate in bit/s.
	Rate float64
	// Prop is the one-way propagation delay in seconds.
	Prop float64
	// Dst receives delivered packets.
	Dst Handler
	// Sched queues waiting packets; nil means unbounded FIFO.
	Sched Scheduler

	engine *Engine
	busy   bool
	// Sent and SentBytes count transmissions.
	Sent      int64
	SentBytes int64
}

// NewLink wires a link into an engine.
func NewLink(e *Engine, name string, rate, prop float64, sched Scheduler, dst Handler) (*Link, error) {
	if !(rate > 0) || prop < 0 || dst == nil || e == nil {
		return nil, fmt.Errorf("%w: link %q rate=%g prop=%g", ErrBadConfig, name, rate, prop)
	}
	if sched == nil {
		sched = &FIFO{}
	}
	return &Link{Name: name, Rate: rate, Prop: prop, Dst: dst, Sched: sched, engine: e}, nil
}

// Send queues p for transmission (dropping it if the scheduler refuses).
func (l *Link) Send(p *Packet) {
	if !l.Sched.Enqueue(p) {
		return
	}
	if !l.busy {
		l.transmitNext()
	}
}

// transmitNext pops one packet and models its serialization + propagation.
func (l *Link) transmitNext() {
	p := l.Sched.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	ser := 8 * float64(p.Size) / l.Rate
	l.engine.Schedule(ser, func() {
		l.Sent++
		l.SentBytes += int64(p.Size)
		// Delivery after propagation; the line is free immediately.
		l.engine.Schedule(l.Prop, func() { l.Dst.HandlePacket(p) })
		l.transmitNext()
	})
}
