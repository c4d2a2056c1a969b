// Package trace holds captured packet records and the measurement pipeline
// the paper applies to them in §2.2: per-direction packet statistics, burst
// detection and burst-size extraction (Table 3, Figure 1).
//
// The design borrows gopacket's vocabulary: packets carry a Flow made of two
// comparable Endpoints, so records group naturally in maps, and a Trace
// filters into a new Trace.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// EndpointKind tags what role an endpoint plays in the gaming scenario.
type EndpointKind uint8

// Endpoint kinds.
const (
	KindUnknown EndpointKind = iota
	KindClient
	KindServer
	KindAggregator
	KindBackground
)

// String returns a short kind mnemonic.
func (k EndpointKind) String() string {
	switch k {
	case KindClient:
		return "client"
	case KindServer:
		return "server"
	case KindAggregator:
		return "agg"
	case KindBackground:
		return "bg"
	default:
		return "unknown"
	}
}

// Endpoint identifies one traffic endpoint; it is a comparable value usable
// as a map key (gopacket's Endpoint contract).
type Endpoint struct {
	Kind EndpointKind
	ID   uint16
}

// String renders kind:id.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Kind, e.ID) }

// Client returns the client endpoint with the given id.
func Client(id int) Endpoint { return Endpoint{Kind: KindClient, ID: uint16(id)} }

// Server returns the (single) server endpoint.
func Server() Endpoint { return Endpoint{Kind: KindServer} }

// Flow is a directed src->dst pair; comparable, usable as a map key.
type Flow struct {
	Src, Dst Endpoint
}

// String renders src->dst.
func (f Flow) String() string { return f.Src.String() + "->" + f.Dst.String() }

// Direction classifies a flow relative to the server.
type Direction int

// Directions.
const (
	DirUnknown Direction = iota
	DirUpstream
	DirDownstream
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case DirUpstream:
		return "upstream"
	case DirDownstream:
		return "downstream"
	default:
		return "unknown"
	}
}

// Direction derives the flow direction from endpoint kinds.
func (f Flow) Direction() Direction {
	switch {
	case f.Dst.Kind == KindServer:
		return DirUpstream
	case f.Src.Kind == KindServer:
		return DirDownstream
	default:
		return DirUnknown
	}
}

// Record is one captured packet.
type Record struct {
	// Time is the capture timestamp in seconds.
	Time float64
	// Size is the packet size in bytes.
	Size int
	// Flow carries source and destination.
	Flow Flow
	// Burst is the server-tick sequence number for downstream packets, or
	// -1 when unknown (bursts must then be inferred; see GroupBursts).
	Burst int
}

// Trace is an append-only packet capture.
type Trace struct {
	records []Record
}

// ErrEmptyTrace reports an operation needing at least one record.
var ErrEmptyTrace = errors.New("trace: empty trace")

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Append adds one record.
func (t *Trace) Append(r Record) { t.records = append(t.records, r) }

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.records) }

// Records exposes the raw records (treat as read-only).
func (t *Trace) Records() []Record { return t.records }

// SortByTime orders records chronologically (stable, so ties keep capture
// order — within-burst packet order survives, the §2.2 concern about packet
// order inside bursts).
func (t *Trace) SortByTime() {
	sort.SliceStable(t.records, func(i, j int) bool {
		return t.records[i].Time < t.records[j].Time
	})
}

// Filter returns a new trace with the records satisfying pred, in order.
func (t *Trace) Filter(pred func(Record) bool) *Trace {
	out := New()
	for _, r := range t.records {
		if pred(r) {
			out.Append(r)
		}
	}
	return out
}

// FilterDirection keeps one direction.
func (t *Trace) FilterDirection(d Direction) *Trace {
	return t.Filter(func(r Record) bool { return r.Flow.Direction() == d })
}

// ByFlow groups record indices per flow; flows are map keys (gopacket's
// map-keyed Endpoint/Flow pattern).
func (t *Trace) ByFlow() map[Flow][]Record {
	out := map[Flow][]Record{}
	for _, r := range t.records {
		out[r.Flow] = append(out[r.Flow], r)
	}
	return out
}

// Duration returns last - first timestamp.
func (t *Trace) Duration() float64 {
	if len(t.records) == 0 {
		return 0
	}
	minT, maxT := t.records[0].Time, t.records[0].Time
	for _, r := range t.records {
		if r.Time < minT {
			minT = r.Time
		}
		if r.Time > maxT {
			maxT = r.Time
		}
	}
	return maxT - minT
}

// csvHeader is the column layout of the CSV codec.
var csvHeader = []string{"time", "size", "src_kind", "src_id", "dst_kind", "dst_id", "burst"}

// ReadCSV parses a trace in the csvHeader column layout.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(head) != len(csvHeader) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(head), len(csvHeader))
	}
	out := New()
	for line := 2; ; line++ {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out.Append(rec)
	}
}

func parseRow(row []string) (Record, error) {
	var rec Record
	var err error
	if rec.Time, err = strconv.ParseFloat(row[0], 64); err != nil {
		return rec, err
	}
	if rec.Size, err = strconv.Atoi(row[1]); err != nil {
		return rec, err
	}
	ints := make([]int, 4)
	for i := 0; i < 4; i++ {
		if ints[i], err = strconv.Atoi(row[2+i]); err != nil {
			return rec, err
		}
	}
	rec.Flow = Flow{
		Src: Endpoint{Kind: EndpointKind(ints[0]), ID: uint16(ints[1])},
		Dst: Endpoint{Kind: EndpointKind(ints[2]), ID: uint16(ints[3])},
	}
	if rec.Burst, err = strconv.Atoi(row[6]); err != nil {
		return rec, err
	}
	return rec, nil
}
