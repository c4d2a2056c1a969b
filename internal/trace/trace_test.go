package trace

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"fpsping/internal/dist"
)

func TestEndpointsAndFlows(t *testing.T) {
	c := Client(3)
	s := Server()
	up := Flow{Src: c, Dst: s}
	if up.Direction() != DirUpstream {
		t.Error("client->server should be upstream")
	}
	down := Flow{Src: s, Dst: c}
	if down.Direction() != DirDownstream {
		t.Error("server->client should be downstream")
	}
	if (Flow{Src: c, Dst: Client(4)}).Direction() != DirUnknown {
		t.Error("client->client should be unknown")
	}
	// Comparable map keys.
	m := map[Flow]int{up: 1, down: 2}
	if m[up] != 1 || m[Flow{Src: s, Dst: c}] != 2 {
		t.Error("flow map keys broken")
	}
	if up.String() != "client:3->server:0" {
		t.Errorf("flow string %q", up.String())
	}
	if DirUpstream.String() != "upstream" || DirDownstream.String() != "downstream" || DirUnknown.String() != "unknown" {
		t.Error("direction strings")
	}
}

func buildTestTrace() *Trace {
	tr := New()
	// Three bursts of 2 clients each, 47ms apart, plus client traffic.
	for b := 0; b < 3; b++ {
		t0 := 0.001 + 0.047*float64(b)
		for c := 0; c < 2; c++ {
			tr.Append(Record{
				Time:  t0 + 0.0001*float64(c),
				Size:  150 + 10*c,
				Flow:  Flow{Src: Server(), Dst: Client(c)},
				Burst: b,
			})
		}
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			tr.Append(Record{
				Time:  0.005*float64(c) + 0.030*float64(i),
				Size:  73,
				Flow:  Flow{Src: Client(c), Dst: Server()},
				Burst: -1,
			})
		}
	}
	tr.SortByTime()
	return tr
}

func TestTraceFilters(t *testing.T) {
	tr := buildTestTrace()
	if tr.Len() != 14 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := tr.FilterDirection(DirDownstream).Len(); got != 6 {
		t.Errorf("downstream = %d", got)
	}
	if got := tr.FilterDirection(DirUpstream).Len(); got != 8 {
		t.Errorf("upstream = %d", got)
	}
	if d := tr.Duration(); d <= 0 {
		t.Errorf("duration = %v", d)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := buildTestTrace()
	var buf bytes.Buffer
	if err := tr.writeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip %d != %d", back.Len(), tr.Len())
	}
	for i, r := range back.Records() {
		if r != tr.Records()[i] {
			t.Fatalf("record %d: %+v != %+v", i, r, tr.Records()[i])
		}
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(times []uint32, sizes []uint16) bool {
		tr := New()
		n := min(len(times), len(sizes))
		for i := 0; i < n; i++ {
			tr.Append(Record{
				Time:  float64(times[i]) / 1000,
				Size:  int(sizes[i]%1400) + 1,
				Flow:  Flow{Src: Server(), Dst: Client(i % 12)},
				Burst: i / 12,
			})
		}
		var buf bytes.Buffer
		if err := tr.writeCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil || back.Len() != tr.Len() {
			return false
		}
		for i := range back.Records() {
			if back.Records()[i] != tr.Records()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n")); err == nil {
		t.Error("accepted short header")
	}
	bad := "time,size,src_kind,src_id,dst_kind,dst_id,burst\nx,1,1,1,2,0,-1\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad)); err == nil {
		t.Error("accepted unparsable time")
	}
}

func TestGroupBurstsByID(t *testing.T) {
	tr := buildTestTrace()
	groups := GroupBurstsByID(tr)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	for i, g := range groups {
		if len(g.Records) != 2 {
			t.Errorf("burst %d has %d packets", i, len(g.Records))
		}
		if g.TotalBytes != 150+160 {
			t.Errorf("burst %d total %d", i, g.TotalBytes)
		}
		if i > 0 && g.Time <= groups[i-1].Time {
			t.Error("groups not time ordered")
		}
	}
}

func TestGroupBurstsByGapMatchesID(t *testing.T) {
	tr := buildTestTrace()
	byGap := GroupBurstsByGap(tr, 0.010)
	byID := GroupBurstsByID(tr)
	if len(byGap) != len(byID) {
		t.Fatalf("gap %d vs id %d groups", len(byGap), len(byID))
	}
	for i := range byGap {
		if byGap[i].TotalBytes != byID[i].TotalBytes {
			t.Errorf("burst %d totals differ", i)
		}
	}
	// A tiny threshold splits everything apart.
	tiny := GroupBurstsByGap(tr, 1e-6)
	if len(tiny) != 6 {
		t.Errorf("tiny threshold groups = %d, want 6", len(tiny))
	}
}

func TestAnalyzeTable3Pipeline(t *testing.T) {
	// Generate a synthetic 12-player session shaped like the paper's LAN
	// trace directly at the trace level.
	r := dist.NewRNG(7)
	tr := New()
	sizeLaw, _ := dist.LogNormalByMoments(154, 0.28)
	tick := 0.0
	for b := 0; b < 2000; b++ {
		for c := 0; c < 12; c++ {
			tr.Append(Record{
				Time:  tick + 1e-4*float64(c),
				Size:  int(sizeLaw.Sample(r) + 0.5),
				Flow:  Flow{Src: Server(), Dst: Client(c)},
				Burst: b,
			})
		}
		tick += 0.047
	}
	for c := 0; c < 12; c++ {
		for i := 0; i < 3000; i++ {
			tr.Append(Record{
				Time:  0.001*float64(c) + 0.030*float64(i),
				Size:  73,
				Flow:  Flow{Src: Client(c), Dst: Server()},
				Burst: -1,
			})
		}
	}
	tr.SortByTime()
	ts, err := Analyze(tr, 0.010)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Bursts != 2000 {
		t.Errorf("bursts = %d", ts.Bursts)
	}
	if math.Abs(ts.Downstream.PacketSize.Mean()-154) > 2 {
		t.Errorf("server packet mean %v", ts.Downstream.PacketSize.Mean())
	}
	if math.Abs(ts.Downstream.IAT.Mean()-0.047) > 1e-6 {
		t.Errorf("burst IAT mean %v", ts.Downstream.IAT.Mean())
	}
	if math.Abs(ts.Downstream.BurstSize.Mean()-12*154) > 25 {
		t.Errorf("burst size mean %v", ts.Downstream.BurstSize.Mean())
	}
	if math.Abs(ts.Upstream.PacketSize.Mean()-73) > 1e-9 {
		t.Errorf("client packet mean %v", ts.Upstream.PacketSize.Mean())
	}
	if math.Abs(ts.Upstream.IAT.Mean()-0.030) > 1e-9 {
		t.Errorf("client IAT mean %v", ts.Upstream.IAT.Mean())
	}
	if ts.PacketsPerBurst.Mean() != 12 {
		t.Errorf("packets per burst %v", ts.PacketsPerBurst.Mean())
	}
	if ts.Downstream.WithinBurstCoV <= 0 || ts.Downstream.WithinBurstCoV >= ts.Downstream.PacketSize.CoV() {
		t.Errorf("within-burst CoV %v should be positive and below overall %v",
			ts.Downstream.WithinBurstCoV, ts.Downstream.PacketSize.CoV())
	}
	if s := ts.FormatTable(); len(s) < 100 {
		t.Errorf("format too short: %q", s)
	}
	// Burst totals feed Figure 1.
	groups := GroupBurstsByID(tr)
	totals := BurstTotals(groups)
	if len(totals) != 2000 {
		t.Errorf("totals = %d", len(totals))
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(New(), 0.01); err != ErrEmptyTrace {
		t.Errorf("want ErrEmptyTrace, got %v", err)
	}
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	return &Trace{records: slices.Clone(t.records)}
}

func TestClone(t *testing.T) {
	tr := buildTestTrace()
	cp := tr.Clone()
	cp.Append(Record{Time: 99})
	if cp.Len() != tr.Len()+1 {
		t.Error("clone not independent")
	}
}

func BenchmarkAnalyze(b *testing.B) {
	r := dist.NewRNG(1)
	tr := New()
	sizeLaw, _ := dist.LogNormalByMoments(154, 0.28)
	for bi := 0; bi < 5000; bi++ {
		for c := 0; c < 12; c++ {
			tr.Append(Record{
				Time: 0.047*float64(bi) + 1e-4*float64(c),
				Size: int(sizeLaw.Sample(r)), Flow: Flow{Src: Server(), Dst: Client(c)}, Burst: bi,
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(tr, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOrderStability(t *testing.T) {
	// Stable order: every burst delivers clients 0,1,2 in sequence.
	stable := New()
	for b := 0; b < 50; b++ {
		for c := 0; c < 3; c++ {
			stable.Append(Record{
				Time: 0.05*float64(b) + 0.001*float64(c), Size: 100,
				Flow: Flow{Src: Server(), Dst: Client(c)}, Burst: b,
			})
		}
	}
	g := GroupBurstsByID(stable)
	if s := OrderStability(g); s != 1 {
		t.Errorf("stable order score %v", s)
	}
	// Shuffled order: rotate the client order per burst.
	shuffled := New()
	for b := 0; b < 50; b++ {
		for i := 0; i < 3; i++ {
			c := (i + b) % 3
			shuffled.Append(Record{
				Time: 0.05*float64(b) + 0.001*float64(i), Size: 100,
				Flow: Flow{Src: Server(), Dst: Client(c)}, Burst: b,
			})
		}
	}
	g2 := GroupBurstsByID(shuffled)
	if s := OrderStability(g2); s != 0 {
		t.Errorf("rotated order score %v", s)
	}
	if !math.IsNaN(OrderStability(nil)) {
		t.Error("empty groups should give NaN")
	}
}

// writeCSV serializes the trace in the layout ReadCSV parses.
func (t *Trace) writeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, r := range t.records {
		row[0] = strconv.FormatFloat(r.Time, 'g', 17, 64)
		row[1] = strconv.Itoa(r.Size)
		row[2] = strconv.Itoa(int(r.Flow.Src.Kind))
		row[3] = strconv.Itoa(int(r.Flow.Src.ID))
		row[4] = strconv.Itoa(int(r.Flow.Dst.Kind))
		row[5] = strconv.Itoa(int(r.Flow.Dst.ID))
		row[6] = strconv.Itoa(r.Burst)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
