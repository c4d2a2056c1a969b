package main

import (
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 30 * ms, End: 60 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Name: "child", Start: 80 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [80,100) of the parent: 70 ms.
	if got := self[1]; got != 30*ms {
		t.Errorf("parent self = %v, want 30ms", got)
	}
	if got := self[2]; got != 25*ms {
		t.Errorf("child self = %v, want 25ms (grandchild subtracted)", got)
	}
	if got := self[4]; got != 40*ms {
		t.Errorf("leaf self = %v, want its duration", got)
	}
	st := aggregate(spans)
	if c := st["child"]; c.N != 3 || c.SelfMedian != 30*ms {
		t.Errorf("aggregate child = %+v, want 3 spans, median self 30ms", c)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{{Start: 0, End: 10 * ms}, {Start: 2 * ms, End: 5 * ms}, {Start: 20 * ms, End: 30 * ms}}
	if got := covered(0, 100*ms, spans); got != 20*ms {
		t.Errorf("covered = %v, want 20ms", got)
	}
	if got := covered(0, 100*ms, nil); got != 0 {
		t.Errorf("covered with no children = %v", got)
	}
}

func TestPairedDiffMatchesRequests(t *testing.T) {
	us := time.Microsecond
	spans := []Span{
		{ID: 1, Req: 1, Name: "handler", Start: 0, End: 50 * us},
		{ID: 2, Req: 1, Name: "engine", Start: 100 * us, End: 130 * us},
		{ID: 3, Req: 2, Name: "handler", Start: 200 * us, End: 240 * us},
		{ID: 4, Req: 2, Name: "engine", Start: 300 * us, End: 320 * us},
		{ID: 5, Req: 3, Name: "handler", Start: 400 * us, End: 900 * us}, // no engine span: ignored
	}
	if got := pairedDiff(spans, "handler", "engine"); got != 20*us {
		t.Errorf("pairedDiff = %v, want 20us", got)
	}
}
