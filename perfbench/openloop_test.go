package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// TestOpenLoopKeepsScheduleAndRecordsEverySample drives the two workers,
// the backlog sampler and a tracing callback at once against an in-process
// daemon, so the race detector sees all the shared state.
func TestOpenLoopKeepsScheduleAndRecordsEverySample(t *testing.T) {
	ref := newReference()
	srv := httptest.NewServer(ref.handler)
	defer srv.Close()
	var reqs []Request
	var sched []time.Duration
	for i := range 40 {
		reqs = append(reqs, rttRequest(cheapScenario(2+i%3)))
		sched = append(sched, time.Duration(i)*5*time.Millisecond)
	}
	clients := newClients()
	defer closeClients(clients)
	tr := newTracer()
	ph := runOpenLoop(context.Background(), clients, srv.URL, reqs, sched, func(start time.Time, s Sample) {
		tr.Record("client.request", 0, int64(s.Req), start.Add(s.Send), start.Add(s.End))
	})
	ref.Compute(reqs)
	for i, s := range ph.Samples {
		if !s.Sent || s.Req != i {
			t.Fatalf("sample %d not sent or misplaced: %+v", i, s)
		}
		if s.Send < s.Sched || s.End < s.Send {
			t.Errorf("sample %d sent before its schedule or ended before it was sent", i)
		}
		if !ref.Check(reqs[i], s.Status, s.Body) {
			t.Errorf("sample %d: wrong answer", i)
		}
	}
	if got := len(tr.Spans()); got != len(reqs) {
		t.Errorf("%d spans for %d requests", got, len(reqs))
	}
	if len(ph.BacklogT) == 0 {
		t.Error("backlog was never sampled")
	}
}
