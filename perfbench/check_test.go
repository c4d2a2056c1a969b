package main

import (
	"bytes"
	"net/http"
	"testing"

	"fpsping/internal/scenario"
)

func cheapScenario(k int) scenario.Scenario {
	sc := scenario.Default()
	sc.ErlangOrder = k
	sc.Load = 0.4
	return sc
}

func TestCheckIsBitExact(t *testing.T) {
	ref := newReference()
	rtt := rttRequest(cheapScenario(3))
	ref.Compute([]Request{rtt})
	_, want := serve(ref.handler, rtt)
	if !ref.Check(rtt, http.StatusOK, want) {
		t.Fatal("the reference answer itself fails the check")
	}
	// Flip one digit of the answer: a last-bit difference must fail.
	i := bytes.LastIndexAny(want, "123456789")
	bad := append([]byte(nil), want...)
	bad[i] = '0'
	if ref.Check(rtt, http.StatusOK, bad) {
		t.Error("a changed digit passed the check")
	}
	if ref.Check(rtt, http.StatusInternalServerError, want) {
		t.Error("a non-2xx answer passed the check")
	}
	if ref.Check(rttRequest(cheapScenario(4)), http.StatusOK, want) {
		t.Error("a request without a reference answer passed the check")
	}
}

func TestCheckBatchIgnoresCachedCountOnly(t *testing.T) {
	ref := newReference()
	batch := batchRequest([]scenario.Scenario{cheapScenario(2), cheapScenario(3)})
	ref.Compute([]Request{batch})
	_, want := serve(ref.handler, batch)
	i := bytes.Index(want, []byte(`"cached":`))
	if i < 0 {
		t.Fatalf("reference batch has no cached field: %s", want)
	}
	recounted := append([]byte(nil), want...)
	recounted[i+len(`"cached":`)] = '7' // a count no two-item batch reports
	if !ref.Check(batch, http.StatusOK, recounted) {
		t.Error("a batch differing only in its cached count failed the check")
	}
	failed := []byte(`{"results":[{"error":"boom"},{"error":"boom"}],"cached":0}`)
	if ref.Check(batch, http.StatusOK, failed) {
		t.Error("a batch of failed items passed the check")
	}
}
