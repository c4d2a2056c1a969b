package main

import (
	"math"
	"testing"
	"time"
)

func TestTailLevelNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 5000}, {199, 9000}, {200, 9500}, {999, 9500},
		{1000, 9900}, {9999, 9900}, {10000, 9990}, {100000, 9999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %d, want %d", c.n, got, c.want)
		}
		if lvl := tailLevel(c.n); lvl > 0 && c.n-rank(c.n, lvl) < 10 {
			t.Errorf("n=%d level %d leaves %d samples beyond", c.n, lvl, c.n-rank(c.n, lvl))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 9900); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond)", got)
	}
	if got := quantile(xs, 5000); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if got := quantile([]float64{7}, 9900); got != 7 {
		t.Errorf("p99 of one sample = %g", got)
	}
	if !math.IsNaN(quantile(nil, 5000)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	if got := slope(xs, []float64{1, 3, 5, 7}); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %g, want 2", got)
	}
	if got := slope([]float64{1}, []float64{5}); got != 0 {
		t.Errorf("slope of one point = %g", got)
	}
}

func TestWindowsSplitByScheduleAndKeepMinimum(t *testing.T) {
	ph := &Phase{}
	for i := range 400 {
		ph.Samples = append(ph.Samples, Sample{Req: i, Sent: true,
			Sched: time.Duration(i) * time.Millisecond, End: time.Duration(i)*time.Millisecond + time.Duration(i%5+1)*time.Millisecond})
	}
	ws := windows(ph, 8, 20)
	if len(ws) != 8 {
		t.Fatalf("got %d windows, want 8", len(ws))
	}
	for k, w := range ws {
		if len(w) != 50 {
			t.Errorf("window %d holds %d samples, want 50", k, len(w))
		}
	}
	if ws := windows(ph, 8, 100); len(ws) != 4 {
		t.Errorf("with 100 per window: %d windows, want 4", len(ws))
	}
	if ws := windows(ph, 8, 1000); ws != nil {
		t.Errorf("400 samples cannot fill a 1000-sample window, got %d", len(ws))
	}
	// Every window holds ten each of 1..5 ms: each window's p50 is 3 ms.
	if got := windowMedian(windows(ph, 8, 20), 5000); got != 3 {
		t.Errorf("windowMedian p50 = %g, want 3", got)
	}
}
