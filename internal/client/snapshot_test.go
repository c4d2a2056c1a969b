package client

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"fpsping/internal/scenario"
)

// TestCacheDumpWarmRoundTrip moves a cache between two daemons through the
// typed client: dump the donor, warm a fresh target, and get the donor's
// answer back as a hit with zero computations on the target.
func TestCacheDumpWarmRoundTrip(t *testing.T) {
	ctx := context.Background()
	donor, donorEng := newPair(t)

	sc := scenario.Default()
	sc.Load = 0.42
	want, cached, err := donor.RTT(ctx, sc)
	if err != nil || cached {
		t.Fatalf("cold donor RTT: cached=%v err=%v", cached, err)
	}

	snap, err := donor.CacheDump(ctx)
	if err != nil {
		t.Fatalf("CacheDump: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot from a filled cache")
	}

	target, targetEng := newPair(t)
	res, err := target.CacheWarm(ctx, snap)
	if err != nil {
		t.Fatalf("CacheWarm: %v", err)
	}
	if res.Restored == 0 || res.CacheEntries == 0 {
		t.Fatalf("implausible warm result: %+v", res)
	}

	got, cached, err := target.RTT(ctx, sc)
	if err != nil {
		t.Fatalf("warm target RTT: %v", err)
	}
	if !cached {
		t.Error("warm target answered a restored key as a miss")
	}
	if got != want {
		t.Errorf("warm answer differs:\ndonor:  %+v\ntarget: %+v", want, got)
	}
	if n := targetEng.Computes(); n != 0 {
		t.Errorf("warm target ran %d computations, want 0", n)
	}
	_ = donorEng
}

// TestCacheWarmBadSnapshotIsAPIError: a garbage snapshot surfaces as the
// daemon's 400, typed, with the cache left cold.
func TestCacheWarmBadSnapshotIsAPIError(t *testing.T) {
	ctx := context.Background()
	c, eng := newPair(t)
	_, err := c.CacheWarm(ctx, []byte("not a snapshot"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("want APIError 400, got %v", err)
	}
	if entries := eng.CacheStats().Entries; entries != 0 {
		t.Errorf("rejected snapshot left %d entries", entries)
	}
}
