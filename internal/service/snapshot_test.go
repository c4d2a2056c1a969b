package service

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fpsping/internal/scenario"
)

// warmPaths is the request set the warm-restart tests replay: one per
// cached key space (RTT point, batch shares rtt keys, sweep, dimension).
var warmPaths = []string{
	"/v1/rtt?load=0.3",
	"/v1/rtt?load=0.55&gamers=12",
	"/v1/sweep?from=0.1&to=0.3&step=0.1",
	"/v1/dimension?bound=60",
}

// fill replays warmPaths against ts and returns the response bodies.
func fill(t *testing.T, url string) map[string][]byte {
	t.Helper()
	bodies := make(map[string][]byte)
	for _, p := range warmPaths {
		resp, body := do(t, http.MethodGet, url+p, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", p, resp.StatusCode, body)
		}
		bodies[p] = body
	}
	return bodies
}

// dumpCache fetches /v1/cache:dump and returns the snapshot bytes.
func dumpCache(t *testing.T, url string) []byte {
	t.Helper()
	resp, snap := do(t, http.MethodGet, url+"/v1/cache:dump", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache:dump status %d: %s", resp.StatusCode, snap)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("cache:dump content type %q", ct)
	}
	if resp.Header.Get("X-Fpsping-Snapshot-Entries") == "" {
		t.Errorf("cache:dump missing entry-count header")
	}
	return snap
}

func warmCache(t *testing.T, url string, snap []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/cache:warm", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestWarmRestartByteIdentical is the correctness gate of the snapshot
// feature: a fresh engine warmed from another's dump answers the donor's
// key set byte-identically, every answer a cache hit, with zero model
// computations.
func TestWarmRestartByteIdentical(t *testing.T) {
	_, cold := newTestServer(t, 2)
	want := fill(t, cold.URL)
	snap := dumpCache(t, cold.URL)

	warmSrv, warm := newTestServer(t, 2)
	resp, body := warmCache(t, warm.URL, snap)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache:warm status %d: %s", resp.StatusCode, body)
	}
	var res WarmResult
	if err := scenario.UnmarshalStrict(body, &res); err != nil {
		t.Fatalf("warm result: %v", err)
	}
	if res.Restored == 0 || res.CacheEntries != res.Restored {
		t.Fatalf("implausible warm result: %+v", res)
	}

	for _, p := range warmPaths {
		resp, got := do(t, http.MethodGet, warm.URL+p, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm GET %s: status %d: %s", p, resp.StatusCode, got)
		}
		if h := resp.Header.Get(CacheHeader); h != "hit" {
			t.Errorf("warm GET %s: cache header %q, want hit", p, h)
		}
		if !bytes.Equal(got, want[p]) {
			t.Errorf("warm GET %s differs from cold:\ncold: %s\nwarm: %s", p, want[p], got)
		}
	}
	if n := warmSrv.engine.Computes(); n != 0 {
		t.Errorf("warm engine ran %d computations, want 0", n)
	}
}

// TestCacheWarmNeverClobbers: entries already live in the target cache win
// over archived ones, and warming is additive — it never perturbs answers
// the target has already computed.
func TestCacheWarmNeverClobbers(t *testing.T) {
	_, donor := newTestServer(t, 1)
	fill(t, donor.URL)
	snap := dumpCache(t, donor.URL)

	tgtSrv, tgt := newTestServer(t, 1)
	resp, live := do(t, http.MethodGet, tgt.URL+warmPaths[0], "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-warm GET: %d", resp.StatusCode)
	}
	before := tgtSrv.engine.Computes()

	wresp, wbody := warmCache(t, tgt.URL, snap)
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("cache:warm status %d: %s", wresp.StatusCode, wbody)
	}
	var res WarmResult
	if err := scenario.UnmarshalStrict(wbody, &res); err != nil {
		t.Fatal(err)
	}
	if res.SkippedExisting == 0 {
		t.Errorf("expected live entries to be skipped, got %+v", res)
	}

	resp, after := do(t, http.MethodGet, tgt.URL+warmPaths[0], "")
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("post-warm cache header %q", h)
	}
	if !bytes.Equal(live, after) {
		t.Errorf("warming changed a live answer:\nbefore: %s\nafter:  %s", live, after)
	}
	if n := tgtSrv.engine.Computes(); n != before {
		t.Errorf("warming caused %d extra computations", n-before)
	}
}

// TestCacheWarmRejectsBadSnapshots: schema-mismatched, corrupt and
// truncated uploads are 400s and leave the cache untouched — the daemon
// keeps serving cold.
func TestCacheWarmRejectsBadSnapshots(t *testing.T) {
	donorSrv, donor := newTestServer(t, 1)
	fill(t, donor.URL)
	good := dumpCache(t, donor.URL)

	var mismatched bytes.Buffer
	if _, err := donorSrv.engine.cache.Dump(&mismatched, "fpsping-cache|v0|other-build", engineCodec{}); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)/2] ^= 0x40

	cases := []struct {
		name string
		snap []byte
	}{
		{"schema mismatch", mismatched.Bytes()},
		{"corrupt", corrupt},
		{"truncated", good[:len(good)-7]},
		{"empty", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, 1)
			resp, body := warmCache(t, ts.URL, tc.snap)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if n := srv.engine.CacheStats().Entries; n != 0 {
				t.Errorf("rejected snapshot left %d cache entries", n)
			}
			// Still serves, cold.
			resp, _ = do(t, http.MethodGet, ts.URL+warmPaths[0], "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("daemon broken after rejected warm: %d", resp.StatusCode)
			}
			if h := resp.Header.Get(CacheHeader); h != "miss" {
				t.Errorf("cache header %q after rejected warm, want miss", h)
			}
		})
	}
}

// TestCacheWarmRejectsOverCapUpload: an upload longer than the snapshot
// cap is a 400 that names the cap, not a checksum failure of the cut-off
// prefix, and the cache stays untouched.
func TestCacheWarmRejectsOverCapUpload(t *testing.T) {
	_, donor := newTestServer(t, 1)
	fill(t, donor.URL)
	snap := dumpCache(t, donor.URL)

	old := maxSnapshotBody
	maxSnapshotBody = int64(len(snap)) - 1
	t.Cleanup(func() { maxSnapshotBody = old })
	srv, ts := newTestServer(t, 1)
	resp, body := warmCache(t, ts.URL, snap)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if want := fmt.Sprintf("over %d bytes", maxSnapshotBody); !strings.Contains(string(body), want) {
		t.Errorf("body %s does not name the %d-byte cap", body, maxSnapshotBody)
	}
	if n := srv.engine.CacheStats().Entries; n != 0 {
		t.Errorf("over-cap snapshot left %d cache entries", n)
	}

	maxSnapshotBody = int64(len(snap))
	if resp, body := warmCache(t, ts.URL, snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot exactly at the cap: status %d: %s", resp.StatusCode, body)
	}
}

// TestDumpCacheRejectsUnknownValue: a memo value of a type the engine
// codec does not know fails the dump with an error naming its key, rather
// than dropping the entry from the snapshot.
func TestDumpCacheRejectsUnknownValue(t *testing.T) {
	e := NewEngine(1, 16)
	e.cache.Put("rtt|odd", 42)
	var buf bytes.Buffer
	_, err := e.DumpCache(&buf)
	if err == nil || !strings.Contains(err.Error(), `"rtt|odd"`) || !strings.Contains(err.Error(), "int") {
		t.Fatalf("DumpCache error %v, want one naming the key and the type", err)
	}
	if buf.Len() != 0 {
		t.Errorf("failed dump wrote %d bytes", buf.Len())
	}
}

// TestSchemaKeyCarriesArch pins the architecture stamp: the key names the
// GOARCH this binary was built for.
func TestSchemaKeyCarriesArch(t *testing.T) {
	fields := strings.Split(SchemaKey(), "|")
	if !slices.Contains(fields, runtime.GOARCH) {
		t.Errorf("schema key %q lacks GOARCH %q", SchemaKey(), runtime.GOARCH)
	}
}

// TestCacheWarmRejectsOtherArch: a snapshot whose schema key differs from
// this binary's only in the architecture is refused with the cache
// untouched, so an amd64 dump never warms an arm64 replica.
func TestCacheWarmRejectsOtherArch(t *testing.T) {
	donorSrv, donor := newTestServer(t, 1)
	fill(t, donor.URL)
	other := "arm64"
	if runtime.GOARCH == other {
		other = "amd64"
	}
	key := strings.Replace(SchemaKey(), "|"+runtime.GOARCH+"|", "|"+other+"|", 1)
	if key == SchemaKey() {
		t.Fatalf("schema key %q has no |%s| field to swap", key, runtime.GOARCH)
	}
	var snap bytes.Buffer
	if _, err := donorSrv.engine.cache.Dump(&snap, key, engineCodec{}); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, 1)
	resp, body := warmCache(t, ts.URL, snap.Bytes())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if n := srv.engine.CacheStats().Entries; n != 0 {
		t.Errorf("other-arch snapshot left %d cache entries", n)
	}
}

func TestCacheEndpointMethods(t *testing.T) {
	_, ts := newTestServer(t, 1)
	if resp, _ := do(t, http.MethodPost, ts.URL+"/v1/cache:dump", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST cache:dump status %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/cache:warm", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET cache:warm status %d", resp.StatusCode)
	}
}

func TestScenarioKeyOf(t *testing.T) {
	c := scenario.Default().Canonical()
	cases := []struct {
		key    string
		want   string
		wantOK bool
	}{
		{"rtt|" + c, c, true},
		{"pt|" + c, c, true},
		{"sweep|" + c + "|0.05|0.9|0.05", c, true},
		{"dim|" + c + "|50", c, true},
		{"bogus|" + c, "", false},
		{"noseparator", "", false},
		{"rtt|too|short", "", false},
	}
	for _, tc := range cases {
		got, ok := ScenarioKeyOf(tc.key)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("ScenarioKeyOf(%q) = %q, %v; want %q, %v", tc.key, got, ok, tc.want, tc.wantOK)
		}
	}
}

// TestPointRecordBytes pins the "pt|" snapshot record byte for byte: the
// bit-exact seconds, the gamers and the unstable marker only when set. The
// layout is part of cacheSchemaVersion 1; changing it needs a version bump.
func TestPointRecordBytes(t *testing.T) {
	key := "pt|" + scenario.Default().Canonical()
	cases := []struct {
		pm   pointMemo
		want string
	}{
		{pointMemo{Gamers: 80, RTT: 0.048512345678901234}, `{"gamers":80,"rtt":0.04851234567890123}`},
		{pointMemo{Gamers: 123.45678901234567, RTT: 1e-300}, `{"gamers":123.45678901234567,"rtt":1e-300}`},
		{pointMemo{Unstable: true}, `{"gamers":0,"rtt":0,"unstable":true}`},
	}
	for _, tc := range cases {
		data, err := engineCodec{}.Encode(key, tc.pm)
		if err != nil || string(data) != tc.want {
			t.Errorf("Encode(%+v) = %s, %v; want %s", tc.pm, data, err, tc.want)
			continue
		}
		back, err := engineCodec{}.Decode(key, data)
		if err != nil || back != tc.pm {
			t.Errorf("Decode(%s) = %+v, %v; want %+v", data, back, err, tc.pm)
		}
	}
	if _, err := (engineCodec{}).Decode(key, []byte(`{"gamers":80,"rtt":0.05,"compiled":{}}`)); err == nil {
		t.Error("a point record with an unknown field decoded")
	}
}
