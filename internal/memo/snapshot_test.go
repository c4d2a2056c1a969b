package memo

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// stringCodec snapshots string values verbatim; keys starting with "bad|"
// hold values it can neither encode nor decode.
type stringCodec struct{}

func (stringCodec) Encode(key, val string) ([]byte, error) {
	if strings.HasPrefix(key, "bad|") {
		return nil, errors.New("no encoding")
	}
	return []byte(val), nil
}

func (stringCodec) Decode(key string, data []byte) (string, error) {
	if strings.HasPrefix(key, "bad|") {
		return "", errors.New("no decoding")
	}
	return string(data), nil
}

// recencyOrder lists the cache's keys front (most recently used) to back.
func recencyOrder(c *Cache[string]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[string]).key)
	}
	return out
}

// dump is the test shorthand for a buffer-backed Dump.
func dump(t *testing.T, c *Cache[string], schema string) []byte {
	t.Helper()
	var buf bytes.Buffer
	st, err := c.Dump(&buf, schema, stringCodec{})
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if st.Bytes != int64(buf.Len()) {
		t.Fatalf("DumpStats.Bytes %d, wrote %d", st.Bytes, buf.Len())
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip is the headline property: Dump then Restore into an
// identically configured empty cache reproduces every entry and the recency
// order, and leaves the lookup counters of both caches untouched. Runs over
// several shapes, including eviction-churned ones and legacy shard
// arguments, which the cache ignores.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name             string
		capacity, shards int
		keys             int
	}{
		{"single-shard", 64, 1, 40},
		{"sharded", 256, 8, 200},
		{"evicting", 32, 4, 200}, // more keys than capacity: churn + evictions
		{"tiny", 1, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := New[string](tc.capacity, tc.shards)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < tc.keys; i++ {
				src.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
			}
			// Shuffle recency with a burst of Gets so order differs from
			// insertion order.
			for i := 0; i < tc.keys; i++ {
				get(src, fmt.Sprintf("key-%03d", rng.Intn(tc.keys)))
			}
			statsBefore := src.Stats()

			snap := dump(t, src, "schema-v1")
			assertStatsEqual(t, "dump must not disturb counters", statsBefore, src.Stats())

			dst := New[string](tc.capacity, tc.shards)
			st, err := dst.Restore(bytes.NewReader(snap), "schema-v1", stringCodec{})
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if st.Restored != src.Stats().Entries || st.SkippedExisting != 0 || st.SkippedFull != 0 {
				t.Fatalf("RestoreStats %+v, want %d restored and nothing skipped", st, src.Stats().Entries)
			}
			if dst.Stats().Entries != src.Stats().Entries {
				t.Fatalf("restored %d entries, want %d", dst.Stats().Entries, src.Stats().Entries)
			}
			srcOrder := recencyOrder(src)
			if dstOrder := recencyOrder(dst); fmt.Sprint(srcOrder) != fmt.Sprint(dstOrder) {
				t.Fatalf("recency differs:\n src %v\n dst %v", srcOrder, dstOrder)
			}
			for _, key := range srcOrder {
				want, _ := src.Peek(key)
				got, ok := dst.Peek(key)
				if !ok || got != want {
					t.Fatalf("key %q: restored %q (present %v), want %q", key, got, ok, want)
				}
			}
			// Restore must not have counted hits, misses or evictions.
			rs := dst.Stats()
			if rs.Hits != 0 || rs.Misses != 0 || rs.Evictions != 0 {
				t.Fatalf("restore distorted counters: %+v", rs)
			}
		})
	}
}

func assertStatsEqual(t *testing.T, msg string, a, b Stats) {
	t.Helper()
	if a.Entries != b.Entries || a.Hits != b.Hits || a.Misses != b.Misses || a.Evictions != b.Evictions {
		t.Fatalf("%s: %+v vs %+v", msg, a, b)
	}
}

// TestDumpFailsOnUnencodableValue: a value the codec cannot encode fails
// the whole Dump with an error naming its key, and nothing is written, so
// a snapshot never silently lacks an entry.
func TestDumpFailsOnUnencodableValue(t *testing.T) {
	c := New[string](16, 2)
	c.Put("rtt|a", "1")
	c.Put("bad|compiled", "not serializable")
	c.Put("rtt|b", "2")
	var buf bytes.Buffer
	st, err := c.Dump(&buf, "s", stringCodec{})
	if err == nil || !strings.Contains(err.Error(), `"bad|compiled"`) {
		t.Fatalf("Dump error %v, want one naming \"bad|compiled\"", err)
	}
	if buf.Len() != 0 || st != (DumpStats{}) {
		t.Fatalf("failed Dump wrote %d bytes, stats %+v", buf.Len(), st)
	}
}

// TestRestoreNeverClobbers pins the warm-endpoint semantics: a key already
// live keeps its (newer) value, restored entries rank behind every live
// entry in recency, and a full cache skips archived entries instead of
// evicting live ones.
func TestRestoreNeverClobbers(t *testing.T) {
	src := New[string](8, 1)
	src.Put("a", "old-a")
	src.Put("b", "old-b")
	src.Put("c", "old-c")
	snap := dump(t, src, "s")

	dst := New[string](8, 1)
	dst.Put("a", "new-a") // live entry predating the restore
	st, err := dst.Restore(bytes.NewReader(snap), "s", stringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 2 || st.SkippedExisting != 1 {
		t.Fatalf("RestoreStats %+v, want 2 restored 1 existing", st)
	}
	if v, _ := dst.Peek("a"); v != "new-a" {
		t.Fatalf("restore clobbered live entry: %q", v)
	}
	// Live "a" must outrank both archived entries; archived order (c newest,
	// b older) must be preserved behind it.
	if got := fmt.Sprint(recencyOrder(dst)); got != "[a c b]" {
		t.Fatalf("recency after mixed restore: %v", got)
	}

	full := New[string](2, 1)
	full.Put("x", "live-x")
	full.Put("y", "live-y")
	st, err = full.Restore(bytes.NewReader(snap), "s", stringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 0 || st.SkippedFull != 3 {
		t.Fatalf("RestoreStats %+v, want everything skipped-full", st)
	}
	if full.Stats().Evictions != 0 {
		t.Fatal("restore evicted a live entry")
	}
}

// TestRestoreRejectsBadSnapshots drives every rejection path: corruption,
// truncation, bad magic/version, schema mismatch, trailing garbage and
// oversized length fields. Each must fail with the right sentinel and leave
// the cache untouched — the "boot cold, never crash" contract.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	src := New[string](16, 2)
	for i := 0; i < 10; i++ {
		src.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	good := dump(t, src, "schema-v1")

	// fixCRC rewrites the trailing checksum so a mutation is tested on its
	// own merits, not masked by the CRC gate.
	fixCRC := func(b []byte) []byte {
		body := b[:len(b)-4]
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(body))
		return b
	}
	corrupt := func(mut func([]byte) []byte) []byte {
		return mut(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrSnapshot},
		{"short", good[:4], ErrSnapshot},
		{"bad-magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return fixCRC(b) }), ErrSnapshot},
		{"bad-version", corrupt(func(b []byte) []byte { b[7] = '9'; return fixCRC(b) }), ErrSnapshot},
		{"flipped-byte", corrupt(func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }), ErrSnapshot},
		{"truncated", good[:len(good)-9], ErrSnapshot},
		{"trailing-garbage", corrupt(func(b []byte) []byte { return fixCRC(append(b, 0xde, 0xad, 0, 0)) }), ErrSnapshot},
		{"schema-mismatch", good, ErrSchemaMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := New[string](16, 2)
			schema := "schema-v1"
			if tc.name == "schema-mismatch" {
				schema = "schema-v2"
			}
			_, err := dst.Restore(bytes.NewReader(tc.data), schema, stringCodec{})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
			if dst.Stats().Entries != 0 {
				t.Fatalf("rejected restore still applied %d entries", dst.Stats().Entries)
			}
		})
	}
}

// TestRestoreRejectsCorruptionBeforeApplying flips every single byte of a
// small snapshot in turn; no mutation may ever half-restore (a prefix of
// entries applied then an error) — the cache is all-or-nothing.
func TestRestoreRejectsCorruptionBeforeApplying(t *testing.T) {
	src := New[string](8, 1)
	src.Put("alpha", "1")
	src.Put("beta", "2")
	good := dump(t, src, "s")
	for i := range good {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), good...)
			mut[i] ^= flip
			dst := New[string](8, 1)
			_, err := dst.Restore(bytes.NewReader(mut), "s", stringCodec{})
			if err == nil {
				// A flip confined to value bytes plus a colliding CRC is the
				// only way this could legitimately succeed; CRC32 makes a
				// single-bit collision impossible.
				t.Fatalf("byte %d flip %#x: corrupt snapshot accepted", i, flip)
			}
			if dst.Stats().Entries != 0 {
				t.Fatalf("byte %d flip %#x: half-restored %d entries", i, flip, dst.Stats().Entries)
			}
		}
	}
}

// TestSnapshotAcrossShardCounts: a snapshot restores whole whatever shard
// argument either cache was built with. In particular a full 4096-entry
// dump restores all 4096 entries into a 4096-entry cache: nothing is
// skipped as full.
func TestSnapshotAcrossShardCounts(t *testing.T) {
	src := New[string](128, 8)
	for i := 0; i < 100; i++ {
		src.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i))
	}
	snap := dump(t, src, "s")
	for _, shards := range []int{1, 2, 16} {
		dst := New[string](256, shards)
		st, err := dst.Restore(bytes.NewReader(snap), "s", stringCodec{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if st.Restored != 100 || dst.Stats().Entries != 100 {
			t.Fatalf("shards=%d: restored %d/%d", shards, st.Restored, dst.Stats().Entries)
		}
	}

	const capacity = 4096
	full := New[string](capacity, 1)
	for i := 0; i < capacity; i++ {
		full.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i))
	}
	dst := New[string](capacity, 8)
	st, err := dst.Restore(bytes.NewReader(dump(t, full, "s")), "s", stringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != capacity || st.SkippedFull != 0 || dst.Stats().Entries != capacity {
		t.Fatalf("full dump into an equal-capacity cache: %+v, len %d; want all %d restored",
			st, dst.Stats().Entries, capacity)
	}
}

// TestSnapshotRestoresEvictionOrder pins the stream order end to end: after
// Dump and Restore into an empty cache, fresh inserts evict the restored
// entries in exactly the order the source cache would have evicted them,
// least recently used first across the whole cache.
func TestSnapshotRestoresEvictionOrder(t *testing.T) {
	const capacity = 64
	src := New[string](capacity, 8)
	for i := 0; i < capacity; i++ {
		src.Put(fmt.Sprintf("key-%02d", i), "v")
	}
	// Touch every key once in a shuffled order: perm[0] ends least recently
	// used, perm[capacity-1] most.
	perm := rand.New(rand.NewSource(3)).Perm(capacity)
	for _, i := range perm {
		get(src, fmt.Sprintf("key-%02d", i))
	}
	dst := New[string](capacity, 8)
	if _, err := dst.Restore(bytes.NewReader(dump(t, src, "s")), "s", stringCodec{}); err != nil {
		t.Fatal(err)
	}
	for n, i := range perm {
		dst.Put(fmt.Sprintf("fresh-%02d", n), "v")
		if _, ok := dst.Peek(fmt.Sprintf("key-%02d", i)); ok {
			t.Fatalf("fresh insert %d did not evict key-%02d, the least recently used entry", n, i)
		}
		if n+1 < capacity {
			if _, ok := dst.Peek(fmt.Sprintf("key-%02d", perm[n+1])); !ok {
				t.Fatalf("fresh insert %d evicted key-%02d out of order", n, perm[n+1])
			}
		}
	}
}

// TestFilterSnapshot pins the router-bootstrap primitive: filtering keeps
// exactly the selected records (order preserved, schema passed through,
// fresh checksum) without a codec, and the output is itself a valid
// snapshot.
func TestFilterSnapshot(t *testing.T) {
	src := New[string](64, 4)
	for i := 0; i < 20; i++ {
		src.Put(fmt.Sprintf("key-%02d", i), fmt.Sprintf("v%d", i))
	}
	snap := dump(t, src, "schema-xyz")

	var out bytes.Buffer
	st, err := FilterSnapshot(bytes.NewReader(snap), &out, func(key string) bool {
		return strings.HasSuffix(key, "0") // key-00, key-10
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != 2 || st.Dropped != 18 {
		t.Fatalf("FilterStats %+v, want 2 kept 18 dropped", st)
	}
	dst := New[string](64, 4)
	rst, err := dst.Restore(bytes.NewReader(out.Bytes()), "schema-xyz", stringCodec{})
	if err != nil {
		t.Fatalf("restoring filtered snapshot: %v", err)
	}
	if rst.Restored != 2 || dst.Stats().Entries != 2 {
		t.Fatalf("filtered restore %+v len %d, want 2", rst, dst.Stats().Entries)
	}
	for _, key := range []string{"key-00", "key-10"} {
		if _, ok := dst.Peek(key); !ok {
			t.Fatalf("filtered snapshot lost %q", key)
		}
	}
	// Filtering a corrupt stream fails without writing records.
	bad := append([]byte(nil), snap...)
	bad[len(bad)-1] ^= 0xff
	var discard bytes.Buffer
	if _, err := FilterSnapshot(bytes.NewReader(bad), &discard, func(string) bool { return true }); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("filter of corrupt snapshot: %v, want ErrSnapshot", err)
	}
}

// TestSnapshotEmptyCache: dumping an empty cache yields a valid snapshot
// that restores to nothing.
func TestSnapshotEmptyCache(t *testing.T) {
	snap := dump(t, New[string](16, 2), "s")
	dst := New[string](16, 2)
	st, err := dst.Restore(bytes.NewReader(snap), "s", stringCodec{})
	if err != nil || st.Restored != 0 || dst.Stats().Entries != 0 {
		t.Fatalf("empty round trip: stats %+v len %d err %v", st, dst.Stats().Entries, err)
	}
}

// TestSnapshotStreamBytes pins the wire format byte for byte: a four-key
// cache (one key per engine key space, values shaped like their JSON
// records) dumps to a literal stream, and a FilterSnapshot of that stream
// to a literal output. Any change to the magic, the length prefixes, the
// record order, the end tag or the checksum fails here, so snapshots
// written by one build keep restoring under the next.
func TestSnapshotStreamBytes(t *testing.T) {
	c := New[string](8, 1)
	c.Put("dim|k9|50", `{"max_load":0.7}`)
	c.Put("sweep|k9|0.1|0.9|0.4", `[1,2,3]`)
	c.Put("pt|k9", `{"gamers":40}`)
	c.Put("rtt|k9", `{"rtt_ms":48.5}`)

	// Hex fields: tag, u32 little-endian length, bytes.
	const (
		header = "4650534d454d4f31" + // "FPSMEMO1"
			"15000000" + "66707370696e672d63616368657c76317c74657374" // "fpsping-cache|v1|test"
		recRTT = "01" + "06000000" + "7274747c6b39" + // "rtt|k9"
			"0f000000" + "7b227274745f6d73223a34382e357d" // {"rtt_ms":48.5}
		recPt = "01" + "05000000" + "70747c6b39" + // "pt|k9"
			"0d000000" + "7b2267616d657273223a34307d" // {"gamers":40}
		recSweep = "01" + "14000000" + "73776565707c6b397c302e317c302e397c302e34" + // "sweep|k9|0.1|0.9|0.4"
			"07000000" + "5b312c322c335d" // [1,2,3]
		recDim = "01" + "09000000" + "64696d7c6b397c3530" + // "dim|k9|50"
			"10000000" + "7b226d61785f6c6f6164223a302e377d" // {"max_load":0.7}
		end = "00"

		// Most recently used first; the trailing u32 is the CRC-32.
		want         = header + recRTT + recPt + recSweep + recDim + end + "631dca22"
		wantFiltered = header + recRTT + recSweep + recDim + end + "18c19772"
	)
	got := dump(t, c, "fpsping-cache|v1|test")
	if hex.EncodeToString(got) != want {
		t.Fatalf("dump stream changed:\n got %x\nwant %s", got, want)
	}
	var out bytes.Buffer
	st, err := FilterSnapshot(bytes.NewReader(got), &out, func(key string) bool {
		return !strings.HasPrefix(key, "pt|")
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != 3 || st.Dropped != 1 {
		t.Fatalf("FilterStats %+v, want 3 kept 1 dropped", st)
	}
	if hex.EncodeToString(out.Bytes()) != wantFiltered {
		t.Fatalf("filtered stream changed:\n got %x\nwant %s", out.Bytes(), wantFiltered)
	}
}

// FuzzRestoreSnapshot fuzzes the reader behind /v1/cache:warm uploads. The
// input is a stream without its trailing CRC-32, which the target appends,
// so mutations reach the parser instead of stopping at the checksum. No
// input may panic; a rejected stream must leave a live cache's entries and
// recency order as they were; an accepted stream, passed through a
// keep-all FilterSnapshot, must come back as exactly its own bytes.
func FuzzRestoreSnapshot(f *testing.F) {
	const schema = "fpsping-cache|v1|test"
	for _, keys := range [][]string{nil, {"rtt|k9"}, {"rtt|k9", "live|a", "pt|k9", "dim|k9|50"}} {
		c := New[string](8, 1)
		for i, key := range keys {
			c.Put(key, strings.Repeat("v", i))
		}
		var buf bytes.Buffer
		if _, err := c.Dump(&buf, schema, stringCodec{}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[:buf.Len()-4])
	}
	// A well-formed stream whose second record the codec cannot decode.
	undecodable := encodeSnapshot(schema, []rawRecord{{"rtt|k9", []byte("v")}, {"bad|k9", []byte("v")}})
	f.Add(undecodable[:len(undecodable)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))

		var out bytes.Buffer
		_, filterErr := FilterSnapshot(bytes.NewReader(data), &out, func(string) bool { return true })
		if filterErr == nil && !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("keep-all filter changed an accepted stream:\n in %x\nout %x", data, out.Bytes())
		}

		c := New[string](3, 1)
		c.Put("live|a", "1")
		c.Put("live|b", "2")
		before := recencyOrder(c)
		_, err := c.Restore(bytes.NewReader(data), schema, stringCodec{})
		if err == nil {
			if filterErr != nil {
				t.Fatalf("Restore accepted a stream FilterSnapshot rejected: %v", filterErr)
			}
			return
		}
		if after := recencyOrder(c); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("rejected stream (%v) changed the cache: %v, was %v", err, after, before)
		}
		for key, want := range map[string]string{"live|a": "1", "live|b": "2"} {
			if got, _ := c.Peek(key); got != want {
				t.Fatalf("rejected stream (%v) changed %q to %q", err, key, got)
			}
		}
	})
}
