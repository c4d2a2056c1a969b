package memo

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// BenchmarkMemoGetPut is lock contention in miniature: every goroutine works
// a 90% hot-hit / 10% churn-put mix on one cache. Run with -cpu 1,4,8 it
// shows what the single mutex costs as cores rise, so a lock regression
// fails the paired gate at high -cpu even if -cpu 1 looks fine.
func BenchmarkMemoGetPut(b *testing.B) {
	const keys = 256
	c := New[int](4096, 0)
	hot := make([]string, keys)
	for i := range hot {
		hot[i] = fmt.Sprintf("key-%d", i)
		c.Put(hot[i], i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(1))
		i := 0
		for pb.Next() {
			i++
			if i%10 == 0 {
				c.Put(fmt.Sprintf("churn-%d", rng.Intn(keys)), i)
			} else {
				get(c, hot[rng.Intn(keys)])
			}
		}
	})
}

// BenchmarkSnapshotDumpRestore is one snapshot round trip of a full default
// cache: Dump 4,096 records of 330 B (key and value) into a buffer, then
// Restore the stream into an empty cache.
func BenchmarkSnapshotDumpRestore(b *testing.B) {
	const entries = 4096
	src := New[string](entries, 0)
	for i := 0; i < entries; i++ {
		key := fmt.Sprintf("pt|%016x", i)
		src.Put(key, strings.Repeat("v", 330-len(key)))
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := src.Dump(&buf, "s", stringCodec{}); err != nil {
			b.Fatal(err)
		}
		if _, err := New[string](entries, 0).Restore(&buf, "s", stringCodec{}); err != nil {
			b.Fatal(err)
		}
	}
}
