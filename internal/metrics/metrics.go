// Package metrics owns the Prometheus text exposition that fpspingd and
// fpsrouter serve on /metrics. Every family is declared once, below. Page
// renders each family as one block under its # TYPE line, and Parse reads
// pages back through the same table.
package metrics

import (
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Family is one declared metric family. Pages render families in
// declaration order.
type Family int

type family struct{ name, kind, label string }

var (
	table  []family
	byName = make(map[string]Family)
)

// declare adds a family to the table. label is the key of the family's one
// per-series label ("" for a single-series family). A summary's _sum and
// _count samples resolve to the summary.
func declare(name, kind, label string) Family {
	f := Family(len(table))
	table = append(table, family{name, kind, label})
	byName[name] = f
	if kind == "summary" {
		byName[name+"_sum"], byName[name+"_count"] = f, f
	}
	return f
}

var (
	Uptime            = declare("fpsping_uptime_seconds", "gauge", "")
	Requests          = declare("fpsping_requests_total", "counter", "endpoint")
	RequestErrors     = declare("fpsping_request_errors_total", "counter", "endpoint")
	CacheHits         = declare("fpsping_cache_hits_total", "counter", "endpoint")
	RequestLatency    = declare("fpsping_request_latency_seconds", "summary", "endpoint")
	CacheEntries      = declare("fpsping_cache_entries", "gauge", "")
	CacheLookupHits   = declare("fpsping_cache_lookup_hits_total", "counter", "")
	CacheLookupMisses = declare("fpsping_cache_lookup_misses_total", "counter", "")
	CacheEvictions    = declare("fpsping_cache_evictions_total", "counter", "")
	DimensionProbes   = declare("fpsping_dimension_probes", "summary", "")
	RouterReplicas    = declare("fpsrouter_replicas", "gauge", "")
	RouterRetries     = declare("fpsrouter_retries_total", "counter", "")
	RouterSpills      = declare("fpsrouter_spills_total", "counter", "")
	RouterBatchSplits = declare("fpsrouter_batch_splits_total", "counter", "")
	RouterNoReplica   = declare("fpsrouter_no_replica_total", "counter", "")
	ReplicaUp         = declare("fpsrouter_replica_up", "gauge", "replica")
	ReplicaReady      = declare("fpsrouter_replica_ready", "gauge", "replica")
	ReplicaRequests   = declare("fpsrouter_replica_requests_total", "counter", "replica")
	ReplicaErrors     = declare("fpsrouter_replica_errors_total", "counter", "replica")
	ReplicaInflight   = declare("fpsrouter_replica_inflight", "gauge", "replica")
	BreakerOpen       = declare("fpsrouter_breaker_open", "gauge", "replica")
)

// Page is one exposition page under construction. Samples are filed under
// their family, and String renders each family's # TYPE line and samples.
type Page struct{ lines map[Family][]string }

// Add files one sample; label is the value of the family's label key ("" for
// the unlabeled series). v is an integer, a bool (1 or 0) or a Duration.
func (p *Page) Add(f Family, label string, v any) {
	switch x := v.(type) {
	case bool:
		v = 0
		if x {
			v = 1
		}
	case time.Duration:
		v = strconv.FormatFloat(x.Seconds(), 'f', 3, 64)
	}
	p.add(f, "", labels(f, label, ""), v)
}

func (p *Page) add(f Family, suffix, labels string, v any) {
	if p.lines == nil {
		p.lines = make(map[Family][]string)
	}
	p.lines[f] = append(p.lines[f], fmt.Sprintf("%s%s%s %v\n", table[f].name, suffix, labels, v))
}

// labels renders a label set: the family's label if value is set, then extra.
func labels(f Family, value, extra string) string {
	if value != "" {
		extra = strings.TrimSuffix(fmt.Sprintf("%s=%q,%s", table[f].label, value, extra), ",")
	}
	if extra == "" {
		return ""
	}
	return "{" + extra + "}"
}

// String renders the page.
func (p *Page) String() string {
	var b strings.Builder
	for _, f := range slices.Sorted(maps.Keys(p.lines)) {
		fmt.Fprintf(&b, "# TYPE %s %s\n%s", table[f].name, table[f].kind, strings.Join(p.lines[f], ""))
	}
	return b.String()
}

// Sample is one parsed sample of a declared family.
type Sample struct {
	Family Family
	// Suffix is "_sum" or "_count" on a summary's pair; Label is the value
	// of the family's label key and Quantile a summary sample's level.
	Suffix, Label, Quantile string
	Value                   float64
}

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})?\s+(\S+)$`)
	labelPair  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"`)
)

// Parse returns a page's samples of declared families in page order. It
// skips other families, so a page that grows families still reads, and it
// needs no # TYPE lines, so an older daemon's untyped page reads the same.
func Parse(data []byte) ([]Sample, error) {
	var samples []Sample
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("metrics: unparsable line %q", line)
		}
		value, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %s value %q: %w", m[1], m[3], err)
		}
		f, ok := byName[m[1]]
		if !ok {
			continue
		}
		ls := make(map[string]string)
		for _, kv := range labelPair.FindAllStringSubmatch(m[2], -1) {
			ls[kv[1]] = kv[2]
		}
		samples = append(samples, Sample{f, strings.TrimPrefix(m[1], table[f].name), ls[table[f].label], ls["quantile"], value})
	}
	return samples, nil
}
