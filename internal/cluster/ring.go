// Package cluster scales fpspingd from one daemon to a fleet without
// giving up cache locality: a consistent-hash ring assigns every canonical
// scenario key (internal/scenario) to one owning replica, a routing policy
// turns that assignment into a request path, and a reverse-proxy Router
// (cmd/fpsrouter) drives real traffic through it with health-based failover
// and per-replica circuit breaking. The same ring and policies also power a
// deterministic event-driven ClusterSimulator, so "what hit-ratio and p99
// does policy X give at M replicas" is answerable byte-reproducibly before
// a single socket is opened — and CI then checks the real cluster against
// the simulator's ordering.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per replica when the caller does
// not choose one: enough points that the largest arc stays within a few
// percent of fair share at single-digit replica counts.
const DefaultVNodes = 64

// MaxVNodes bounds the ring size against configuration typos.
const MaxVNodes = 4096

// point is one virtual node on the ring.
type point struct {
	hash    uint64
	replica int
}

// Ring is an immutable consistent-hash ring over named replicas, each
// contributing vnodes virtual points. Key assignment depends only on the
// replica names, the vnode count and the key bytes — never on process
// state, insertion order, GOMAXPROCS or randomness — so two routers (or a
// router restarted) built from the same configuration agree on every owner.
type Ring struct {
	replicas []string
	vnodes   int
	points   []point
}

// hash64 is the ring's stable hash: FNV-1a followed by a 64-bit avalanche
// finalizer (murmur3's fmix64). Both are fixed published functions, so
// assignments survive process restarts and Go version changes. The finalizer
// matters: raw FNV-1a of strings sharing a long prefix ("replica-00#0",
// "replica-00#1", ...) stays clustered in a narrow band of the hash space,
// which collapses a replica's virtual nodes into one arc and can hand an
// entire key family to one replica.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewRing builds a ring over the given replica names (base URLs in the real
// router, synthetic names in the simulator). vnodes <= 0 means
// DefaultVNodes.
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if vnodes > MaxVNodes {
		return nil, fmt.Errorf("cluster: %d vnodes over the %d cap", vnodes, MaxVNodes)
	}
	seen := make(map[string]bool, len(replicas))
	for _, name := range replicas {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty replica name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate replica %q", name)
		}
		seen[name] = true
	}
	r := &Ring{
		replicas: append([]string(nil), replicas...),
		vnodes:   vnodes,
		points:   make([]point, 0, len(replicas)*vnodes),
	}
	for i, name := range r.replicas {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", name, v)), replica: i})
		}
	}
	// Hash-colliding points (astronomically unlikely, but the ring must be a
	// total order) break ties by replica index so the sort is deterministic.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r, nil
}

// Size returns the number of replicas.
func (r *Ring) Size() int { return len(r.replicas) }

// VNodes returns the virtual-node count per replica.
func (r *Ring) VNodes() int { return r.vnodes }

// successor returns the index into points of the first point at or after
// the key's hash, wrapping at the top of the ring.
func (r *Ring) successor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the replica index owning key: the replica of the first
// virtual point clockwise from the key's hash.
func (r *Ring) Owner(key string) int {
	return r.points[r.successor(key)].replica
}

// Owners returns up to n distinct replica indices in clockwise ring order
// starting at the key's owner: the owner first, then the natural failover
// sequence (the replicas whose arcs the key would fall into if the ones
// before them disappeared). n <= 0 or n > Size returns all replicas.
func (r *Ring) Owners(key string, n int) []int {
	if n <= 0 || n > len(r.replicas) {
		n = len(r.replicas)
	}
	out := make([]int, 0, n)
	seen := make([]bool, len(r.replicas))
	for i, start := 0, r.successor(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}
