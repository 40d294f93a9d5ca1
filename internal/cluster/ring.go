// Package cluster scales the serving layer out horizontally: a router
// tier consistent-hashes canonical cell keys across N indrasrv workers
// (in-process serve.Servers or separate processes over HTTP) so every
// key has exactly one owner, the owner's single-flight cache executes
// each cell once cluster-wide, and peers proxy to the owner instead of
// duplicating simulations.
//
// Dependability follows the paper one level up: just as the microcheck
// architecture treats a compromised core as a component to detect,
// contain, and revive, the router treats a dead worker as a component
// to detect (health probes, consecutive-failure ejection), contain
// (deterministic ring re-hash routes its keys to the surviving
// workers, in-flight requests re-route with an idempotent retry), and
// revive (consecutive-success re-admission puts it back on the ring).
// Because a cell key pins byte-identical output, re-executing a cell on
// the new owner after a mid-flight worker death is indistinguishable
// from the first attempt — failover is invisible in the response bytes.
//
// The one-owner-per-key-under-failure protocol follows the
// fault-tolerant Ivy template (SNIPPETS.md snippet 1): ownership is a
// pure function of (key, live member set), and every membership change
// is a deterministic re-hash. A worker's cache holds only results it
// simulated itself, so a dead owner's key re-simulates once on its
// successor; the key pins the bytes, so the answer does not change.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring mapping keys to worker ids. Each
// worker contributes vnodes points placed by FNV-64a (a fixed hash, so
// every router instance — and every rebuild after a membership change —
// derives the identical ring from the same member set); a key is owned
// by the first point at or clockwise after the key's own hash.
//
// A Ring is immutable: membership changes build a new ring from the
// new member set. Because point positions depend only on (worker id,
// vnode index), removing a worker moves exactly the keys that worker
// owned — the remapping-minimality property the failover protocol
// relies on (only the dead worker's keys change owner).
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted member ids
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given worker ids with vnodes virtual
// points per worker (0 selects the router's 128). Duplicate ids
// collapse; order is irrelevant. An empty member set yields a ring that
// owns nothing.
func NewRing(vnodes int, nodes []string) *Ring {
	if vnodes <= 0 {
		vnodes = ringVnodes
	}
	seen := make(map[string]bool, len(nodes))
	var members []string
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			members = append(members, n)
		}
	}
	sort.Strings(members)
	r := &Ring{nodes: members}
	r.points = make([]ringPoint, 0, len(members)*vnodes)
	for _, n := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// hash64 is FNV-64a through a splitmix64 finalizer. FNV is stable
// across processes and Go versions (unlike hash/maphash, whose seed is
// per-process), so every router derives the same ring; the finalizer
// adds the avalanche FNV lacks — worker ids and cell keys are
// near-identical strings, and raw FNV would place their points in
// clusters, skewing the load distribution.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the member ids, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the worker owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(key)].node
}

// Owners returns up to n distinct workers in ring order starting at
// key's owner — the key's failover preference list: if the owner is
// dead the next entry is the deterministic new owner, and so on.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.successor(key); len(owners) < n && i < len(r.points); i++ {
		node := r.points[(start+i)%len(r.points)].node
		if !seen[node] {
			seen[node] = true
			owners = append(owners, node)
		}
	}
	return owners
}

// successor returns the index of the first point at or after key's hash.
func (r *Ring) successor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
