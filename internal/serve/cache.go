package serve

import (
	"context"
	"fmt"
	"hash/maphash"
	"sync"

	"indra/internal/obs"
)

// resultCache is a sharded result cache with single-flight execution.
// Entries are keyed by the canonical cell-key string; because equal
// keys name byte-identical runs, the first requester of a key becomes
// the *leader* and executes the simulation while concurrent requesters
// (*followers*) wait on the same entry. Successful results stay cached;
// failed executions are evicted so a later request retries instead of
// replaying a stale error.
type resultCache struct {
	seed   maphash.Seed
	shards []cacheShard
	// perShard caps each shard's entries; when full, an arbitrary
	// completed entry is evicted (in-flight entries are never evicted —
	// followers hold pointers into them).
	perShard     int
	hits, misses *obs.Counter
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

// cacheEntry is one key's result slot. done is closed exactly once,
// after out/err are set; waiters read them only after done.
type cacheEntry struct {
	done chan struct{}
	out  string
	err  error
}

func newResultCache(shards, entries int, hits, misses *obs.Counter) *resultCache {
	c := &resultCache{
		seed:     maphash.MakeSeed(),
		shards:   make([]cacheShard, shards),
		perShard: max(1, entries/shards),
		hits:     hits,
		misses:   misses,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

func (c *resultCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// do returns key's result, executing fn at most once per key across
// concurrent callers. cached reports whether this caller got the
// result without executing (a completed hit or an in-flight join).
// A follower whose ctx expires before the leader finishes returns
// ctx.Err(); the leader itself is never cancelled mid-execution — the
// result still lands in the cache for the next request.
func (c *resultCache) do(ctx context.Context, key string, fn func() (string, error)) (out string, cached bool, err error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		c.hits.Inc()
		select {
		case <-e.done:
			return e.out, true, e.err
		case <-ctx.Done():
			return "", true, ctx.Err()
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.makeRoom(sh)
	sh.m[key] = e
	c.misses.Inc()
	sh.mu.Unlock()

	e.out, e.err = c.run(fn)
	if e.err != nil {
		sh.mu.Lock()
		if sh.m[key] == e {
			delete(sh.m, key)
		}
		sh.mu.Unlock()
	}
	close(e.done)
	return e.out, false, e.err
}

// makeRoom evicts one completed entry from sh when it is full (see
// perShard). The caller holds sh.mu.
func (c *resultCache) makeRoom(sh *cacheShard) {
	if len(sh.m) < c.perShard {
		return
	}
	for k, old := range sh.m {
		select {
		case <-old.done:
			delete(sh.m, k)
			return
		default: // in-flight: keep, try another
		}
	}
}

// run executes fn, converting a panic into an error so a crashing
// leader still completes its entry (followers would otherwise wait for
// a close that never comes).
func (c *resultCache) run(fn func() (string, error)) (out string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: cell execution panicked: %v", p)
		}
	}()
	return fn()
}

// len reports the cached (and in-flight) entry count, for tests.
func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}
