// Package costcache provides a sharded, thread-safe cost cache with
// in-flight deduplication for what-if optimizer invocations. A cost
// evaluation keyed by (query, relevant-configuration) is expensive —
// a full optimizer pass — so the cache guarantees that concurrent
// workers never compute the same key twice: the first caller becomes
// the leader and runs the computation, later callers for the same key
// block until the leader publishes the value (the singleflight
// pattern, specialized to float64 costs).
//
// Sharding bounds lock contention: keys hash onto independent
// sync.RWMutex-protected maps, so workers costing candidates on
// different tables rarely touch the same lock.
package costcache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"indexmerge/internal/faults"
)

// DefaultShards is the shard count used when New is given n <= 0.
// 32 shards keep contention negligible for worker pools up to a few
// dozen goroutines while wasting little memory for small runs.
const DefaultShards = 32

// call is one in-flight computation. Waiters block in done.Wait; the
// happens-before edge of done.Done publishes val and err.
type call struct {
	done sync.WaitGroup
	val  float64
	err  error
}

type shard struct {
	mu       sync.RWMutex
	vals     map[string]float64
	inflight map[string]*call
	// fifo records insertion order for bounded caches. An entry may be
	// stale (its key already evicted through an older duplicate); evict
	// skips those. Unbounded caches leave it nil.
	fifo []string
}

// Cache is a sharded map from string keys to float64 costs, safe for
// concurrent use. The zero value is not usable; call New or NewBounded.
type Cache struct {
	seed        maphash.Seed
	shards      []shard
	maxPerShard int // 0 = unbounded

	imu sync.RWMutex
	ids map[string]uint32 // Intern's

	hits   atomic.Int64
	misses atomic.Int64
	dedups atomic.Int64
	bytes  atomic.Int64 // approximate resident bytes (entrySize per entry and interned text)
}

// entryBytes approximates one cached entry's resident footprint beyond
// its key text: the float64 value (or an interned text's uint32 ID)
// plus map-bucket overhead. The figure
// is deliberately coarse — the memory quota subsystem needs a stable,
// cheap accounting basis, not heap-exact numbers.
const entryBytes = 16

func entrySize(key string) int64 { return int64(len(key)) + entryBytes }

// New creates an unbounded cache with the given shard count
// (DefaultShards when n <= 0).
func New(n int) *Cache {
	return NewBounded(n, 0)
}

// NewBounded creates a cache with the given shard count (DefaultShards
// when shards <= 0) holding at most maxEntries values (<= 0 means
// unbounded). The bound is enforced per shard — each shard holds at
// most ceil(maxEntries/shards) entries, evicting its oldest entry
// first (FIFO) — so the global entry count never exceeds maxEntries
// rounded up to a multiple of the shard count. A long-running daemon
// must bound the cache: what-if cost keys grow with every distinct
// (query, relevant-configuration) pair ever evaluated.
func NewBounded(shards, maxEntries int) *Cache {
	if shards <= 0 {
		shards = DefaultShards
	}
	c := &Cache{seed: maphash.MakeSeed(), shards: make([]shard, shards)}
	if maxEntries > 0 {
		c.maxPerShard = (maxEntries + shards - 1) / shards
		if c.maxPerShard < 1 {
			c.maxPerShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i].vals = make(map[string]float64)
		c.shards[i].inflight = make(map[string]*call)
	}
	return c
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// GetBytes returns the cached value for key, if present. The caller
// holds the key as bytes, say in a buffer it reuses from lookup to
// lookup; the lookup does not allocate.
func (c *Cache) GetBytes(key []byte) (float64, bool) {
	s := &c.shards[maphash.Bytes(c.seed, key)%uint64(len(c.shards))]
	s.mu.RLock()
	v, ok := s.vals[string(key)]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

// Intern returns the cache's ID for text: 0, 1, 2, … in first-seen
// order, and the same for as long as the cache lives, so that callers
// sharing the cache may build keys from IDs instead of from the text
// (core.Pricer keys a cell by the IDs of its unit's relevant indexes).
// Interned text is held for the cache's life: Bytes counts it, and
// EvictOldest never reclaims it.
func (c *Cache) Intern(text string) uint32 {
	c.imu.RLock()
	id, ok := c.ids[text]
	c.imu.RUnlock()
	if ok {
		return id
	}
	c.imu.Lock()
	defer c.imu.Unlock()
	if id, ok := c.ids[text]; ok {
		return id
	}
	if c.ids == nil {
		c.ids = make(map[string]uint32)
	}
	id = uint32(len(c.ids))
	c.ids[text] = id
	c.bytes.Add(entrySize(text))
	return id
}

// Do returns the cached value for key, computing it with fn on a miss.
// Concurrent Do calls for the same key run fn exactly once: the first
// caller computes, the rest wait and share the result. fn runs without
// any shard lock held, so it may be arbitrarily expensive. Errors are
// propagated to every waiter and are not cached — a later Do retries.
// Callers look a key up (GetBytes) before they Do it, so Do goes
// straight to the shard's write lock.
func (c *Cache) Do(key string, fn func() (float64, error)) (float64, error) {
	if err := faults.Inject(faults.CostCacheDo); err != nil {
		return 0, err
	}
	s := c.shard(key)
	s.mu.Lock()
	if v, ok := s.vals[key]; ok {
		s.mu.Unlock()
		c.hits.Add(1)
		return v, nil
	}
	if cl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		c.dedups.Add(1)
		cl.done.Wait()
		return cl.val, cl.err
	}
	cl := new(call)
	cl.done.Add(1)
	s.inflight[key] = cl
	s.mu.Unlock()

	c.misses.Add(1)
	// Finalize in a defer so a panicking fn cannot leak the in-flight
	// entry: without this, every later Do for the key would block on
	// done forever. Waiters see ErrComputePanicked (transient — the
	// entry is not cached, so a retry recomputes); the panic itself
	// keeps unwinding the computing goroutine.
	finished := false
	defer func() {
		if !finished {
			cl.val, cl.err = 0, ErrComputePanicked
		}
		s.mu.Lock()
		if cl.err == nil {
			c.insertLocked(s, key, cl.val)
		}
		delete(s.inflight, key)
		s.mu.Unlock()
		cl.done.Done()
	}()
	cl.val, cl.err = fn()
	finished = true
	return cl.val, cl.err
}

// panickedError is ErrComputePanicked's type; Transient marks it
// retryable for the resilient costing path (the failed computation was
// never cached, so retrying recomputes it).
type panickedError struct{}

func (panickedError) Error() string   { return "costcache: in-flight cost computation panicked" }
func (panickedError) Transient() bool { return true }

// ErrComputePanicked is returned to waiters that were sharing an
// in-flight computation whose fn panicked.
var ErrComputePanicked error = panickedError{}

// insertLocked stores key, evicting the shard's oldest entries first
// when the shard is at capacity. Caller holds s.mu.
func (c *Cache) insertLocked(s *shard, key string, val float64) {
	if _, exists := s.vals[key]; !exists {
		if c.maxPerShard > 0 {
			for len(s.fifo) > 0 && len(s.vals) >= c.maxPerShard {
				old := s.fifo[0]
				s.fifo = s.fifo[1:]
				if _, ok := s.vals[old]; ok {
					delete(s.vals, old)
					c.bytes.Add(-entrySize(old))
				}
			}
			s.fifo = append(s.fifo, key)
		}
		c.bytes.Add(entrySize(key))
	}
	s.vals[key] = val
}

// EvictOldest removes up to n entries in FIFO insertion order (bounded
// caches only; an unbounded cache keeps no order and evicts nothing).
// Returns how many entries were actually dropped. The brownout ladder
// uses this to shed cold cost state under memory pressure without
// resetting hot entries.
func (c *Cache) EvictOldest(n int) int {
	dropped := 0
	for i := range c.shards {
		if dropped >= n {
			break
		}
		s := &c.shards[i]
		s.mu.Lock()
		for dropped < n && len(s.fifo) > 0 {
			old := s.fifo[0]
			s.fifo = s.fifo[1:]
			if _, ok := s.vals[old]; ok {
				delete(s.vals, old)
				c.bytes.Add(-entrySize(old))
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.vals)
		s.mu.RUnlock()
	}
	return n
}

// Stats reports lookup hits, computed misses, and deduplicated waits
// (calls that piggybacked on another worker's in-flight computation).
func (c *Cache) Stats() (hits, misses, dedups int64) {
	return c.hits.Load(), c.misses.Load(), c.dedups.Load()
}

// Bytes reports the approximate resident footprint of the cached
// entries and the interned text (key or text length plus a fixed
// per-entry overhead each). The figure is
// maintained incrementally on insert and evict, so it costs one
// atomic load — the accounting basis for per-tenant memory budgets.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }
