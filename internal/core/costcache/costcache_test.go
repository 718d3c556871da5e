package costcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetAndDo(t *testing.T) {
	c := New(0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	v, err := c.Do("a", func() (float64, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if v, ok := c.Get("a"); !ok || v != 42 {
		t.Fatalf("Get after Do = %v, %v", v, ok)
	}
	// Second Do must not recompute.
	v, err = c.Do("a", func() (float64, error) {
		t.Error("recomputed a cached key")
		return 0, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("cached Do = %v, %v", v, err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

// TestGetBytesMatchesGet: a key held as bytes finds what the same key
// as a string stored, counts as a hit, and costs no allocation.
func TestGetBytesMatchesGet(t *testing.T) {
	c := New(0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("ns\x1dq%d|t(a,b)\x1f", i)
		if _, err := c.Do(key, func() (float64, error) { return float64(i), nil }); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 64)
	for i := 0; i < 100; i++ {
		buf = fmt.Appendf(buf[:0], "ns\x1dq%d|t(a,b)\x1f", i)
		if v, ok := c.GetBytes(buf); !ok || v != float64(i) {
			t.Fatalf("GetBytes(%q) = %v, %v", buf, v, ok)
		}
	}
	if _, ok := c.GetBytes([]byte("absent")); ok {
		t.Fatal("GetBytes found a key that was never stored")
	}
	if hits, misses, _ := c.Stats(); hits != 100 || misses != 100 {
		t.Errorf("hits %d misses %d, want 100 and 100", hits, misses)
	}
	if n := testing.AllocsPerRun(100, func() { c.GetBytes(buf) }); n != 0 {
		t.Errorf("GetBytes allocates %v objects per call", n)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (float64, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("error value was cached")
	}
	// A later Do retries and can succeed.
	v, err := c.Do("k", func() (float64, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %v, %v", v, err)
	}
}

// TestInflightDedup: concurrent Do calls for one key run fn exactly
// once and all observe the same value.
func TestInflightDedup(t *testing.T) {
	c := New(1) // single shard maximizes contention
	var computed atomic.Int64
	release := make(chan struct{})
	const workers = 16

	var wg sync.WaitGroup
	results := make([]float64, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("key", func() (float64, error) {
				computed.Add(1)
				<-release // hold the computation so others pile up
				return 99, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 99 {
			t.Errorf("worker %d saw %v", i, v)
		}
	}
	hits, misses, dedups := c.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if hits+dedups != workers-1 {
		t.Errorf("hits(%d)+dedups(%d) != %d", hits, dedups, workers-1)
	}
}

func put(t *testing.T, c *Cache, key string, val float64) {
	t.Helper()
	got, err := c.Do(key, func() (float64, error) { return val, nil })
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	if got != val {
		t.Fatalf("Do(%q) = %v, want %v", key, got, val)
	}
}

func TestBoundedEvictsOldestFirst(t *testing.T) {
	c := NewBounded(1, 4) // one shard so FIFO order is global
	for i := 0; i < 6; i++ {
		put(t, c, fmt.Sprintf("k%d", i), float64(i))
	}
	if n := c.Len(); n != 4 {
		t.Fatalf("Len = %d after 6 inserts with bound 4, want 4", n)
	}
	for _, gone := range []string{"k0", "k1"} {
		if _, ok := c.Get(gone); ok {
			t.Errorf("oldest key %s survived eviction", gone)
		}
	}
	for _, kept := range []string{"k2", "k3", "k4", "k5"} {
		if _, ok := c.Get(kept); !ok {
			t.Errorf("recent key %s was evicted", kept)
		}
	}
}

func TestBoundedRecomputesEvictedKey(t *testing.T) {
	c := NewBounded(1, 2)
	calls := 0
	compute := func() (float64, error) { calls++; return 7, nil }
	if _, err := c.Do("a", compute); err != nil {
		t.Fatal(err)
	}
	put(t, c, "b", 1)
	put(t, c, "c", 2) // evicts "a"
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, err := c.Do("a", compute); err != nil || v != 7 {
		t.Fatalf("recompute a: %v, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (evicted key must recompute)", calls)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New(1)
	for i := 0; i < 1000; i++ {
		put(t, c, fmt.Sprintf("k%d", i), float64(i))
	}
	if n := c.Len(); n != 1000 {
		t.Fatalf("Len = %d, want 1000", n)
	}
}

// TestBoundedConcurrentStaysWithinBound mixes concurrent Do with
// periodic EvictOldest; under -race this validates the eviction locking,
// and the final size validates the bound.
func TestBoundedConcurrentStaysWithinBound(t *testing.T) {
	const shards, maxEntries, workers, keys = 4, 16, 8, 200
	c := NewBounded(shards, maxEntries)
	perShard := (maxEntries + shards - 1) / shards
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("k%d", (i+w)%keys)
				if _, err := c.Do(k, func() (float64, error) { return float64(i), nil }); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 && w == 0 {
					c.EvictOldest(maxEntries)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > perShard*shards {
		t.Fatalf("Len = %d exceeds bound %d", n, perShard*shards)
	}
}

// TestConcurrentStress hammers many keys from many goroutines; run
// under -race this validates the locking discipline, and the
// per-key computation counts validate exactly-once semantics.
func TestConcurrentStress(t *testing.T) {
	c := New(8)
	const keys = 64
	const workers = 32
	const rounds = 50

	var computed [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w*7 + r) % keys
				key := fmt.Sprintf("key-%d", k)
				v, err := c.Do(key, func() (float64, error) {
					computed[k].Add(1)
					return float64(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != float64(k) {
					t.Errorf("key %d = %v", k, v)
					return
				}
				if got, ok := c.Get(key); ok && got != float64(k) {
					t.Errorf("Get(%s) = %v", key, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := range computed {
		if n := computed[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
	if c.Len() != keys {
		t.Errorf("Len = %d, want %d", c.Len(), keys)
	}
}

// TestBoundedEvictionInflightRace hammers a tiny bounded cache with
// more hot keys than capacity, so FIFO eviction runs continuously while
// other goroutines dedup onto in-flight computations of the very same
// keys. The audit invariants: a Do call increments exactly one of
// hits/misses/dedups, the miss counter equals the number of actual fn
// executions (an eviction racing an in-flight computation must neither
// double-count an optimizer call nor drop its result), every caller
// observes the correct value, and the entry count respects the bound.
func TestBoundedEvictionInflightRace(t *testing.T) {
	const (
		shards  = 4
		bound   = 8
		keys    = 64 // far above capacity: every insert evicts
		workers = 16
		rounds  = 200
	)
	c := NewBounded(shards, bound)

	var fnExecs, calls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				key := fmt.Sprintf("key-%d", k)
				calls.Add(1)
				v, err := c.Do(key, func() (float64, error) {
					fnExecs.Add(1)
					return float64(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != float64(k) {
					t.Errorf("key %d = %v (in-flight result dropped or crossed)", k, v)
					return
				}
				// A concurrent Get may miss (evicted) but never returns a
				// wrong value.
				if got, ok := c.Get(key); ok && got != float64(k) {
					t.Errorf("Get(%s) = %v", key, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	hits, misses, dedups := c.Stats()
	// Get() also counts hits; subtract the Do calls' share by invariant:
	// every Do incremented exactly one counter, so hits from Do =
	// total Do calls - misses - dedups. The extra Get hits only ever
	// increase the hit counter, so the check is an inequality on hits
	// and an equality on the computation-side counters.
	if misses != fnExecs.Load() {
		t.Errorf("misses = %d but fn executed %d times (double-counted or dropped computations)", misses, fnExecs.Load())
	}
	doHits := calls.Load() - misses - dedups
	if doHits < 0 {
		t.Errorf("counter drift: %d Do calls < misses %d + dedups %d", calls.Load(), misses, dedups)
	}
	if hits < doHits {
		t.Errorf("hits %d < Do-call hits %d", hits, doHits)
	}
	if c.Len() > bound+shards { // per-shard rounding of the global bound
		t.Errorf("Len = %d exceeds bound %d (+shard rounding)", c.Len(), bound)
	}
	if misses <= int64(c.Len()) {
		t.Errorf("%d computed keys, %d resident: expected evictions under a tiny bound", misses, c.Len())
	}
}

// TestBoundedErrorNotCachedUnderEviction checks the error path under
// concurrent eviction pressure: a failed computation is not cached, all
// waiters receive the error, and a later Do retries (a fresh miss).
func TestBoundedErrorNotCachedUnderEviction(t *testing.T) {
	c := NewBounded(2, 2)
	boom := errors.New("boom")
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				// Churn neighbours to force evictions in both shards.
				_, _ = c.Do(fmt.Sprintf("fill-%d", r%8), func() (float64, error) { return 1, nil })
				_, err := c.Do("always-fails", func() (float64, error) {
					failed.Add(1)
					return 0, boom
				})
				if !errors.Is(err, boom) {
					t.Errorf("err = %v, want boom", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, ok := c.Get("always-fails"); ok {
		t.Error("error result was cached")
	}
	if failed.Load() == 0 {
		t.Error("failing fn never ran")
	}
	// The error was propagated each time without poisoning the cache:
	// a final successful Do must recompute and then stick until evicted.
	v, err := c.Do("always-fails", func() (float64, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recovery Do = %v, %v", v, err)
	}
}

// TestBytesAccounting: the byte gauge tracks inserts, evictions (both
// capacity-driven and explicit EvictOldest) exactly, and
// EvictOldest on an unbounded cache is a no-op (it keeps no order).
func TestBytesAccounting(t *testing.T) {
	c := NewBounded(1, 3)
	if c.Bytes() != 0 {
		t.Fatalf("fresh cache Bytes = %d", c.Bytes())
	}
	keys := []string{"a", "bb", "ccc"}
	var want int64
	for _, k := range keys {
		c.Do(k, func() (float64, error) { return 1, nil })
		want += entrySize(k)
	}
	if c.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
	}
	// Capacity eviction swaps the oldest key's footprint for the new one.
	c.Do("dddd", func() (float64, error) { return 1, nil })
	want += entrySize("dddd") - entrySize("a")
	if c.Bytes() != want {
		t.Fatalf("Bytes after capacity eviction = %d, want %d", c.Bytes(), want)
	}
	if n := c.EvictOldest(2); n != 2 {
		t.Fatalf("EvictOldest = %d, want 2", n)
	}
	want -= entrySize("bb") + entrySize("ccc")
	if c.Bytes() != want || c.Len() != 1 {
		t.Fatalf("Bytes = %d (len %d), want %d (len 1)", c.Bytes(), c.Len(), want)
	}
	// Evicting more than resident drains the cache and stops.
	if n := c.EvictOldest(10); n != 1 {
		t.Fatalf("EvictOldest on near-empty cache = %d, want 1", n)
	}
	if c.Bytes() != 0 {
		t.Fatalf("Bytes after draining = %d", c.Bytes())
	}

	u := New(0)
	u.Do("k", func() (float64, error) { return 1, nil })
	if n := u.EvictOldest(5); n != 0 {
		t.Fatalf("unbounded EvictOldest = %d, want 0", n)
	}
	if u.Bytes() != entrySize("k") {
		t.Fatalf("unbounded Bytes = %d, want %d", u.Bytes(), entrySize("k"))
	}
}
