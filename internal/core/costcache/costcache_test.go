package costcache

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// wk spells a text as a key, one word a byte, so that texts which are
// prefixes of one another give keys which are.
func wk(s string) []uint32 {
	key := make([]uint32, len(s))
	for i := range s {
		key[i] = uint32(s[i])
	}
	return key
}

func get(c *Cache, key string) (float64, bool) { return c.Get(wk(key)) }

func TestGetAndDo(t *testing.T) {
	c := New()
	if _, ok := get(c, "a"); ok {
		t.Fatal("empty cache returned a value")
	}
	v, err := c.Do(wk("a"), func() (float64, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if v, ok := get(c, "a"); !ok || v != 42 {
		t.Fatalf("Get after Do = %v, %v", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if hits, misses, races := c.Stats(); hits != 1 || misses != 1 || races != 0 {
		t.Errorf("hits %d misses %d races %d, want 1, 1 and 0", hits, misses, races)
	}
}

// TestGetAllocatesNothing: a lookup from a key buffer the caller reuses
// finds what Do stored, counts as a hit and costs no allocation; once a
// bounded table has grown to its working size, storing a new cell (and
// evicting the oldest) costs none either.
func TestGetAllocatesNothing(t *testing.T) {
	c := NewBounded(0, 256)
	for i := 0; i < 100; i++ {
		if _, err := c.Do([]uint32{7, uint32(i), 3}, func() (float64, error) { return float64(i), nil }); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]uint32, 0, 8)
	for i := 0; i < 100; i++ {
		buf = append(buf[:0], 7, uint32(i), 3)
		if v, ok := c.Get(buf); !ok || v != float64(i) {
			t.Fatalf("Get(%v) = %v, %v", buf, v, ok)
		}
	}
	if _, ok := c.Get([]uint32{7, 0}); ok {
		t.Fatal("Get found a key that was never stored")
	}
	if hits, misses, _ := c.Stats(); hits != 100 || misses != 100 {
		t.Errorf("hits %d misses %d, want 100 and 100", hits, misses)
	}
	if n := testing.AllocsPerRun(100, func() { c.Get(buf) }); n != 0 {
		t.Errorf("Get allocates %v objects per call", n)
	}
	// Grow: enough new keys to cycle the arena's pages several times.
	next := uint32(1000)
	put := func() {
		buf = append(buf[:0], 9, next, next+1, next+2)
		c.Put(buf, 1)
		next++
	}
	for i := 0; i < 8*pageWords; i++ {
		put()
	}
	// One run of many Puts, so that a page made now and then shows.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4*pageWords; i++ {
			put()
		}
	}); n != 0 {
		t.Errorf("%v objects allocated by %d steady-state Puts", n, 4*pageWords)
	}
	if c.Len() != 256 {
		t.Errorf("Len = %d, want the bound 256", c.Len())
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	if _, err := c.Do(wk("k"), func() (float64, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if _, ok := get(c, "k"); ok {
		t.Fatal("error value was cached")
	}
	// A later Do retries and can succeed.
	v, err := c.Do(wk("k"), func() (float64, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %v, %v", v, err)
	}
}

// TestRacingFillsAgree: concurrent Do calls for one key may each run
// fn — the table keeps no in-flight calls — and all observe the same
// value; the table ends with one cell, and every fill past the first
// counts a lost race.
func TestRacingFillsAgree(t *testing.T) {
	c := New()
	var computed atomic.Int64
	release := make(chan struct{})
	const workers = 16

	var wg, started sync.WaitGroup
	results := make([]float64, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(wk("key"), func() (float64, error) {
				computed.Add(1)
				started.Done()
				<-release // hold every computation so that all race
				return 99, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	started.Wait()
	close(release)
	wg.Wait()
	if n := computed.Load(); n != workers {
		t.Errorf("fn ran %d times, want %d", n, workers)
	}
	for i, v := range results {
		if v != 99 {
			t.Errorf("worker %d saw %v", i, v)
		}
	}
	if _, misses, races := c.Stats(); misses != workers || races != workers-1 {
		t.Errorf("misses %d races %d, want %d and %d", misses, races, workers, workers-1)
	}
	if c.Len() != 1 || c.Bytes() != cellBytes(wk("key")) {
		t.Errorf("Len %d Bytes %d, want one cell of %d bytes", c.Len(), c.Bytes(), cellBytes(wk("key")))
	}
}

func put(t *testing.T, c *Cache, key string, val float64) {
	t.Helper()
	got, err := c.Do(wk(key), func() (float64, error) { return val, nil })
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	if got != val {
		t.Fatalf("Do(%q) = %v, want %v", key, got, val)
	}
}

func TestBoundedEvictsOldestFirst(t *testing.T) {
	c := NewBounded(0, 4)
	for i := 0; i < 6; i++ {
		put(t, c, fmt.Sprintf("k%d", i), float64(i))
	}
	if n := c.Len(); n != 4 {
		t.Fatalf("Len = %d after 6 inserts with bound 4, want 4", n)
	}
	for _, gone := range []string{"k0", "k1"} {
		if _, ok := get(c, gone); ok {
			t.Errorf("oldest key %s survived eviction", gone)
		}
	}
	for _, kept := range []string{"k2", "k3", "k4", "k5"} {
		if _, ok := get(c, kept); !ok {
			t.Errorf("recent key %s was evicted", kept)
		}
	}
}

func TestBoundedRecomputesEvictedKey(t *testing.T) {
	c := NewBounded(0, 2)
	calls := 0
	compute := func() (float64, error) { calls++; return 7, nil }
	if _, err := c.Do(wk("a"), compute); err != nil {
		t.Fatal(err)
	}
	put(t, c, "b", 1)
	put(t, c, "c", 2) // evicts "a"
	if _, ok := get(c, "a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, err := c.Do(wk("a"), compute); err != nil || v != 7 {
		t.Fatalf("recompute a: %v, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (evicted key must recompute)", calls)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New()
	for i := 0; i < 1000; i++ {
		put(t, c, fmt.Sprintf("k%d", i), float64(i))
	}
	if n := c.Len(); n != 1000 {
		t.Fatalf("Len = %d, want 1000", n)
	}
}

// TestBoundedConcurrentStaysWithinBound mixes concurrent Do with
// periodic EvictOldest; under -race this validates the eviction locking,
// and the final size validates the bound, which is exact.
func TestBoundedConcurrentStaysWithinBound(t *testing.T) {
	const maxEntries, workers, keys = 16, 8, 200
	c := NewBounded(0, maxEntries)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := wk(fmt.Sprintf("k%d", (i+w)%keys))
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
	if n := c.Len(); n > maxEntries {
		t.Fatalf("Len = %d exceeds bound %d", n, maxEntries)
	}
}

// TestConcurrentStress hammers many keys from many goroutines; run
// under -race this validates the locking discipline. Every key's value
// is what its fills computed, and the table ends with one cell a key
// however many fills raced.
func TestConcurrentStress(t *testing.T) {
	c := New()
	const keys = 64
	const workers = 32
	const rounds = 50

	var computed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w*7 + r) % keys
				key := wk(fmt.Sprintf("key-%d", k))
				if got, ok := c.Get(key); ok {
					if got != float64(k) {
						t.Errorf("Get(key-%d) = %v", k, got)
						return
					}
					continue
				}
				v, err := c.Do(key, func() (float64, error) {
					computed.Add(1)
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
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != keys {
		t.Errorf("Len = %d, want %d", c.Len(), keys)
	}
	if _, misses, races := c.Stats(); misses != computed.Load() || misses-races != keys {
		t.Errorf("%d misses, %d races, %d computations: want one stored cell a key (%d)", misses, races, computed.Load(), keys)
	}
}

// TestBoundedEvictionInflightRace hammers a tiny bounded cache with
// more hot keys than capacity, so FIFO eviction runs continuously while
// other goroutines fill the very same keys. The audit invariants: the
// miss counter equals the number of actual fn executions (an eviction
// racing a fill in flight must neither double-count an optimizer call
// nor drop its result), every caller observes the correct value, and
// the entry count respects the bound.
func TestBoundedEvictionInflightRace(t *testing.T) {
	const (
		bound   = 8
		keys    = 64 // far above capacity: every insert evicts
		workers = 16
		rounds  = 200
	)
	c := NewBounded(0, bound)

	var fnExecs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				key := wk(fmt.Sprintf("key-%d", k))
				v, err := c.Do(key, func() (float64, error) {
					fnExecs.Add(1)
					return float64(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != float64(k) {
					t.Errorf("key %d = %v (fill result dropped or crossed)", k, v)
					return
				}
				// A concurrent Get may miss (evicted) but never returns a
				// wrong value.
				if got, ok := c.Get(key); ok && got != float64(k) {
					t.Errorf("Get(key-%d) = %v", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	_, misses, _ := c.Stats()
	if misses != fnExecs.Load() {
		t.Errorf("misses = %d but fn executed %d times (double-counted or dropped computations)", misses, fnExecs.Load())
	}
	if c.Len() > bound {
		t.Errorf("Len = %d exceeds bound %d", c.Len(), bound)
	}
	if misses <= int64(c.Len()) {
		t.Errorf("%d computed keys, %d resident: expected evictions under a tiny bound", misses, c.Len())
	}
}

// TestBoundedErrorNotCachedUnderEviction checks the error path under
// concurrent eviction pressure: a failed computation is not cached,
// every caller receives the error, and a later Do retries (a fresh
// miss).
func TestBoundedErrorNotCachedUnderEviction(t *testing.T) {
	c := NewBounded(0, 2)
	boom := errors.New("boom")
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				// Churn neighbours to force evictions.
				_, _ = c.Do(wk(fmt.Sprintf("fill-%d", r%8)), func() (float64, error) { return 1, nil })
				_, err := c.Do(wk("always-fails"), func() (float64, error) {
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
	if _, ok := get(c, "always-fails"); ok {
		t.Error("error result was cached")
	}
	if failed.Load() == 0 {
		t.Error("failing fn never ran")
	}
	// The error was propagated each time without poisoning the cache:
	// a final successful Do must recompute and then stick until evicted.
	v, err := c.Do(wk("always-fails"), func() (float64, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recovery Do = %v, %v", v, err)
	}
}

// TestInternDenseAndStable: concurrent Intern calls give every text one
// ID for the cache's life, the IDs of n texts are 0 … n-1, and interning
// holds no cell and accounts the text's bytes.
func TestInternDenseAndStable(t *testing.T) {
	c := New()
	const texts, workers = 300, 8
	ids := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]uint32, texts)
			for i := 0; i < texts; i++ {
				k := (i*7 + w*13) % texts
				ids[w][k] = c.Intern(fmt.Sprintf("t(c%d)", k))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint32]bool)
	for k := 0; k < texts; k++ {
		for w := 1; w < workers; w++ {
			if ids[w][k] != ids[0][k] {
				t.Fatalf("text %d interned as %d and %d", k, ids[0][k], ids[w][k])
			}
		}
		if id := ids[0][k]; id >= texts || seen[id] {
			t.Fatalf("text %d interned as %d: not a fresh ID below %d", k, id, texts)
		}
		seen[ids[0][k]] = true
	}
	if again := c.Intern("t(c5)"); again != ids[0][5] {
		t.Errorf("t(c5) interned again as %d, first as %d", again, ids[0][5])
	}
	var want int64
	for k := 0; k < texts; k++ {
		want += entrySize(fmt.Sprintf("t(c%d)", k))
	}
	if c.Len() != 0 || c.Bytes() != want || c.Interned() != texts {
		t.Errorf("interning left %d cells, %d accounted bytes, %d texts; want none, %d bytes and %d texts", c.Len(), c.Bytes(), c.Interned(), want, texts)
	}
}

// TestInternedTextIsAccounted: Bytes counts what Intern holds for the
// cache's life — each new text once — and a bounded table evicted to
// empty still reports it, since eviction reclaims cells, not text.
func TestInternedTextIsAccounted(t *testing.T) {
	c := NewBounded(0, 2)
	c.Intern("fact(d,m1)")
	c.Intern("fact(k)")
	c.Intern("fact(d,m1)")
	text := entrySize("fact(d,m1)") + entrySize("fact(k)")
	if c.Bytes() != text {
		t.Fatalf("Bytes after interning two texts = %d, want %d", c.Bytes(), text)
	}
	for _, k := range []string{"q0|a", "q1|b", "q2|c"} {
		put(t, c, k, 1)
	}
	if want := text + cellBytes(wk("q1|b")) + cellBytes(wk("q2|c")); c.Bytes() != want {
		t.Fatalf("Bytes with two cells = %d, want %d", c.Bytes(), want)
	}
	if n := c.EvictOldest(10); n != 2 || c.Len() != 0 {
		t.Fatalf("EvictOldest = %d (len %d), want 2 (len 0)", n, c.Len())
	}
	if c.Bytes() != text {
		t.Errorf("Bytes of a table evicted to empty = %d, want its interned text's %d", c.Bytes(), text)
	}
}

// TestBytesAccounting: the byte gauge tracks inserts, evictions (both
// capacity-driven and explicit EvictOldest) exactly — a slot and the
// key's arena words a cell — and EvictOldest on an unbounded cache is a
// no-op.
func TestBytesAccounting(t *testing.T) {
	c := NewBounded(0, 3)
	if c.Bytes() != 0 {
		t.Fatalf("fresh cache Bytes = %d", c.Bytes())
	}
	keys := []string{"a", "bb", "ccc"}
	var want int64
	for _, k := range keys {
		put(t, c, k, 1)
		want += cellBytes(wk(k))
	}
	if want != 3*slotBytes+4*(2+3+4) {
		t.Fatalf("three cells of 1, 2 and 3 words account %d bytes", want)
	}
	if c.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
	}
	// Capacity eviction swaps the oldest key's footprint for the new one.
	put(t, c, "dddd", 1)
	want += cellBytes(wk("dddd")) - cellBytes(wk("a"))
	if c.Bytes() != want {
		t.Fatalf("Bytes after capacity eviction = %d, want %d", c.Bytes(), want)
	}
	if n := c.EvictOldest(2); n != 2 {
		t.Fatalf("EvictOldest = %d, want 2", n)
	}
	want -= cellBytes(wk("bb")) + cellBytes(wk("ccc"))
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

	u := New()
	put(t, u, "k", 1)
	if n := u.EvictOldest(5); n != 0 {
		t.Fatalf("unbounded EvictOldest = %d, want 0", n)
	}
	if u.Bytes() != cellBytes(wk("k")) {
		t.Fatalf("unbounded Bytes = %d, want %d", u.Bytes(), cellBytes(wk("k")))
	}
}

// model is the table's reference: a map from the key's text to its
// cell, the live keys oldest first, and their accounted bytes.
type model struct {
	max   int
	vals  map[string]float64
	order []string
	bytes int64
}

// modelBytes is a cell's accounted bytes, its key spelled by text.
func modelBytes(k string) int64 { return slotBytes + 4*int64(1+len(k)/4) }

func (m *model) put(key string, v float64) {
	if _, ok := m.vals[key]; !ok {
		if m.max > 0 && len(m.order) >= m.max {
			m.evict(1)
		}
		m.order = append(m.order, key)
		m.bytes += modelBytes(key)
	}
	m.vals[key] = v
}

func (m *model) evict(n int) int {
	if m.max == 0 {
		return 0
	}
	n = min(n, len(m.order))
	for _, k := range m.order[:n] {
		delete(m.vals, k)
		m.bytes -= modelBytes(k)
	}
	m.order = m.order[n:]
	return n
}

// text spells a key as the model's map key, four bytes a word.
func text(key []uint32) string {
	b := make([]byte, 0, 4*len(key))
	for _, w := range key {
		b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return string(b)
}

// checkModel replays ops against a table and the model. Each op is a
// byte for the operation and a byte for the key: its length and, from a
// three-word alphabet, its words, so keys are often equal and often
// prefixes of one another. One op in 64 stores an oversize key, longer
// than an arena page. narrow is 0, or the tag mask of a table whose
// keys collide on purpose.
func checkModel(t *testing.T, bound int, narrow uint32, ops []byte) {
	t.Helper()
	c := NewBounded(0, bound)
	if narrow != 0 {
		c.tagMask = narrow
	}
	m := &model{max: c.max, vals: make(map[string]float64)}
	var key []uint32
	for i := 0; i+1 < len(ops); i += 2 {
		op, kb := ops[i], ops[i+1]
		key = key[:0]
		for j, n := 0, int(kb%6); j < n; j++ {
			key = append(key, uint32(kb>>(j+1))%3)
		}
		if op%64 == 61 {
			key = append(key, make([]uint32, pageWords+int(kb))...)
		}
		switch op % 4 {
		case 0, 1:
			v := float64(i)
			c.Put(key, v)
			m.put(text(key), v)
		case 2:
			n := int(kb % 4)
			if got, want := c.EvictOldest(n), m.evict(n); got != want {
				t.Fatalf("op %d: EvictOldest(%d) = %d, the model drops %d", i/2, n, got, want)
			}
		}
		got, ok := c.Get(key)
		want, wok := m.vals[text(key)]
		if ok != wok || got != want {
			t.Fatalf("op %d: Get(%v) = %v, %v; the model holds %v, %v", i/2, key[:min(len(key), 8)], got, ok, want, wok)
		}
		if c.Len() != len(m.order) || c.Bytes() != m.bytes {
			t.Fatalf("op %d: Len %d Bytes %d; the model has %d cells of %d bytes", i/2, c.Len(), c.Bytes(), len(m.order), m.bytes)
		}
	}
	for _, k := range m.order {
		key := make([]uint32, len(k)/4)
		for j := range key {
			key[j] = uint32(k[4*j]) | uint32(k[4*j+1])<<8 | uint32(k[4*j+2])<<16 | uint32(k[4*j+3])<<24
		}
		if v, ok := c.Get(key); !ok || v != m.vals[k] {
			t.Fatalf("the model's cell %v is %v in the table (%v)", key[:min(len(key), 8)], v, ok)
		}
	}
}

// TestTableMatchesModel drives Get, Put, EvictOldest, Len and Bytes
// against the model over seeded random op sequences: unbounded and
// bounded tables, tags from the real hash and from a hash narrowed to
// one or two bits, and long enough runs that the arena's pages fill,
// empty and are reused.
func TestTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*4000)
		rng.Read(ops)
		for _, bound := range []int{0, 1, 5, 40} {
			for _, narrow := range []uint32{0, 1, 3} {
				t.Run(fmt.Sprintf("seed=%d/bound=%d/narrow=%d", seed, bound, narrow), func(t *testing.T) {
					checkModel(t, bound, narrow, ops)
				})
			}
		}
	}
}

// TestTableKeysOfEqualTag: under a hash that gives every key one tag,
// keys that are prefixes of one another, and the empty key, stay
// distinct cells, and eviction at the bound drops exactly the oldest.
func TestTableKeysOfEqualTag(t *testing.T) {
	c := NewBounded(0, 3)
	c.tagMask = 0
	keys := [][]uint32{{}, {1}, {1, 2}, {1, 2, 3}}
	for i, k := range keys {
		c.Put(k, float64(i))
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("the oldest key survived eviction at the bound")
	}
	for i, k := range keys[1:] {
		if v, ok := c.Get(k); !ok || v != float64(i+1) {
			t.Errorf("Get(%v) = %v, %v; want %d", k, v, ok, i+1)
		}
	}
	if _, ok := c.Get([]uint32{1, 2, 3, 4}); ok {
		t.Error("a key found a cell stored under its prefix")
	}
	if !slices.Equal(c.keyAt(c.slots[1].off), keys[1]) {
		t.Errorf("after a backward shift, the key at its home slot is %v", c.keyAt(c.slots[1].off))
	}
}

// FuzzTable is checkModel over arbitrary op sequences.
func FuzzTable(f *testing.F) {
	f.Add(uint8(0), false, []byte{0, 1, 0, 2, 0, 3, 2, 1, 0, 1})
	f.Add(uint8(2), true, []byte{0, 5, 1, 13, 0, 29, 0, 5, 2, 3, 0, 61, 63, 1})
	f.Fuzz(func(t *testing.T, bound uint8, collide bool, ops []byte) {
		narrow := uint32(0)
		if collide {
			narrow = 1
		}
		checkModel(t, int(bound%9), narrow, ops)
	})
}
