// Package costcache is the what-if cost table: cells addressed by keys
// of uint32 words — a cost unit's integer identity followed by the IDs
// of the indexes relevant to it — in one open-addressing table. A cell
// is expensive to compute (a full optimizer pass), cheap to look up:
// a hit hashes a few words and compares them against the stored key,
// and a miss stores its key without an allocation of its own.
//
// The table is safe for concurrent use behind one sync.RWMutex. Fills
// are deterministic, so two fills of one cell may race and both run:
// the second finds the cell stored and counts a lost race. A lost race
// costs one repeated optimizer call, never a different answer.
package costcache

import (
	"slices"
	"sync"
	"sync/atomic"

	"indexmerge/internal/faults"
)

// slot is one entry of the open-addressing table. tag is the key's hash
// (0 marks an empty slot, so a hash of 0 is stored as 1), off the
// arena offset of the key, val the cell.
type slot struct {
	tag uint32
	off uint32
	val float64
}

// The arena holds every stored key as a length word followed by the
// key's words, in insertion order, on pages of pageWords words; a slot
// addresses its key as page<<pageBits | position. Pages are linked
// oldest first, so the arena is the table's FIFO: the oldest key starts
// at the head, and a page the head has left is reused for new keys. A
// key longer than a page gets a page of its own, dropped once evicted.
const (
	pageBits  = 12
	pageWords = 1 << pageBits
)

type page struct {
	words []uint32 // len is the words in use, cap the page's size
	next  int32    // the next live page, -1 at the tail
}

// Cache is the cost table, safe for concurrent use. The zero value is
// not usable; call New or NewBounded.
type Cache struct {
	mu    sync.RWMutex
	slots []slot // a power of two in length, nil before the first Put
	live  int
	max   int // 0 = unbounded
	// tagMask is applied to every hash; all ones, except where a test
	// narrows it so that distinct keys share a tag on purpose.
	tagMask uint32

	pages      []page
	free       []int32 // numbers of pages ready for reuse
	head, tail int32   // oldest and newest live page, -1 while no key is stored
	headPos    int     // where the oldest key starts on the head page

	imu sync.RWMutex
	ids map[string]uint32 // Intern's

	hits   atomic.Int64
	misses atomic.Int64
	races  atomic.Int64
	bytes  atomic.Int64 // accounted bytes: cellBytes per cell, entrySize per interned text
}

// slotBytes is a slot's size; a cell accounts it plus its key's arena
// words, length word included. Interned text accounts its length plus
// entryBytes. The figures approximate resident bytes — the memory quota
// subsystem needs a stable, cheap accounting basis, not heap-exact
// numbers (the table's unused slots and page tails are not counted).
const (
	slotBytes  = 16
	entryBytes = 16
)

func cellBytes(key []uint32) int64 { return slotBytes + 4*int64(1+len(key)) }

func entrySize(text string) int64 { return int64(len(text)) + entryBytes }

// New creates an unbounded table.
func New() *Cache { return NewBounded(0, 0) }

// NewBounded creates a table holding at most maxEntries cells (<= 0
// means unbounded); storing a new cell into a full table evicts the
// oldest cell first, so the bound is an exact global FIFO. A
// long-running daemon must bound its tables: what-if cells grow with
// every distinct (unit, relevant-configuration) pair ever evaluated.
// The first argument is ignored. It was a shard count, and callers
// outside this module still pass one.
func NewBounded(_, maxEntries int) *Cache {
	return &Cache{max: max(maxEntries, 0), tagMask: ^uint32(0), head: -1, tail: -1}
}

// hash mixes the key's words and finalizes with splitmix64's avalanche,
// so that both the probe start (the tag's low bits) and the rest of the
// tag depend on every word.
func (c *Cache) hash(key []uint32) uint32 {
	h := uint64(len(key)) * 0x9e3779b97f4a7c15
	for _, w := range key {
		h = (h ^ uint64(w)) * 0xbf58476d1ce4e5b9
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	if tag := uint32(h^h>>32) & c.tagMask; tag != 0 {
		return tag
	}
	return 1
}

// keyAt returns the key stored at arena offset off. Caller holds mu.
func (c *Cache) keyAt(off uint32) []uint32 {
	w := c.pages[off>>pageBits].words
	p := off & (pageWords - 1)
	return w[p+1 : p+1+w[p]]
}

// find returns the slot holding key, or -1. Caller holds mu.
func (c *Cache) find(key []uint32, tag uint32) int {
	if c.slots == nil {
		return -1
	}
	mask := uint32(len(c.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.tag == 0 {
			return -1
		}
		if s.tag == tag && slices.Equal(c.keyAt(s.off), key) {
			return int(i)
		}
	}
}

// Get returns the cell stored under key, if any. It allocates nothing.
func (c *Cache) Get(key []uint32) (float64, bool) {
	tag := c.hash(key)
	c.mu.RLock()
	i := c.find(key, tag)
	var v float64
	if i >= 0 {
		v = c.slots[i].val
	}
	c.mu.RUnlock()
	if i < 0 {
		return 0, false
	}
	c.hits.Add(1)
	return v, true
}

// Do computes a missed cell with fn and stores it under key: the fill
// of a Get that missed. fn runs without the lock held, so it may be
// arbitrarily expensive, and two Do calls for one key may both run it.
// An error is returned as is and stores nothing, so a later Do
// retries; a panic in fn unwinds with nothing stored either.
func (c *Cache) Do(key []uint32, fn func() (float64, error)) (float64, error) {
	if err := faults.Inject(faults.CostCacheDo); err != nil {
		return 0, err
	}
	c.misses.Add(1)
	v, err := fn()
	if err != nil {
		return 0, err
	}
	c.Put(key, v)
	return v, nil
}

// Put stores v under key. A key already present keeps its place in the
// eviction order and takes v (a racing fill's equal value; the race is
// counted). A new key in a full table first evicts the oldest cell.
// Once the table has grown to its working size, Put allocates nothing.
func (c *Cache) Put(key []uint32, v float64) {
	tag := c.hash(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.find(key, tag); i >= 0 {
		c.slots[i].val = v
		c.races.Add(1)
		return
	}
	if c.max > 0 && c.live >= c.max {
		c.evictLocked()
	}
	if 4*(c.live+1) > 3*len(c.slots) {
		c.grow()
	}
	mask := uint32(len(c.slots) - 1)
	i := tag & mask
	for c.slots[i].tag != 0 {
		i = (i + 1) & mask
	}
	c.slots[i] = slot{tag: tag, off: c.pushKey(key), val: v}
	c.live++
	c.bytes.Add(cellBytes(key))
}

// grow doubles the slot array and re-places every slot by its tag; no
// key is read or hashed again.
func (c *Cache) grow() {
	old := c.slots
	c.slots = make([]slot, max(2*len(old), 64))
	mask := uint32(len(c.slots) - 1)
	for _, s := range old {
		if s.tag == 0 {
			continue
		}
		i := s.tag & mask
		for c.slots[i].tag != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = s
	}
}

// pushKey writes key at the arena's tail and returns its offset.
// Caller holds mu.
func (c *Cache) pushKey(key []uint32) uint32 {
	need := 1 + len(key)
	if c.tail < 0 || cap(c.pages[c.tail].words)-len(c.pages[c.tail].words) < need {
		c.linkPage(need)
	}
	p := &c.pages[c.tail]
	off := uint32(c.tail)<<pageBits | uint32(len(p.words))
	p.words = append(append(p.words, uint32(len(key))), key...)
	return off
}

// linkPage makes a page with room for need words the arena's tail,
// reusing the number and, where it is large enough, the words of a page
// the head has left.
func (c *Cache) linkPage(need int) {
	var n int32
	if k := len(c.free); k > 0 {
		n, c.free = c.free[k-1], c.free[:k-1]
	} else {
		n = int32(len(c.pages))
		c.pages = append(c.pages, page{})
	}
	p := &c.pages[n]
	if cap(p.words) < need {
		p.words = make([]uint32, 0, max(need, pageWords))
	}
	p.next = -1
	if c.tail >= 0 {
		c.pages[c.tail].next = n
	} else {
		c.head, c.headPos = n, 0
	}
	c.tail = n
}

// evictLocked drops the oldest cell: the key at the arena's head.
// Caller holds mu and knows the table is not empty.
func (c *Cache) evictLocked() {
	off := uint32(c.head)<<pageBits | uint32(c.headPos)
	key := c.keyAt(off)
	tag := c.hash(key)
	mask := uint32(len(c.slots) - 1)
	i := tag & mask
	for c.slots[i].off != off || c.slots[i].tag != tag {
		i = (i + 1) & mask
	}
	c.deleteSlot(i)
	c.live--
	c.bytes.Add(-cellBytes(key))
	c.headPos += 1 + len(key)
	h := &c.pages[c.head]
	if c.headPos < len(h.words) {
		return
	}
	// The head page is spent: its number is reused, and so are its words
	// unless it was an oversize page.
	if cap(h.words) == pageWords {
		h.words = h.words[:0]
	} else {
		h.words = nil
	}
	c.free = append(c.free, c.head)
	if c.head == c.tail {
		c.head, c.tail = -1, -1
	} else {
		c.head = h.next
	}
	c.headPos = 0
}

// deleteSlot empties slot i by backward shift: every later slot of the
// probe run that may move back towards its home does, so no tombstones
// are left and lookups stop at the first empty slot.
func (c *Cache) deleteSlot(i uint32) {
	mask := uint32(len(c.slots) - 1)
	for j := (i + 1) & mask; c.slots[j].tag != 0; j = (j + 1) & mask {
		home := c.slots[j].tag & mask
		// Slot j stays where it is if its home lies cyclically in (i, j].
		if i <= j {
			if i < home && home <= j {
				continue
			}
		} else if i < home || home <= j {
			continue
		}
		c.slots[i] = c.slots[j]
		i = j
	}
	c.slots[i] = slot{}
}

// Intern returns the table's ID for text: 0, 1, 2, … in first-seen
// order, and the same for as long as the table lives, so that callers
// sharing the table may build keys from IDs instead of from the text
// (core.Pricer keys a cell by the IDs of its unit's relevant indexes).
// Interned text is held for the table's life: Bytes counts it, and
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

// Interned returns the number of texts Intern holds.
func (c *Cache) Interned() int {
	c.imu.RLock()
	defer c.imu.RUnlock()
	return len(c.ids)
}

// EvictOldest removes up to n cells in FIFO insertion order from a
// bounded table; an unbounded one is left whole. Returns how many cells
// were dropped. The brownout ladder uses this to shed cold cost state
// under memory pressure without resetting hot cells.
func (c *Cache) EvictOldest(n int) int {
	if c.max == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for ; dropped < n && c.live > 0; dropped++ {
		c.evictLocked()
	}
	return dropped
}

// Len returns the number of cells stored.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live
}

// Stats reports lookup hits, computed misses (Do calls past the fault
// point), and lost races: stores that found their cell already stored
// by a racing fill, each one optimizer fill computed twice.
func (c *Cache) Stats() (hits, misses, races int64) {
	return c.hits.Load(), c.misses.Load(), c.races.Load()
}

// Bytes reports the accounted footprint of the stored cells (a slot and
// the key's arena words each) and of the interned text (its length plus
// a fixed overhead each). It is maintained incrementally on store and
// evict, so it costs one atomic load — the accounting basis for
// per-tenant memory budgets.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }
