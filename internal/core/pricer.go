package core

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// Unit is one term of the decomposed workload cost (§3.4.2, and CoPhy's
// cost cell in PAPERS.md): Cost(W, C) = Σ_units cell(u, C) × Scale,
// where the stored cell is Σ_members Weight × CostPrepared(member,
// C restricted to the indexes relevant to the unit). A registered
// workload's units are its templates, the queries that differ only in
// their constants; NewOptimizerChecker's are its queries, one each.
type Unit struct {
	// Members are positions in the prepared workload. Relevance is asked
	// of the first: the members of one unit share tables, columns and
	// operators, so an index that can contribute an access path to one
	// can to all, and to none otherwise.
	Members []int
	// Weights, aligned with Members, multiply each member's cost inside
	// the stored cell.
	Weights []float64
	// Scale multiplies the stored cell when it is read, so a factor that
	// drifts (a sliding window's template weight) invalidates nothing.
	Scale float64
	// ID is the unit's integer identity, the words that start every
	// store key of the unit; the rest of a key is the sorted IDs of the
	// indexes relevant to the unit. Every unit sharing a store has an ID
	// of the same length, so no key of one unit begins with another's,
	// and a different ID for as long as Members and Weights are what its
	// cells were stored under.
	ID []uint32
}

// newQueryPricer builds NewOptimizerChecker's engine: one unit per
// query of w (prepared as pw), weighted by its frequency, identified by
// its position. A cell encodes its query's position and frequency, so
// store must not outlive the workload.
func newQueryPricer(srv CostServer, w *sql.Workload, pw *optimizer.PreparedWorkload, store *costcache.Cache) *Pricer {
	n := len(w.Queries)
	members, weights, ids := make([]int, n), make([]float64, n), make([]uint32, n)
	units := make([]Unit, n)
	for qi, q := range w.Queries {
		members[qi], weights[qi], ids[qi] = qi, q.Freq, uint32(qi)
		units[qi] = Unit{
			Members: members[qi : qi+1],
			Weights: weights[qi : qi+1],
			Scale:   1,
			ID:      ids[qi : qi+1 : qi+1],
		}
	}
	return NewPricer(srv, pw, units, store)
}

// maxBoundEntries caps the per-unit list of exactly costed cells kept
// for lower-bound pruning; older entries are overwritten ring-style.
const maxBoundEntries = 16

// boundEntry is one exactly costed cell: the sorted IDs of its
// relevant indexes and its scaled cost. By cost monotonicity (adding
// indexes only adds access paths, and cost is a min over paths), any
// cell whose index set is a SUBSET of an entry's costs at least the
// entry's cost — an admissible lower bound for cells not yet stored.
type boundEntry struct {
	ids  []uint32
	cost float64
}

// Pricer is the one delta-pricing engine: the units of a prepared
// workload, the store of their cells keyed by the subset of a
// configuration relevant to each, the indexes it has met, and the lower
// bounds that prune hopeless candidates. It lives as long as its store
// is meant to — one search for a checker built by NewOptimizerChecker,
// one registration for the template units of a registered workload —
// and is safe for any number of concurrent checkers.
type Pricer struct {
	srv   CostServer
	pw    *optimizer.PreparedWorkload
	units []Unit
	store *costcache.Cache
	reps  *optimizer.PreparedWorkload // the units' first members, of whom relevance is asked
	all   optimizer.QuerySet          // every unit

	imu     sync.RWMutex
	ixs     map[string]*pricedIndex // by definition key
	ixBytes atomic.Int64            // ixs's accounted size (see pricedIndexBytes)

	mu     sync.RWMutex
	bounds [][]boundEntry // per unit, ring-capped
	nextBE []int          // per unit, next ring slot

	optCalls atomic.Int64 // CostPrepared invocations that filled the store
}

// NewPricer builds an engine over units of pw whose cells live in
// store; srv prices members on store misses.
func NewPricer(srv CostServer, pw *optimizer.PreparedWorkload, units []Unit, store *costcache.Cache) *Pricer {
	reps := make([]*optimizer.PreparedQuery, len(units))
	all := optimizer.NewQuerySet(len(units))
	for ui, u := range units {
		reps[ui] = pw.Queries[u.Members[0]]
		all.Add(ui)
	}
	return &Pricer{
		srv: srv, pw: pw, units: units, store: store,
		reps:   &optimizer.PreparedWorkload{Queries: reps},
		all:    all,
		ixs:    make(map[string]*pricedIndex),
		bounds: make([][]boundEntry, len(units)),
		nextBE: make([]int, len(units)),
	}
}

// NewChecker builds a checker over the engine's units with U =
// baseCost × (1 + slackPct); baseCost should be WorkloadCostContext of
// the initial configuration, so that U and the checks' totals sum in
// the same (unit) order.
func (p *Pricer) NewChecker(baseCost, slackPct float64) *OptimizerChecker {
	return &OptimizerChecker{U: baseCost * (1 + slackPct), pricer: p}
}

// WorkloadCostContext prices the whole workload under cfg, serially.
// Totals sum in unit order; over template units they can differ from
// the workload-order sum of optimizer.WorkloadCostPrepared in the last
// ulp.
func (p *Pricer) WorkloadCostContext(ctx context.Context, cfg *Configuration) (float64, error) {
	return p.NewChecker(0, 0).WorkloadCostContext(ctx, cfg)
}

// OptimizerCalls counts the CostPrepared invocations made to fill the
// store, by every checker over the engine.
func (p *Pricer) OptimizerCalls() int64 { return p.optCalls.Load() }

// IndexBytes reports the accounted size of the indexes the engine has
// met (see pricedIndexBytes). Like the text the store interns for
// them, they are kept for the engine's life, and grow with every
// distinct definition a caller names.
func (p *Pricer) IndexBytes() int64 { return p.ixBytes.Load() }

// pricedIndex is an index definition as the engine prices it, made the
// first time a check meets the definition: the definition, its ID in
// the store, the units it is relevant to, and its resolution
// for the optimizer. A search therefore turns names into numbers once
// per index it meets, not once per cell.
type pricedIndex struct {
	def catalog.IndexDef
	id  uint32
	rel optimizer.QuerySet
	rx  *optimizer.ResolvedIndex
}

// pricedIndexBytes approximates the fixed part of a pricedIndex for
// memory accounting: the entry, its map slot, the definition's and the
// resolution's headers. An entry accounts it, the key and the
// definition's text (about the key's length again) and the relevance
// set's words: like costcache.Bytes, a stable, cheap basis, not a
// heap-exact figure.
const pricedIndexBytes = 192

// index returns ix as the engine prices it.
func (p *Pricer) index(ix *Index) *pricedIndex {
	p.imu.RLock()
	e := p.ixs[ix.Key()]
	p.imu.RUnlock()
	if e != nil {
		return e
	}
	e = &pricedIndex{
		def: ix.Def,
		id:  p.store.Intern(ix.Key()),
		rel: p.reps.RelevantQueries(ix.Def.Table, ix.Def.Columns),
		rx:  p.pw.Resolve(ix.Def),
	}
	p.imu.Lock()
	defer p.imu.Unlock()
	if prev := p.ixs[ix.Key()]; prev != nil {
		return prev
	}
	p.ixs[ix.Key()] = e
	p.ixBytes.Add(pricedIndexBytes + 2*int64(len(ix.Key())) + 8*int64(len(e.rel)))
	return e
}

// relevant returns the units whose queries the index can contribute an
// access path to.
func (p *Pricer) relevant(ix *Index) optimizer.QuerySet { return p.index(ix).rel }

// relevance leaves in sc cfg's indexes as the engine prices them, in
// ID order, and for every affected unit which of them are relevant to
// it (relevantTo): one memo lookup per index, then a pass over each
// index's relevant units. Sorting makes the store key canonical: two
// configurations with the same relevant subset give a unit one key.
func (p *Pricer) relevance(sc *priceScratch, cfg *Configuration, affected optimizer.QuerySet) {
	if cap(sc.pis) < len(cfg.Indexes) {
		sc.pis = make([]*pricedIndex, 0, 2*len(cfg.Indexes))
	}
	pis := sc.pis[:0]
	for _, ix := range cfg.Indexes {
		pis = append(pis, p.index(ix))
	}
	slices.SortFunc(pis, func(a, b *pricedIndex) int { return cmp.Compare(a.id, b.id) })
	sc.pis = pis

	nw := (len(pis) + 63) / 64
	if n := len(p.units) * nw; cap(sc.masks) < n {
		sc.masks = make([]uint64, n)
	}
	sc.masks, sc.nw = sc.masks[:len(p.units)*nw], nw
	for ui := affected.Next(0); ui >= 0; ui = affected.Next(ui + 1) {
		clear(sc.relevantTo(ui))
	}
	for i, pi := range pis {
		w, bit := i>>6, uint64(1)<<(i&63)
		for k, word := range pi.rel {
			for word &= affected[k]; word != 0; word &= word - 1 {
				sc.masks[(k<<6+bits.TrailingZeros64(word))*nw+w] |= bit
			}
		}
	}
}

// relevantTo returns, after relevance, the positions in sc.pis of the
// indexes relevant to affected unit ui, as a bit set.
func (sc *priceScratch) relevantTo(ui int) []uint64 {
	return sc.masks[ui*sc.nw : (ui+1)*sc.nw]
}

// cellKey appends affected unit ui's store key under sc's sorted
// indexes: the unit's ID, then the ID of every index relevant to the
// unit. Two configurations share a unit's key exactly when their
// relevant subsets coincide, so a key addresses one cell.
func (p *Pricer) cellKey(buf []uint32, ui int, sc *priceScratch) []uint32 {
	buf = append(buf, p.units[ui].ID...)
	for w, word := range sc.relevantTo(ui) {
		for ; word != 0; word &= word - 1 {
			buf = append(buf, sc.pis[w<<6+bits.TrailingZeros64(word)].id)
		}
	}
	return buf
}

// price is the one evaluation routine. It leaves cfg's cells in
// sc.cells and returns Σ cell × Scale in unit order. The affected units
// are keyed by their relevant subset of cfg and looked up; every other
// unit keeps the cell carry holds for it (carry is nil when every unit
// is affected). Misses are then filled exactly — unless the candidate is
// a delta against a base (carry non-nil) and even the optimistic sum,
// exact where known and the admissible lower bound for each miss,
// exceeds U: the exact total can only be higher, so that sum is
// returned without touching the optimizer. A check whose lookups all hit
// allocates nothing, and a miss adds nothing per missed cell.
func (c *OptimizerChecker) price(ctx context.Context, sc *priceScratch, cfg *Configuration, carry []float64, affected optimizer.QuerySet) (float64, error) {
	p := c.pricer
	if n := len(p.units); cap(sc.cells) < n {
		// A scratch new to the engine is sized once for a check that
		// misses every unit, rather than grown append by append.
		sc.cells = make([]float64, n)
		sc.miss, sc.keyEnds, sc.ends = make([]int, 0, n), make([]int, 0, n), make([]int, 0, n)
		sc.keys = make([]uint32, 0, 4*n)
	}
	cells := sc.cells[:len(p.units)]
	sc.cells = cells
	copy(cells, carry)
	p.relevance(sc, cfg, affected)
	// The misses' keys sit back to back in a pooled slice, miss i's at
	// [keyEnds[i-1]:keyEnds[i]].
	sc.miss, sc.keys, sc.keyEnds = sc.miss[:0], sc.keys[:0], sc.keyEnds[:0]
	for ui := affected.Next(0); ui >= 0; ui = affected.Next(ui + 1) {
		lo := len(sc.keys)
		sc.keys = p.cellKey(sc.keys, ui, sc)
		if v, ok := p.store.Get(sc.keys[lo:]); ok {
			cells[ui] = v
			sc.keys = sc.keys[:lo]
			continue
		}
		sc.miss = append(sc.miss, ui)
		sc.keyEnds = append(sc.keyEnds, len(sc.keys))
	}
	if len(sc.miss) > 0 {
		if carry != nil {
			if lb := p.optimisticTotal(sc, cells); lb > c.U {
				c.pruned.Add(1)
				return lb, nil
			}
		}
		sc.missDefs()
		if err := c.fill(ctx, sc, cells); err != nil {
			return 0, err
		}
	}
	total := 0.0
	for ui := range p.units {
		total += cells[ui] * p.units[ui].Scale
	}
	return total, nil
}

// missDefs leaves in sc.defs, and aligned in sc.rxs, each miss's
// relevant definitions back to back, miss i's at [ends[i-1]:ends[i]],
// in ID order: the optimizer prices a set, whatever order it lists.
func (sc *priceScratch) missDefs() {
	if cap(sc.defs) < len(sc.pis) {
		sc.defs = make([]catalog.IndexDef, 0, 4*cap(sc.pis))
		sc.rxs = make([]*optimizer.ResolvedIndex, 0, 4*cap(sc.pis))
	}
	sc.defs, sc.rxs, sc.ends = sc.defs[:0], sc.rxs[:0], sc.ends[:0]
	for _, ui := range sc.miss {
		for w, word := range sc.relevantTo(ui) {
			for ; word != 0; word &= word - 1 {
				pi := sc.pis[w<<6+bits.TrailingZeros64(word)]
				sc.defs = append(sc.defs, pi.def)
				sc.rxs = append(sc.rxs, pi.rx)
			}
		}
		sc.ends = append(sc.ends, len(sc.defs))
	}
}

// span returns the bounds of miss i in sc.defs and sc.rxs.
func (sc *priceScratch) span(i int) (lo, hi int) {
	if i > 0 {
		lo = sc.ends[i-1]
	}
	return lo, sc.ends[i]
}

// key returns miss i's store key.
func (sc *priceScratch) key(i int) []uint32 {
	lo := 0
	if i > 0 {
		lo = sc.keyEnds[i-1]
	}
	return sc.keys[lo:sc.keyEnds[i]]
}

// relevantIDs returns the sorted IDs of miss i's relevant indexes: its
// key past the unit's ID.
func (p *Pricer) relevantIDs(sc *priceScratch, i int) []uint32 {
	return sc.key(i)[len(p.units[sc.miss[i]].ID):]
}

// optimisticTotal sums, in unit order, the known cells and the lower
// bound of each miss.
func (p *Pricer) optimisticTotal(sc *priceScratch, cells []float64) float64 {
	sum, mi := 0.0, 0
	for ui := range p.units {
		if mi < len(sc.miss) && sc.miss[mi] == ui {
			sum += p.lowerBound(ui, p.relevantIDs(sc, mi))
			mi++
		} else {
			sum += cells[ui] * p.units[ui].Scale
		}
	}
	return sum
}

// fill computes the missed cells exactly: one store Do per miss inside
// EvalEach's panic boundary, whose computation sweeps the unit's
// members under its relevant definitions alone (an index outside them
// contributes no access path to any member, so the sum is the members'
// cost under the full configuration).
func (c *OptimizerChecker) fill(ctx context.Context, sc *priceScratch, cells []float64) error {
	p := c.pricer
	return EvalEach(len(sc.miss), c.Parallelism, func(i int) error {
		ui := sc.miss[i]
		u := &p.units[ui]
		lo, hi := sc.span(i)
		v, err := p.store.Do(sc.key(i), func() (float64, error) {
			// A free token is taken without waiting on ctx as well.
			select {
			case c.sem <- struct{}{}:
			default:
				select {
				case c.sem <- struct{}{}:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			defer func() { <-c.sem }()
			sum, calls, err := p.srv.CostPreparedSum(ctx, p.pw, u.Members, u.Weights, optimizer.Configuration(sc.defs[lo:hi]), sc.rxs[lo:hi])
			c.countCalls(calls)
			return sum, err
		})
		if err != nil {
			return err
		}
		cells[ui] = v
		// A bound saves the optimizer calls of a fill: it is worth its
		// bookkeeping where a fill is more than one.
		if len(u.Members) > 1 {
			p.recordBound(ui, p.relevantIDs(sc, i), v*u.Scale)
		}
		return nil
	})
}

// countCalls adds n optimizer calls to the checker's and the engine's
// counts.
func (c *OptimizerChecker) countCalls(n int) {
	c.optCalls.Add(int64(n))
	c.pricer.optCalls.Add(int64(n))
}

// recordBound remembers an exactly costed cell for lower-bound pruning.
func (p *Pricer) recordBound(ui int, ids []uint32, cost float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.bounds[ui] {
		if slices.Equal(e.ids, ids) {
			return
		}
	}
	e := boundEntry{ids: slices.Clone(ids), cost: cost}
	if len(p.bounds[ui]) < maxBoundEntries {
		p.bounds[ui] = append(p.bounds[ui], e)
		return
	}
	p.bounds[ui][p.nextBE[ui]%maxBoundEntries] = e
	p.nextBE[ui]++
}

// lowerBound returns an admissible lower bound for the cell's scaled
// cost: the maximum recorded cost among exactly costed SUPERSETS of its
// index set (a subset of a configuration can never cost less than the
// configuration), or 0 when no superset has been costed. The bound
// inherits the degenerate caveat of the intersection arm cap
// (maxIntersectArms) — see DESIGN.md §12 — which is why pruning only
// ever fast-rejects; accepts are always exact.
func (p *Pricer) lowerBound(ui int, ids []uint32) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lb := 0.0
	for _, e := range p.bounds[ui] {
		if e.cost > lb && isSubset(ids, e.ids) {
			lb = e.cost
		}
	}
	return lb
}

// isSubset reports sub ⊆ super for sorted ID slices.
func isSubset(sub, super []uint32) bool {
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j >= len(super) || super[j] != s {
			return false
		}
		j++
	}
	return true
}

// priceScratch is pooled per-check state: the cell vector, the
// configuration's indexes as the engine prices them in ID order, which
// of them each affected unit has relevant (nw words a unit), the
// affected set, and the missed units with their keys, relevant
// definitions and resolutions.
type priceScratch struct {
	cells    []float64
	pis      []*pricedIndex
	masks    []uint64
	nw       int
	affected optimizer.QuerySet
	miss     []int
	keys     []uint32
	keyEnds  []int
	defs     []catalog.IndexDef
	rxs      []*optimizer.ResolvedIndex
	ends     []int
}

var priceScratchPool = sync.Pool{New: func() any { return new(priceScratch) }}
