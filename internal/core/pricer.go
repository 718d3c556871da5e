package core

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// keySepIndex terminates each index key of a store key. Index keys are
// built from SQL identifiers and "(),", so the ASCII unit separator can
// never occur inside them; it makes the concatenated key unambiguous (no
// two distinct relevant-configuration states can collide).
const keySepIndex = '\x1f'

// Unit is one term of the decomposed workload cost (§3.4.2, and CoPhy's
// cost cell in PAPERS.md): Cost(W, C) = Σ_units cell(u, C) × Scale,
// where the stored cell is Σ_members Weight × CostPrepared(member,
// C restricted to the indexes relevant to the unit). Both cost models
// are unit lists for the same Pricer: a plain workload is one unit per
// query, a compressed one a unit per template of queries that differ
// only in their constants.
type Unit struct {
	// Members are positions in the prepared workload. Relevance is asked
	// of the first: the members of one unit share tables, columns and
	// operators, so an index that can contribute an access path to one
	// can to all, and to none otherwise.
	Members []int
	// Weights, aligned with Members, multiply each member's cost inside
	// the stored cell. A unit a worker pool may fill weighs each member
	// by its workload frequency: that is the sum the pool returns.
	Weights []float64
	// Scale multiplies the stored cell when it is read, so a factor that
	// drifts (a sliding window's template weight) invalidates nothing.
	Scale float64
	// Prefix starts every store key of the unit and ends in a byte no
	// index key contains; it is unique among the units sharing a store
	// for as long as Members and Weights are what it was stored under.
	Prefix string
}

// NewQueryPricer builds the plain cost model's engine: one unit per
// query of w (prepared as pw), weighted by its frequency, under keys
// "q<position>|…". A cell encodes its query's position and frequency,
// so store may hold other engines' cells of the same workload but must
// not outlive it.
func NewQueryPricer(srv CostServer, w *sql.Workload, pw *optimizer.PreparedWorkload, store *costcache.Cache) *Pricer {
	n := len(w.Queries)
	members, weights := make([]int, n), make([]float64, n)
	units := make([]Unit, n)
	for qi, q := range w.Queries {
		members[qi], weights[qi] = qi, q.Freq
		units[qi] = Unit{
			Members: members[qi : qi+1],
			Weights: weights[qi : qi+1],
			Scale:   1,
			Prefix:  "q" + strconv.Itoa(qi) + "|",
		}
	}
	return NewPricer("Cost-Opt", srv, pw, units, store)
}

// maxBoundEntries caps the per-unit list of exactly costed cells kept
// for lower-bound pruning; older entries are overwritten ring-style.
const maxBoundEntries = 16

// boundEntry is one exactly costed cell: the sorted keys of its
// relevant indexes and its scaled cost. By cost monotonicity (adding
// indexes only adds access paths, and cost is a min over paths), any
// cell whose index set is a SUBSET of an entry's costs at least the
// entry's cost — an admissible lower bound for cells not yet stored.
type boundEntry struct {
	keys []string
	cost float64
}

// BatchItem is one cell to cost away from the store: the members of a
// unit and the definitions relevant to it.
type BatchItem struct {
	Members []int
	Defs    []catalog.IndexDef
}

// BatchCostServer costs a batch of cells in a single round trip — the
// coordinator→worker-pool contract for distributed what-if costing
// (internal/distrib provides the implementation). It returns, for each
// item, Σ Freq × CostPrepared over the item's members in member order,
// bit-identical to the local sweep; on any doubt an implementation
// returns an error and the caller costs locally.
type BatchCostServer interface {
	CostBatch(ctx context.Context, items []BatchItem) ([]float64, error)
}

// Pricer is the one delta-pricing engine under both cost models: the
// units of a prepared workload, the store of their cells keyed by the
// subset of a configuration relevant to each, the relevance memo, and
// the lower bounds that prune hopeless candidates. It lives as long as
// its store is meant to — one search for a checker built by
// NewOptimizerChecker, one registration for either unit list of a
// registered workload — and is safe for any number of concurrent
// checkers.
type Pricer struct {
	desc  string
	srv   CostServer
	pw    *optimizer.PreparedWorkload
	units []Unit
	store *costcache.Cache
	rel   *optimizer.Relevance // over the units' first members
	all   optimizer.QuerySet   // every unit

	mu     sync.RWMutex
	bounds [][]boundEntry // per unit, ring-capped
	nextBE []int          // per unit, next ring slot

	optCalls        atomic.Int64 // CostPrepared invocations that filled the store
	remoteBatches   atomic.Int64 // batched RPCs dispatched to workers
	remoteItems     atomic.Int64 // cells costed remotely
	remoteFallbacks atomic.Int64 // batches that fell back to local costing
}

// NewPricer builds an engine over units of pw whose cells live in
// store; srv prices members on store misses and desc names the cost
// model in reports.
func NewPricer(desc string, srv CostServer, pw *optimizer.PreparedWorkload, units []Unit, store *costcache.Cache) *Pricer {
	reps := make([]*optimizer.PreparedQuery, len(units))
	all := optimizer.NewQuerySet(len(units))
	for ui, u := range units {
		reps[ui] = pw.Queries[u.Members[0]]
		all.Add(ui)
	}
	return &Pricer{
		desc: desc, srv: srv, pw: pw, units: units, store: store,
		rel:    (&optimizer.PreparedWorkload{Queries: reps}).NewRelevance(),
		all:    all,
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

// RemoteStats reports distributed-costing activity: batched RPCs
// dispatched, cells costed remotely, and batches that fell back to
// local costing.
func (p *Pricer) RemoteStats() (batches, items, fallbacks int64) {
	return p.remoteBatches.Load(), p.remoteItems.Load(), p.remoteFallbacks.Load()
}

// relevant returns the units whose queries the index can contribute an
// access path to.
func (p *Pricer) relevant(ix *Index) optimizer.QuerySet {
	return p.rel.Queries(ix.Key(), ix.Def)
}

// relevance returns cfg's indexes in sorted-key order with, aligned,
// the units each is relevant to: one memo lookup per index, a bit test
// per unit after. Cost is a min over access paths, so index order
// cannot change it; sorting makes the store key canonical.
func (p *Pricer) relevance(sc *priceScratch, cfg *Configuration) ([]*Index, []optimizer.QuerySet) {
	ixs := append(sc.ixs[:0], cfg.Indexes...)
	slices.SortFunc(ixs, func(a, b *Index) int { return strings.Compare(a.Key(), b.Key()) })
	rels := sc.rels[:0]
	for _, ix := range ixs {
		rels = append(rels, p.relevant(ix))
	}
	sc.ixs, sc.rels = ixs, rels
	return ixs, rels
}

// appendKey appends unit ui's store key under the sorted indexes ixs:
// the unit's prefix, then the key of every index relevant to the unit,
// each terminated by keySepIndex. Two configurations share a unit's key
// exactly when their relevant subsets coincide, so a key addresses one
// cell.
func (p *Pricer) appendKey(buf []byte, ui int, ixs []*Index, rels []optimizer.QuerySet) []byte {
	buf = append(buf, p.units[ui].Prefix...)
	for i, ix := range ixs {
		if rels[i].Has(ui) {
			buf = append(buf, ix.Key()...)
			buf = append(buf, keySepIndex)
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
// allocates nothing.
func (c *OptimizerChecker) price(ctx context.Context, sc *priceScratch, cfg *Configuration, carry []float64, affected optimizer.QuerySet) (float64, error) {
	p := c.pricer
	if cap(sc.cells) < len(p.units) {
		sc.cells = make([]float64, len(p.units))
	}
	cells := sc.cells[:len(p.units)]
	sc.cells = cells
	copy(cells, carry)
	ixs, rels := p.relevance(sc, cfg)
	// The misses' relevant definitions and index keys sit back to back in
	// pooled slices, miss i's at [ends[i-1]:ends[i]].
	sc.miss, sc.missKey, sc.defs, sc.ixKeys, sc.ends = sc.miss[:0], sc.missKey[:0], sc.defs[:0], sc.ixKeys[:0], sc.ends[:0]
	for ui := affected.Next(0); ui >= 0; ui = affected.Next(ui + 1) {
		sc.key = p.appendKey(sc.key[:0], ui, ixs, rels)
		if v, ok := p.store.GetBytes(sc.key); ok {
			cells[ui] = v
			continue
		}
		sc.miss = append(sc.miss, ui)
		sc.missKey = append(sc.missKey, string(sc.key))
		for i, ix := range ixs {
			if rels[i].Has(ui) {
				sc.defs = append(sc.defs, ix.Def)
				sc.ixKeys = append(sc.ixKeys, ix.Key())
			}
		}
		sc.ends = append(sc.ends, len(sc.defs))
	}
	if len(sc.miss) > 0 {
		if carry != nil {
			if lb := p.optimisticTotal(sc, cells); lb > c.U {
				c.pruned.Add(1)
				return lb, nil
			}
		}
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

// span returns the bounds of miss i in sc.defs and sc.ixKeys.
func (sc *priceScratch) span(i int) (lo, hi int) {
	if i > 0 {
		lo = sc.ends[i-1]
	}
	return lo, sc.ends[i]
}

// optimisticTotal sums, in unit order, the known cells and the lower
// bound of each miss.
func (p *Pricer) optimisticTotal(sc *priceScratch, cells []float64) float64 {
	sum, mi := 0.0, 0
	for ui := range p.units {
		if mi < len(sc.miss) && sc.miss[mi] == ui {
			lo, hi := sc.span(mi)
			sum += p.lowerBound(ui, sc.ixKeys[lo:hi])
			mi++
		} else {
			sum += cells[ui] * p.units[ui].Scale
		}
	}
	return sum
}

// fill computes the missed cells exactly: one store Do per miss inside
// EvalEach's panic boundary, whose computation either takes the value a
// worker pool returned for the whole batch or sweeps the unit's members
// under its relevant definitions alone (an index outside them
// contributes no access path to any member, so the sum is the members'
// cost under the full configuration). Either way the store and the call
// counters end up the same, and any doubt about the pool's answer means
// the local sweep — the result never depends on where a cell was costed.
func (c *OptimizerChecker) fill(ctx context.Context, sc *priceScratch, cells []float64) error {
	p := c.pricer
	var remote []float64
	workers := c.Parallelism
	if c.Batch != nil {
		items := make([]BatchItem, len(sc.miss))
		for i, ui := range sc.miss {
			lo, hi := sc.span(i)
			items[i] = BatchItem{Members: p.units[ui].Members, Defs: sc.defs[lo:hi]}
		}
		vals, err := c.Batch.CostBatch(ctx, items)
		ok := err == nil && len(vals) == len(items)
		for _, v := range vals {
			ok = ok && !(math.IsNaN(v) || math.IsInf(v, 0))
		}
		if ok {
			remote, workers = vals, 1
			p.remoteBatches.Add(1)
			p.remoteItems.Add(int64(len(items)))
		} else {
			p.remoteFallbacks.Add(1)
		}
	}
	count := func(n int) {
		c.optCalls.Add(int64(n))
		p.optCalls.Add(int64(n))
	}
	return EvalEach(len(sc.miss), workers, func(i int) error {
		ui := sc.miss[i]
		u := &p.units[ui]
		lo, hi := sc.span(i)
		v, err := p.store.Do(sc.missKey[i], func() (float64, error) {
			if remote != nil {
				count(len(u.Members))
				return remote[i], nil
			}
			select {
			case c.sem <- struct{}{}:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			defer func() { <-c.sem }()
			sum, calls, err := p.srv.CostPreparedSum(ctx, p.pw, u.Members, u.Weights, optimizer.Configuration(sc.defs[lo:hi]))
			count(calls)
			return sum, err
		})
		if err != nil {
			return err
		}
		cells[ui] = v
		// A bound saves the optimizer calls of a fill: it is worth its
		// bookkeeping where a fill is more than one.
		if len(u.Members) > 1 {
			p.recordBound(ui, sc.ixKeys[lo:hi], v*u.Scale)
		}
		return nil
	})
}

// recordBound remembers an exactly costed cell for lower-bound pruning.
func (p *Pricer) recordBound(ui int, keys []string, cost float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.bounds[ui] {
		if slices.Equal(e.keys, keys) {
			return
		}
	}
	e := boundEntry{keys: append([]string(nil), keys...), cost: cost}
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
func (p *Pricer) lowerBound(ui int, keys []string) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lb := 0.0
	for _, e := range p.bounds[ui] {
		if e.cost > lb && isSubset(keys, e.keys) {
			lb = e.cost
		}
	}
	return lb
}

// isSubset reports sub ⊆ super for sorted string slices.
func isSubset(sub, super []string) bool {
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
// configuration's indexes sorted with their relevance, the affected set,
// one key buffer, and the missed units with their keys, relevant
// definitions and index keys.
type priceScratch struct {
	cells    []float64
	ixs      []*Index
	rels     []optimizer.QuerySet
	affected optimizer.QuerySet
	key      []byte
	miss     []int
	missKey  []string
	defs     []catalog.IndexDef
	ixKeys   []string
	ends     []int
}

var priceScratchPool = sync.Pool{New: func() any { return new(priceScratch) }}
