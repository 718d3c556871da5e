package wscale

import (
	"context"
	"sync"
	"sync/atomic"

	"indexmerge/internal/core"
	"indexmerge/internal/optimizer"
)

// Checker is the decomposition-aware cost constraint (Cost(W, C') ≤ U)
// over a compressed workload: candidates are priced as per-template
// deltas against the search's current configuration, served from the
// (template, atom) cost table, with an admissible lower bound that
// fast-rejects hopeless candidates before any exact costing. It plugs
// into core.Greedy / core.Exhaustive beside OptimizerChecker and
// composes with core.ResilientChecker.
//
// Safe for concurrent Accepts calls — the searches' parallel waves rely
// on it.
type Checker struct {
	P *Prepared
	U float64 // absolute workload-cost upper bound

	// Parallelism bounds concurrent CostPrepared member sweeps when
	// filling cost-table misses. <= 1 is serial.
	Parallelism int

	// Remote, when non-nil, batches cost-table misses to a pool of
	// what-if worker processes instead of sweeping members locally.
	// Totals, table contents and counters are byte-identical either
	// way, and any remote failure falls back to the local sweep, so
	// the search result never depends on the worker count. Set before
	// the first evaluation.
	Remote RemoteCoster

	mu          sync.Mutex
	pendingBase *core.Configuration
	bs          *baseState

	evals       atomic.Int64
	deltaChecks atomic.Int64
	fullChecks  atomic.Int64
	pruned      atomic.Int64
	optCalls    atomic.Int64
}

var _ core.ConstraintChecker = (*Checker)(nil)

// baseState is the lazily-computed per-template costing of the search's
// current configuration. Costs are exact and summed in template order.
type baseState struct {
	*core.SearchBase
	costs []float64
	total float64
}

// NewChecker builds a checker with U = baseCost × (1 + slackPct).
// baseCost should be p.WorkloadCost for the initial configuration;
// slackPct is the paper's cost-constraint percentage (e.g. 0.10).
func NewChecker(p *Prepared, baseCost, slackPct float64) *Checker {
	return &Checker{P: p, U: baseCost * (1 + slackPct)}
}

// Description implements core.ConstraintChecker.
func (c *Checker) Description() string { return "Cost-Opt-Compressed" }

// Evaluations implements core.ConstraintChecker.
func (c *Checker) Evaluations() int64 { return c.evals.Load() }

// OptimizerCalls implements core.ConstraintChecker: the CostPrepared
// invocations this checker issued to fill cost-table misses. Table hits
// never count.
func (c *Checker) OptimizerCalls() int64 { return c.optCalls.Load() }

// DeltaChecks counts constraint checks served by the delta path
// (base-derived candidate, unaffected templates reused).
func (c *Checker) DeltaChecks() int64 { return c.deltaChecks.Load() }

// FullChecks counts constraint checks that fell back to full
// decomposed costing (no base set, or a candidate not one merge away
// from the current base — Exhaustive's stale sibling batches).
func (c *Checker) FullChecks() int64 { return c.fullChecks.Load() }

// PrunedChecks counts candidates rejected by the admissible lower
// bound without exact costing of every affected template.
func (c *Checker) PrunedChecks() int64 { return c.pruned.Load() }

// SetBase implements core.ConstraintChecker: it records the search's
// current configuration; per-template base costs are computed lazily on
// the first constraint check so costing errors surface through Accepts
// (where resilient wrappers can retry them) instead of being lost.
func (c *Checker) SetBase(cfg *core.Configuration) {
	c.mu.Lock()
	c.pendingBase = cfg
	c.mu.Unlock()
}

// ensureBase returns the costed base state for the pending base,
// computing it on first use. Returns nil with no error when no base has
// been set (the checker then prices every candidate in full).
func (c *Checker) ensureBase(ctx context.Context) (*baseState, error) {
	c.mu.Lock()
	pb, bs := c.pendingBase, c.bs
	c.mu.Unlock()
	if pb == nil {
		return nil, nil
	}
	if bs != nil && bs.Cfg == pb {
		return bs, nil
	}
	// Concurrent first checks of one wave may both compute the base;
	// the cost table deduplicates the underlying member sweeps and both
	// arrive at identical state.
	costs, total, err := c.P.templateCosts(ctx, pb, c.Parallelism, &c.optCalls, c.Remote)
	if err != nil {
		return nil, err
	}
	bs = &baseState{SearchBase: core.NewSearchBase(pb), costs: costs, total: total}
	c.mu.Lock()
	c.bs = bs
	c.mu.Unlock()
	return bs, nil
}

// Accepts implements core.ConstraintChecker. With a base set and a
// base-derived candidate it prices only the affected templates — those
// for which a, b or m is relevant (all share m's table; an irrelevant
// index contributes no access path, so every other template's atom, and
// hence cost, is unchanged) — and reuses the base's per-template costs
// for the rest. Before exact costing it sums exact-where-known with the
// admissible lower bound for uncached atoms: if even that optimistic
// total exceeds U the candidate is rejected without touching the
// optimizer. Accepts are always decided on exact costs, and totals sum
// in template order, so the delta and full paths agree bit for bit.
func (c *Checker) Accepts(ctx context.Context, cfg *core.Configuration, m, a, b *core.Index) (bool, error) {
	c.evals.Add(1)
	bs, err := c.ensureBase(ctx)
	if err != nil {
		return false, err
	}
	if bs == nil || !bs.Derives(cfg, m, a, b) {
		c.fullChecks.Add(1)
		_, total, err := c.P.templateCosts(ctx, cfg, c.Parallelism, &c.optCalls, c.Remote)
		if err != nil {
			return false, err
		}
		return total <= c.U, nil
	}
	c.deltaChecks.Add(1)

	n := len(c.P.C.Templates)
	costs := make([]float64, n)
	copy(costs, bs.costs)
	var misses []pendingAtom
	var relBuf [maxStackRels]optimizer.QuerySet
	rels := c.P.relevance(relBuf[:0], cfg)
	ra, rb, rm := c.P.relevant(a), c.P.relevant(b), c.P.relevant(m)
	lbSum := 0.0
	for ti := 0; ti < n; ti++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if !(ra.Has(ti) || rb.Has(ti) || rm.Has(ti)) {
			lbSum += costs[ti]
			continue
		}
		key, defs, keys := c.P.atom(ti, cfg, rels)
		if v, ok := c.P.tableGet(ti, key); ok {
			costs[ti] = v
			lbSum += v
			continue
		}
		misses = append(misses, pendingAtom{ti: ti, key: key, defs: defs, keys: keys})
		lbSum += c.P.lowerBound(ti, keys)
	}
	if len(misses) > 0 {
		if lbSum > c.U {
			// Every miss's true cost is at least its bound, so the exact
			// total can only be higher — reject without costing.
			c.pruned.Add(1)
			return false, nil
		}
		if err := c.P.fillMisses(ctx, misses, costs, c.Parallelism, &c.optCalls, c.Remote); err != nil {
			return false, err
		}
	}
	total := 0.0
	for _, v := range costs {
		total += v
	}
	return total <= c.U, nil
}
