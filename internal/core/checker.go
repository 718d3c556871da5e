package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// ConstraintChecker decides whether a candidate merged configuration
// satisfies the cost constraint (Step 7 of the Greedy algorithm,
// paper Figure 4). The candidate's newly merged index and its
// immediate pair are supplied for syntactic models that never consult
// a cost function.
//
// This is the whole contract between a search and a checker: a wrapper
// forwards each method by calling it, so one that hides a capability
// does not compile.
//
// Implementations in this package are safe for concurrent Accepts
// calls, which the parallel search strategies rely on; SetBase is
// called by the search goroutine between waves, never concurrently
// with Accepts.
type ConstraintChecker interface {
	// Accepts reports whether cfg (obtained by replacing pair a,b with
	// merged index m) satisfies the constraint. A done ctx fails the
	// check with ctx.Err(); the optimizer-backed checkers observe it
	// between per-query optimizer invocations.
	Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error)
	// SetBase records the configuration the search is expanding, before
	// any Accepts against its candidates; delta-pricing checkers price
	// them against it, for the rest it is a no-op.
	SetBase(cfg *Configuration)
	// Evaluations counts how many constraint evaluations have been
	// performed. A constraint evaluation is one Accepts/WorkloadCost
	// call; it is NOT necessarily an optimizer invocation.
	Evaluations() int64
	// OptimizerCalls counts the actual optimizer invocations issued (0
	// when no cost function is consulted). The distinction matters for
	// replicating §3.4.2: checks served from a cost cache are cheap,
	// optimizer invocations dominate running time.
	OptimizerCalls() int64
	// Description names the strategy in reports.
	Description() string
}

// OptimizerChecker implements the optimizer-estimated cost evaluation
// (§3.5.3): Cost(W, C) is computed by invoking the query optimizer
// against the hypothetical configuration, and the constraint is
// Cost(W, C') ≤ U. It is one search's view of a Pricer: the bound, the
// search's current configuration with its cells, and the search's own
// counters. Cells are cached keyed by the subset of the configuration
// relevant to their unit, and a candidate one merge away from the
// search's current configuration re-prices only the units the merge can
// touch (the paper's "cost needs to be obtained only for relevant
// queries" shortcut, §3.4.2): every other unit's cell is carried from
// the base.
//
// NewOptimizerChecker prices a workload query by query (the engine is
// made on first use from Server, W and Prepared, over a store of the
// checker's own); Pricer.NewChecker prices whatever units its engine
// holds.
//
// The checker is safe for concurrent use: the store is sharded and
// deduplicates in-flight computations so two workers never optimize
// the same (unit, relevant-config) key twice, and all counters are
// atomic. Server must be safe for concurrent CostPrepared calls
// (optimizer.Optimizer is) and Parallelism must be set before the
// first evaluation.
type OptimizerChecker struct {
	Server CostServer
	W      *sql.Workload
	U      float64 // absolute workload-cost upper bound

	// Parallelism bounds concurrent CostPrepared calls issued by this
	// checker across all concurrent evaluations. <= 1 means fully serial
	// costing.
	Parallelism int

	// Prepared is W prepared against the Server's statistics. A caller
	// that holds it already (the facade and the advisor service prepare
	// once per workload) sets it before the first evaluation; left nil,
	// the first evaluation prepares W through Server. One whose length
	// is not W's fails every evaluation. An index counts as relevant to
	// a query only when it can contribute an access path to it
	// (PreparedWorkload.RelevantQueries).
	Prepared *optimizer.PreparedWorkload

	// Batch, when non-nil, offloads each evaluation's store misses to a
	// pool of what-if worker processes in one batched round trip
	// (internal/distrib provides the implementation). Workers run the
	// same costing code over identically-built statistics, so remote
	// costs are bit-identical to local ones; they are installed through
	// the same store path with the same counter accounting, and any RPC
	// failure falls back to local costing — the search result never
	// depends on whether or where a batch was dispatched. Set before the
	// first evaluation.
	Batch BatchCostServer

	once    sync.Once
	initErr error         // Prepared could not be built or does not match W
	pricer  *Pricer       // the constructor's, or singleton units of W made on first use
	sem     chan struct{} // tokens for actual optimizer invocations

	// mu guards the base and the vectors waiting to become one. A base
	// is immutable once published: pricing it replaces the pointer.
	mu       sync.Mutex
	base     *pricedBase
	accepted map[*Configuration][]float64 // cells of the accepted candidates of the current base

	checks   atomic.Int64 // constraint checks (Accepts/WorkloadCostContext calls)
	optCalls atomic.Int64 // CostPrepared invocations this checker's fills account for
	pruned   atomic.Int64 // candidates rejected on the lower bound alone
}

// pricedBase is the search's current configuration with its cells;
// costs is nil until the first check of the expansion prices it.
type pricedBase struct {
	*SearchBase
	costs []float64
}

// NewOptimizerChecker builds a checker with U = baseCost × (1 + slackPct).
// baseCost should be Cost(W, C) for the initial configuration; slackPct
// is the paper's "cost constraint" percentage (e.g. 0.10 for 10%).
func NewOptimizerChecker(server CostServer, w *sql.Workload, baseCost, slackPct float64) *OptimizerChecker {
	return &OptimizerChecker{
		Server: server,
		W:      w,
		U:      baseCost * (1 + slackPct),
	}
}

// lazyInit builds, on first use, the worker semaphore and — unless the
// constructor supplied an engine — a NewQueryPricer engine over W and a
// store of its own, preparing W when the caller supplied no Prepared.
// Its error is every evaluation's error.
func (c *OptimizerChecker) lazyInit() error {
	c.once.Do(func() {
		c.sem = make(chan struct{}, max(c.Parallelism, 1))
		if c.pricer != nil {
			return
		}
		pw, err := preparedFor(c.Server, c.W, c.Prepared)
		if err != nil {
			// An engine over no units: the accessors have a store and
			// counters to read, every evaluation fails before pricing.
			c.initErr = err
			c.pricer = NewPricer("Cost-Opt", c.Server, pw, nil, costcache.New(0))
			return
		}
		c.pricer = NewQueryPricer(c.Server, c.W, pw, costcache.New(0))
	})
	return c.initErr
}

// Description implements ConstraintChecker: the engine's name for its
// units.
func (c *OptimizerChecker) Description() string {
	_ = c.lazyInit() // the engine exists even when preparing W failed
	return c.pricer.desc
}

// Evaluations implements ConstraintChecker: the number of constraint
// checks (Accepts and WorkloadCostContext calls), cached or not.
func (c *OptimizerChecker) Evaluations() int64 { return c.checks.Load() }

// OptimizerCalls implements ConstraintChecker: the number of actual
// CostPrepared invocations this checker's store misses account for — the
// expensive quantity §3.4.2 says dominates Greedy's running time. Store
// hits never count here.
func (c *OptimizerChecker) OptimizerCalls() int64 { return c.optCalls.Load() }

// PrunedChecks counts candidates rejected by the admissible lower
// bound without exact costing of every affected unit.
func (c *OptimizerChecker) PrunedChecks() int64 { return c.pruned.Load() }

// CacheStats exposes the engine's store counters (lookup hits, computed
// misses, deduplicated in-flight waits) — the engine's, so shared with
// every checker over it.
func (c *OptimizerChecker) CacheStats() (hits, misses, dedups int64) {
	_ = c.lazyInit()
	return c.pricer.store.Stats()
}

// RemoteStats reports the engine's distributed-costing activity (see
// Pricer.RemoteStats).
func (c *OptimizerChecker) RemoteStats() (batches, items, fallbacks int64) {
	_ = c.lazyInit()
	return c.pricer.RemoteStats()
}

// SetBase implements ConstraintChecker. A candidate this checker
// accepted since the last SetBase arrives with its cells; any other
// configuration is priced by the first check that needs it, so that a
// costing error surfaces through Accepts, where a resilient wrapper can
// retry it.
func (c *OptimizerChecker) SetBase(cfg *Configuration) {
	c.mu.Lock()
	c.base = &pricedBase{SearchBase: NewSearchBase(cfg), costs: c.accepted[cfg]}
	c.accepted = nil
	c.mu.Unlock()
}

// pricedBaseFor returns the current base with its cells, pricing it on
// first use, or nil when no search has set one. Concurrent first checks
// of one wave may both price it; the store deduplicates the optimizer
// calls and both arrive at the same vector. Nothing is recorded unless
// pricing succeeds.
func (c *OptimizerChecker) pricedBaseFor(ctx context.Context) (*pricedBase, error) {
	c.mu.Lock()
	bs := c.base
	c.mu.Unlock()
	if bs == nil || bs.costs != nil {
		return bs, nil
	}
	sc := priceScratchPool.Get().(*priceScratch)
	defer priceScratchPool.Put(sc)
	if _, err := c.price(ctx, sc, bs.Cfg, nil, c.pricer.all); err != nil {
		return nil, err
	}
	priced := &pricedBase{SearchBase: bs.SearchBase, costs: append([]float64(nil), sc.cells...)}
	c.mu.Lock()
	if c.base == bs {
		c.base = priced
	}
	c.mu.Unlock()
	return priced, nil
}

// Accepts implements ConstraintChecker: cancellation is observed
// between the optimizer invocations of the workload costing. A
// candidate one ReplacePair(a, b, m) away from the base re-prices only
// the units a, b or m is relevant to: an irrelevant index contributes
// no access path, so every other unit's relevant subset, key and cell
// are the base's. Any other configuration (Exhaustive's stale sibling
// batches) is the same evaluation with every unit affected. Accepts are
// always decided on exact costs, and totals sum in unit order, so the
// delta and the full evaluation agree bit for bit.
func (c *OptimizerChecker) Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	if err := c.lazyInit(); err != nil {
		return false, err
	}
	c.checks.Add(1)
	if err := ctx.Err(); err != nil {
		return false, err
	}
	bs, err := c.pricedBaseFor(ctx)
	if err != nil {
		return false, err
	}
	p := c.pricer
	sc := priceScratchPool.Get().(*priceScratch)
	defer priceScratchPool.Put(sc)
	var carry []float64
	affected := p.all
	derived := bs != nil && bs.Derives(cfg, m, a, b)
	if derived {
		carry = bs.costs
		if cap(sc.affected) < len(p.all) {
			sc.affected = make(optimizer.QuerySet, len(p.all))
		}
		affected = sc.affected[:len(p.all)]
		clear(affected)
		affected.Union(p.relevant(a))
		affected.Union(p.relevant(b))
		affected.Union(p.relevant(m))
	}
	total, err := c.price(ctx, sc, cfg, carry, affected)
	if err != nil {
		return false, err
	}
	if total > c.U {
		return false, nil
	}
	if derived {
		// The search may adopt cfg next; its vector is then the base.
		vec := append([]float64(nil), sc.cells...)
		c.mu.Lock()
		if c.accepted == nil {
			c.accepted = make(map[*Configuration][]float64)
		}
		c.accepted[cfg] = vec
		c.mu.Unlock()
	}
	return true, nil
}

// WorkloadCostContext computes Cost(W, C) from the store. Misses are
// optimized concurrently (up to Parallelism at a time); the total is
// summed in unit order so results are byte-identical to a serial
// evaluation. ctx is checked before every actual optimizer invocation,
// so a canceled caller stops after at most one in-flight optimization.
// Cached cells are still served after cancellation begins; a
// cancellation error is never cached.
func (c *OptimizerChecker) WorkloadCostContext(ctx context.Context, cfg *Configuration) (float64, error) {
	if err := c.lazyInit(); err != nil {
		return 0, err
	}
	c.checks.Add(1)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sc := priceScratchPool.Get().(*priceScratch)
	defer priceScratchPool.Put(sc)
	return c.price(ctx, sc, cfg, nil, c.pricer.all)
}

// EvalEach runs eval(0) … eval(n-1), on up to workers goroutines when
// workers > 1 and on the caller's otherwise, and returns the error of
// the smallest failing index, matching serial evaluation order. It is
// the one worker loop of the costing paths (the plain checker's cache
// misses, the compressed cost table's, the advisor's candidates) and
// their panic boundary: each evaluation runs through safeEval, so a
// panicking cost server fails one costing (as a typed *PanicError)
// instead of killing a worker goroutine — and with it the process.
func EvalEach(n, workers int, eval func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := safeEval(eval, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = safeEval(eval, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// safeEval converts a panic during one evaluation into a *PanicError.
// Crucially this runs on the goroutine that calls eval — parallel
// costing workers included — which is the only place a recover can
// catch it.
func safeEval(eval func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return eval(i)
}

// safeAccepts is check.Accepts behind safeEval's boundary, for the
// goroutines a search fans one wave's checks out to: a panic anywhere
// under a check (a store install as much as a cost server) becomes that
// candidate's verdict error, consumed in rank order like any other.
func safeAccepts(ctx context.Context, check ConstraintChecker, cfg *Configuration, m, a, b *Index) (ok bool, err error) {
	err = safeEval(func(int) (err error) {
		ok, err = check.Accepts(ctx, cfg, m, a, b)
		return err
	}, 0)
	return ok, err
}

// NoCostChecker implements the No-Cost model (§3.5.1): a merged index
// is acceptable iff (a) its width is at most fraction F of its table's
// row width and (b) it does not exceed its wider immediate parent's
// width by more than fraction P. No cost function is ever consulted,
// so the final configuration carries no cost guarantee — exactly the
// drawback §3.5.1 notes.
//
// Safe for concurrent Accepts calls (the schema is read-only and the
// counter is atomic).
type NoCostChecker struct {
	F      float64              // max merged-index width as a fraction of table width
	P      float64              // max growth over either immediate parent
	Tables catalog.SchemaHolder // table metadata; the engine's Database satisfies it

	evals atomic.Int64
}

// Description implements ConstraintChecker.
func (c *NoCostChecker) Description() string { return "Cost-None" }

// Evaluations implements ConstraintChecker.
func (c *NoCostChecker) Evaluations() int64 { return c.evals.Load() }

// OptimizerCalls implements ConstraintChecker: the model never consults
// a cost function.
func (c *NoCostChecker) OptimizerCalls() int64 { return 0 }

// SetBase implements ConstraintChecker: a verdict depends on the merged
// index and its parents alone.
func (c *NoCostChecker) SetBase(*Configuration) {}

// Accepts implements ConstraintChecker.
func (c *NoCostChecker) Accepts(ctx context.Context, _ *Configuration, m, a, b *Index) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	c.evals.Add(1)
	t, ok := c.Tables.Schema().Table(m.Def.Table)
	if !ok {
		return false, fmt.Errorf("core: unknown table %q", m.Def.Table)
	}
	mw := float64(t.WidthOf(m.Def.Columns))
	if mw > c.F*float64(t.RowWidth()) {
		return false, nil
	}
	wider := float64(t.WidthOf(a.Def.Columns))
	if bw := float64(t.WidthOf(b.Def.Columns)); bw > wider {
		wider = bw
	}
	if wider > 0 && mw > (1+c.P)*wider {
		return false, nil
	}
	return true, nil
}

// PrefilteredChecker consults an inexpensive external cost model first
// and invokes the optimizer-backed checker only when the external
// model predicts the constraint can be met (§3.5.3, last paragraph).
// The external bound is calibrated against the initial configuration:
// a candidate is vetoed only when its external cost exceeds the
// external baseline by more than the slack allowance times Margin.
//
// Safe for concurrent Accepts calls: the external model is read-only
// after SetBaseline, the rejection counter is atomic, and Inner is
// itself concurrency-safe.
type PrefilteredChecker struct {
	External *ExternalCostModel
	Inner    *OptimizerChecker
	// SlackPct mirrors the cost constraint used to build Inner.
	SlackPct float64
	// Margin loosens the external prediction so the coarse model only
	// vetoes clearly hopeless candidates; >1 means permissive.
	Margin float64

	prefilterHits atomic.Int64
}

// Description implements ConstraintChecker.
func (c *PrefilteredChecker) Description() string { return "Cost-Opt+Prefilter" }

// Evaluations implements ConstraintChecker.
func (c *PrefilteredChecker) Evaluations() int64 { return c.Inner.Evaluations() }

// OptimizerCalls implements ConstraintChecker.
func (c *PrefilteredChecker) OptimizerCalls() int64 { return c.Inner.OptimizerCalls() }

// PrefilterRejections counts candidates the external model vetoed
// without an optimizer call.
func (c *PrefilteredChecker) PrefilterRejections() int64 { return c.prefilterHits.Load() }

// SetBase forwards the search's current configuration to the inner
// checker, which prices candidates as deltas against it.
func (c *PrefilteredChecker) SetBase(cfg *Configuration) { c.Inner.SetBase(cfg) }

// Accepts implements ConstraintChecker; the cheap external prefilter
// runs unconditionally, the optimizer-backed inner check observes ctx.
func (c *PrefilteredChecker) Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	margin := c.Margin
	if margin <= 0 {
		margin = 2.0
	}
	extBase := c.External.BaselineCost()
	if extBase > 0 {
		extCost := c.External.WorkloadCost(cfg)
		if extCost > extBase*(1+c.SlackPct*margin) {
			c.prefilterHits.Add(1)
			return false, nil
		}
	}
	return c.Inner.Accepts(ctx, cfg, m, a, b)
}
