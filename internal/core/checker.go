package core

import (
	"context"
	"fmt"
	"math"
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

// Cache-key separators. Index keys are built from SQL identifiers and
// "(),", so the ASCII unit/group separators can never occur inside
// them; they make the concatenated key unambiguous (no two distinct
// relevant-configuration states can collide).
const (
	keySepIndex = '\x1f' // terminates each index key
	keySepNS    = '\x1d' // terminates the checker's key namespace
)

// OptimizerChecker implements the optimizer-estimated cost evaluation
// (§3.5.3): Cost(W, C) is computed by invoking the query optimizer
// against the hypothetical configuration, and the constraint is
// Cost(W, C') ≤ U. Per-query costs are cached keyed by the subset of
// the configuration relevant to the query, and a candidate one merge
// away from the search's current configuration re-prices only the
// queries the merge can touch (the paper's "cost needs to be obtained
// only for relevant queries" shortcut, §3.4.2): every other query's
// cost is carried from the base.
//
// The checker is safe for concurrent use: the cache is sharded and
// deduplicates in-flight computations so two workers never optimize
// the same (query, relevant-config) key twice, and all counters are
// atomic. Server must be safe for concurrent CostPrepared calls
// (optimizer.Optimizer is) and Parallelism must be set before the
// first evaluation.
type OptimizerChecker struct {
	Server CostServer
	W      *sql.Workload
	U      float64 // absolute workload-cost upper bound

	// Parallelism bounds concurrent Server.CostPrepared calls issued by
	// this checker across all concurrent WorkloadCostContext
	// invocations. <= 1 means fully serial per-query costing.
	Parallelism int

	// Cache, when non-nil, supplies an external what-if cost cache to
	// use instead of a private one — the advisor service shares one
	// bounded cache across all of a session's jobs. Set before the
	// first evaluation. When the cache is shared across checkers built
	// over *different* workloads, KeyNamespace must distinguish them:
	// per-query keys embed only the query's position in the workload.
	Cache *costcache.Cache
	// KeyNamespace is prepended (with a reserved separator) to every
	// cache key. Choose one distinct namespace per workload when
	// sharing Cache.
	KeyNamespace string

	// Prepared is W prepared against the Server's statistics. A caller
	// that holds it already (the facade and the advisor service prepare
	// once per workload) sets it before the first evaluation; left nil,
	// the first evaluation prepares W through Server. One whose length
	// is not W's fails every evaluation. An index counts as relevant to
	// a query only when it can contribute an access path to it
	// (PreparedWorkload.RelevantQueries).
	Prepared *optimizer.PreparedWorkload

	// Batch, when non-nil, offloads cache-missed per-query costings to
	// a pool of what-if worker processes in one batched round trip
	// before the local evaluation path runs (internal/distrib provides
	// the implementation). Workers run the same costing code over
	// identically-built statistics, so remote costs are bit-identical
	// to local ones; results are installed through the same cache path
	// with the same counter accounting, and any RPC failure falls back
	// to local costing — the search result never depends on whether or
	// where a batch was dispatched. Set before the first evaluation.
	Batch BatchCostServer

	once     sync.Once
	initErr  error // Prepared could not be built or does not match W
	cache    *costcache.Cache
	sem      chan struct{}               // tokens for actual optimizer invocations
	prefixes []string                    // per query: "<namespace>\x1dq<idx>|"
	pw       *optimizer.PreparedWorkload // Prepared, or W prepared on first use
	all      optimizer.QuerySet          // every query position
	rel      *optimizer.Relevance        // memoized for the checker's one search

	// mu guards the base and the vectors waiting to become one. A base
	// is immutable once published: pricing it replaces the pointer.
	mu       sync.Mutex
	base     *pricedBase
	accepted map[*Configuration][]float64 // per-query costs of the accepted candidates of the current base

	checks   atomic.Int64 // constraint checks (Accepts/WorkloadCostContext calls)
	optCalls atomic.Int64 // actual Server.CostPrepared invocations

	remoteBatches   atomic.Int64 // batched RPCs dispatched to workers
	remoteItems     atomic.Int64 // queries costed remotely
	remoteFallbacks atomic.Int64 // batches that fell back to local costing
}

// pricedBase is the search's current configuration with its per-query
// costs; costs is nil until the first check of the expansion prices it.
type pricedBase struct {
	*SearchBase
	costs []float64
}

// BatchCostServer costs a batch of workload queries (by position)
// under one hypothetical configuration in a single round trip —
// the coordinator→worker-pool contract for distributed what-if
// costing. Implementations must return exactly len(queries) finite
// costs, each bit-identical to what the local prepared fast path
// would produce for the same (query, configuration); on any doubt
// they should return an error and let the caller cost locally.
type BatchCostServer interface {
	CostQueryBatch(ctx context.Context, queries []int, defs []catalog.IndexDef) ([]float64, error)
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

// lazyInit builds the cache, the worker semaphore, the prepared
// workload when the caller supplied none, and the per-query key
// metadata on first use. Its error is every evaluation's error.
func (c *OptimizerChecker) lazyInit() error {
	c.once.Do(func() {
		if c.Cache != nil {
			c.cache = c.Cache
		} else {
			c.cache = costcache.New(0)
		}
		p := c.Parallelism
		if p < 1 {
			p = 1
		}
		c.sem = make(chan struct{}, p)
		if c.pw, c.initErr = preparedFor(c.Server, c.W, c.Prepared); c.initErr != nil {
			return
		}
		c.rel = c.pw.NewRelevance()
		nq := len(c.W.Queries)
		c.prefixes = make([]string, nq)
		c.all = optimizer.NewQuerySet(nq)
		for qi := range c.W.Queries {
			c.prefixes[qi] = fmt.Sprintf("%s%cq%d|", c.KeyNamespace, keySepNS, qi)
			c.all.Add(qi)
		}
	})
	return c.initErr
}

// Description implements ConstraintChecker.
func (c *OptimizerChecker) Description() string { return "Cost-Opt" }

// Evaluations implements ConstraintChecker: the number of constraint
// checks (Accepts and WorkloadCostContext calls), cached or not.
func (c *OptimizerChecker) Evaluations() int64 { return c.checks.Load() }

// OptimizerCalls implements ConstraintChecker: the number of actual
// Server.CostPrepared invocations — the expensive quantity §3.4.2 says
// dominates Greedy's running time. Cache hits never count here.
func (c *OptimizerChecker) OptimizerCalls() int64 { return c.optCalls.Load() }

// CacheStats exposes the underlying cost-cache counters (lookup hits,
// computed misses, deduplicated in-flight waits).
func (c *OptimizerChecker) CacheStats() (hits, misses, dedups int64) {
	_ = c.lazyInit() // the cache exists even when preparing W failed
	return c.cache.Stats()
}

// relevant returns the queries whose cost can depend on the index:
// those it can contribute an access path to.
func (c *OptimizerChecker) relevant(ix *Index) optimizer.QuerySet {
	return c.rel.Queries(ix.Key(), ix.Def)
}

// relevance appends relevant(ix) for every index of cfg, aligned with
// cfg.Indexes.
func (c *OptimizerChecker) relevance(rels []optimizer.QuerySet, cfg *Configuration) []optimizer.QuerySet {
	for _, ix := range cfg.Indexes {
		rels = append(rels, c.relevant(ix))
	}
	return rels
}

// appendQueryKey appends query qi's cache key under cfg: the query's
// namespace prefix, then the key of every index relevant to the query
// in configuration order, each terminated by keySepIndex. Two
// configurations share a query's key exactly when their relevant
// subsets coincide, so a key addresses one cost.
func (c *OptimizerChecker) appendQueryKey(buf []byte, qi int, cfg *Configuration, rels []optimizer.QuerySet) []byte {
	buf = append(buf, c.prefixes[qi]...)
	for i, ix := range cfg.Indexes {
		if rels[i].Has(qi) {
			buf = append(buf, ix.Key()...)
			buf = append(buf, keySepIndex)
		}
	}
	return buf
}

// SetBase implements ConstraintChecker. A candidate this checker
// accepted since the last SetBase arrives with its per-query costs; any
// other configuration is priced by the first check that needs it, so
// that a costing error surfaces through Accepts, where a resilient
// wrapper can retry it.
func (c *OptimizerChecker) SetBase(cfg *Configuration) {
	c.mu.Lock()
	c.base = &pricedBase{SearchBase: NewSearchBase(cfg), costs: c.accepted[cfg]}
	c.accepted = nil
	c.mu.Unlock()
}

// pricedBaseFor returns the current base with its per-query costs,
// pricing it on first use, or nil when no search has set one.
// Concurrent first checks of one wave may both price it; the cache
// deduplicates the optimizer calls and both arrive at the same vector.
// Nothing is recorded unless pricing succeeds.
func (c *OptimizerChecker) pricedBaseFor(ctx context.Context) (*pricedBase, error) {
	c.mu.Lock()
	bs := c.base
	c.mu.Unlock()
	if bs == nil || bs.costs != nil {
		return bs, nil
	}
	sc := checkScratchPool.Get().(*checkScratch)
	defer checkScratchPool.Put(sc)
	if _, err := c.price(ctx, sc, bs.Cfg, nil, c.all); err != nil {
		return nil, err
	}
	priced := &pricedBase{SearchBase: bs.SearchBase, costs: append([]float64(nil), sc.costs...)}
	c.mu.Lock()
	if c.base == bs {
		c.base = priced
	}
	c.mu.Unlock()
	return priced, nil
}

// Accepts implements ConstraintChecker: cancellation is observed
// between the per-query optimizer invocations of the workload costing.
// A candidate one ReplacePair(a, b, m) away from the base re-prices
// only the queries a, b or m is relevant to: an irrelevant index
// contributes no access path, so every other query's relevant subset,
// key and cost are the base's. Any other configuration is the same
// evaluation with every query affected.
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
	sc := checkScratchPool.Get().(*checkScratch)
	defer checkScratchPool.Put(sc)
	var carry []float64
	affected := c.all
	derived := bs != nil && bs.Derives(cfg, m, a, b)
	if derived {
		carry = bs.costs
		if cap(sc.affected) < len(c.all) {
			sc.affected = make(optimizer.QuerySet, len(c.all))
		}
		affected = sc.affected[:len(c.all)]
		clear(affected)
		affected.Union(c.relevant(a))
		affected.Union(c.relevant(b))
		affected.Union(c.relevant(m))
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
		vec := append([]float64(nil), sc.costs...)
		c.mu.Lock()
		if c.accepted == nil {
			c.accepted = make(map[*Configuration][]float64)
		}
		c.accepted[cfg] = vec
		c.mu.Unlock()
	}
	return true, nil
}

// WorkloadCostContext computes Cost(W, C) with per-query caching. Cache
// misses are optimized concurrently (up to Parallelism at a time); the
// total is summed in query order so results are byte-identical to a
// serial evaluation. ctx is checked before every actual optimizer
// invocation, so a canceled caller stops after at most one in-flight
// per-query optimization. Cached entries are still served after
// cancellation begins; a cancellation error is never cached.
func (c *OptimizerChecker) WorkloadCostContext(ctx context.Context, cfg *Configuration) (float64, error) {
	if err := c.lazyInit(); err != nil {
		return 0, err
	}
	c.checks.Add(1)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sc := checkScratchPool.Get().(*checkScratch)
	defer checkScratchPool.Put(sc)
	return c.price(ctx, sc, cfg, nil, c.all)
}

// price is the checker's one evaluation routine. It leaves cfg's
// per-query costs in sc.costs and returns their frequency-weighted sum
// in workload order. The affected queries are keyed by their relevant
// subset of cfg and looked up, and the misses are costed under that
// subset alone; every other query keeps the cost carry holds for it
// (carry may be nil when every query is affected). A check whose
// lookups all hit allocates nothing.
func (c *OptimizerChecker) price(ctx context.Context, sc *checkScratch, cfg *Configuration, carry []float64, affected optimizer.QuerySet) (float64, error) {
	nq := len(c.W.Queries)
	if cap(sc.costs) < nq {
		sc.costs = make([]float64, nq)
	}
	costs := sc.costs[:nq]
	sc.costs = costs
	copy(costs, carry)
	rels := c.relevance(sc.rels[:0], cfg)
	sc.rels = rels
	missQ, missKey := sc.missQ[:0], sc.missKey[:0]
	for qi := affected.Next(0); qi >= 0; qi = affected.Next(qi + 1) {
		sc.key = c.appendQueryKey(sc.key[:0], qi, cfg, rels)
		if v, ok := c.cache.GetBytes(sc.key); ok {
			costs[qi] = v
		} else {
			missQ = append(missQ, qi)
			missKey = append(missKey, string(sc.key))
		}
	}
	sc.missQ, sc.missKey = missQ, missKey

	if len(missQ) > 0 && (c.Batch == nil || !c.batchMisses(ctx, missQ, missKey, costs, cfg.Defs())) {
		// Each miss is costed under its relevant subset only: the lists
		// sit back to back in one pooled slice, miss i's at
		// defs[ends[i-1]:ends[i]].
		defs, ends := sc.defs[:0], sc.ends[:0]
		for _, qi := range missQ {
			for i, ix := range cfg.Indexes {
				if rels[i].Has(qi) {
					defs = append(defs, ix.Def)
				}
			}
			ends = append(ends, len(defs))
		}
		sc.defs, sc.ends = defs, ends
		eval := func(i int) error {
			qi, lo := missQ[i], 0
			if i > 0 {
				lo = ends[i-1]
			}
			v, err := c.cache.Do(missKey[i], func() (float64, error) {
				select {
				case c.sem <- struct{}{}:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
				defer func() { <-c.sem }()
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				c.optCalls.Add(1)
				return c.Server.CostPrepared(c.pw.Queries[qi], optimizer.Configuration(defs[lo:ends[i]]))
			})
			if err != nil {
				return err
			}
			costs[qi] = v
			return nil
		}
		if err := EvalEach(len(missQ), c.Parallelism, eval); err != nil {
			return 0, err
		}
	}

	total := 0.0
	for qi, q := range c.W.Queries {
		total += costs[qi] * q.Freq
	}
	return total, nil
}

// batchMisses offloads the cache-missed queries to the worker pool in
// one batched RPC, under the whole configuration (an index outside a
// query's relevant subset changes no cost). Results are installed
// through the same cache Do path as local evaluation — counting one
// optimizer call per computed query — so cache contents and counters
// stay byte-identical to a local run. Any RPC error, short response,
// or non-finite cost returns false with costs untouched; the caller
// then costs locally.
func (c *OptimizerChecker) batchMisses(ctx context.Context, missQ []int, missKey []string, costs []float64, defs []catalog.IndexDef) bool {
	vals, err := c.Batch.CostQueryBatch(ctx, missQ, defs)
	if err != nil || len(vals) != len(missQ) {
		c.remoteFallbacks.Add(1)
		return false
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			c.remoteFallbacks.Add(1)
			return false
		}
	}
	for i, qi := range missQ {
		v, err := c.cache.Do(missKey[i], func() (float64, error) {
			c.optCalls.Add(1)
			return vals[i], nil
		})
		if err != nil {
			c.remoteFallbacks.Add(1)
			return false
		}
		costs[qi] = v
	}
	c.remoteBatches.Add(1)
	c.remoteItems.Add(int64(len(missQ)))
	return true
}

// RemoteStats reports distributed-costing activity: batched RPCs
// dispatched, queries costed remotely, and batches that fell back to
// local costing.
func (c *OptimizerChecker) RemoteStats() (batches, items, fallbacks int64) {
	return c.remoteBatches.Load(), c.remoteItems.Load(), c.remoteFallbacks.Load()
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

// checkScratch is pooled per-check state: the per-query cost vector,
// the relevance of the configuration's indexes, the affected set, one
// key buffer, and the missed queries with their keys and relevant
// definitions.
type checkScratch struct {
	costs    []float64
	rels     []optimizer.QuerySet
	affected optimizer.QuerySet
	key      []byte
	missQ    []int
	missKey  []string
	defs     []catalog.IndexDef
	ends     []int
}

var checkScratchPool = sync.Pool{New: func() any { return new(checkScratch) }}

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
