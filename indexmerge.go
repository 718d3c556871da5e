// Package indexmerge is a Go reproduction of "Index Merging"
// (Chaudhuri & Narasayya, ICDE 1999): given a set of indexes tuned for
// individual queries, derive a merged set with much lower storage and
// maintenance cost while bounding the workload cost increase.
//
// The package is a facade over the internal engine. A typical session:
//
//	db := indexmerge.NewDatabase()
//	... create tables, load rows, db.AnalyzeAll() ...
//	w, _ := indexmerge.ParseWorkload(file, db)
//	m, _ := indexmerge.NewMerger(db, w)
//	opts := indexmerge.MergeOptions{CostConstraint: 0.10}
//	defs, _ := m.InitialConfiguration(ctx, 0, 0, opts) // tune every query (§4.2.3)
//	res, _ := m.MergeDefsContext(ctx, defs, opts)
//	fmt.Println(res.Report())
//
// The heavy lifting lives in internal packages: internal/core holds
// the paper's algorithms (MergePair, Greedy/Exhaustive search, cost
// evaluation strategies); internal/optimizer is a cost-based query
// optimizer with what-if index support; internal/storage provides
// page-accounted heaps and B+-trees.
package indexmerge

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/distrib"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
	"indexmerge/internal/wscale"
)

// Re-exported core types. The aliases give examples and downstream
// users one import path for the public surface.
type (
	// Database is an in-memory database instance with heap tables,
	// B+-tree indexes, statistics and what-if support.
	Database = engine.Database
	// Table describes a relation.
	Table = catalog.Table
	// Column describes one attribute.
	Column = catalog.Column
	// IndexDef identifies an index: table + ordered key columns.
	IndexDef = catalog.IndexDef
	// Workload is a set of queries with frequencies.
	Workload = sql.Workload
	// SelectStmt is a parsed query.
	SelectStmt = sql.SelectStmt
	// Value is a typed scalar.
	Value = value.Value
	// Row is a tuple of values.
	Row = value.Row
	// Optimizer is the cost-based what-if optimizer.
	Optimizer = optimizer.Optimizer
	// Plan is an optimized physical plan with cost and index usage.
	Plan = optimizer.Plan
	// Configuration is a set of indexes under merging, with parent
	// tracking.
	Configuration = core.Configuration
	// SearchResult reports a merging run.
	SearchResult = core.SearchResult
	// Advisor tunes indexes for individual queries.
	Advisor = advisor.Advisor
	// SearchProgress is a point-in-time snapshot of a running search,
	// delivered to MergeOptions.Progress.
	SearchProgress = core.Progress
	// PreparedWorkload is a workload resolved once against the
	// database's statistics (per-query descriptors the optimizer's
	// prepared fast paths consume); see Merger.PreparedWorkload.
	PreparedWorkload = optimizer.PreparedWorkload
	// CostBreaker is the circuit breaker the resilient costing path
	// consults; see MergeOptions.Resilience.
	CostBreaker = core.Breaker
	// CompressedWorkload is a workload clustered into constant-abstracted
	// templates with its per-(template, atom) cost table — the
	// CompressedOptimizerCost model's working state. Build once per
	// (workload, statistics) pair and share across runs; see
	// Merger.CompressedWorkload and NewMergerOver.
	CompressedWorkload = wscale.Prepared
	// WorkerPool is a set of what-if worker endpoints for distributed
	// costing; see NewWorkerPool and (*WorkerPool).Bind.
	WorkerPool = distrib.Pool
	// WorkerBinding is a worker pool bound to one registered workload;
	// see MergeOptions.Workers.
	WorkerBinding = distrib.Binding
)

// NewWorkerPool builds a distributed-costing pool over what-if worker
// base URLs ("http://host:port", cmd/idxmergew processes serving the
// same database). Bind a workload with (*WorkerPool).Bind and pass
// the binding via MergeOptions.Workers.
func NewWorkerPool(urls []string) *WorkerPool {
	return distrib.NewPool(urls, distrib.Options{})
}

// Value constructors, re-exported.
var (
	NewInt    = value.NewInt
	NewFloat  = value.NewFloat
	NewString = value.NewString
	NewDate   = value.NewDate
	NewNull   = value.NewNull
)

// Column type kinds, re-exported for schema construction.
const (
	IntKind    = value.Int
	FloatKind  = value.Float
	StringKind = value.String
	DateKind   = value.Date
)

// NewDatabase creates an empty database.
func NewDatabase() *Database { return engine.NewDatabase() }

// NewTable builds a table descriptor.
func NewTable(name string, cols []Column) (*Table, error) { return catalog.NewTable(name, cols) }

// NewIndexDef validates and builds an index definition.
func NewIndexDef(db *Database, name, table string, columns []string) (IndexDef, error) {
	return catalog.NewIndexDef(db.Schema(), name, table, columns)
}

// NewOptimizer creates a cost-based optimizer over the database.
func NewOptimizer(db *Database) *Optimizer { return optimizer.New(db) }

// NewAdvisor creates a per-query index advisor.
func NewAdvisor(db *Database, opt *Optimizer) *Advisor { return advisor.New(db, opt) }

// ParseSelect parses one SELECT statement (unresolved).
func ParseSelect(text string) (*SelectStmt, error) { return sql.ParseSelect(text) }

// ParseWorkload reads a workload file (one query per line, optional
// "freq|" prefix, -- comments) and resolves it against the schema.
func ParseWorkload(r io.Reader, db *Database) (*Workload, error) {
	return sql.ParseWorkload(r, db.Schema())
}

// MergePairKind selects the pairwise merge procedure (§3.3).
type MergePairKind int

const (
	// MergePairCost uses cost and index-usage information (Figure 2) —
	// the paper's recommended procedure.
	MergePairCost MergePairKind = iota
	// MergePairSyntactic uses only parsed workload information (Figure 3).
	MergePairSyntactic
	// MergePairExhaustive tries all column permutations per pair —
	// exponential; a quality upper bound.
	MergePairExhaustive
)

// SearchKind selects the search strategy (§3.4).
type SearchKind int

const (
	// GreedySearch is the paper's Figure 4 algorithm.
	GreedySearch SearchKind = iota
	// ExhaustiveSearch enumerates all minimal merged configurations.
	ExhaustiveSearch
)

// CostModelKind selects the cost-evaluation strategy (§3.5).
type CostModelKind int

const (
	// OptimizerCost uses optimizer-estimated costs over what-if
	// configurations — the paper's recommended strategy.
	OptimizerCost CostModelKind = iota
	// NoCost uses the syntactic width thresholds f and p only.
	NoCost
	// PrefilteredOptimizerCost vetoes candidates with a cheap external
	// model before invoking the optimizer (§3.5.3).
	PrefilteredOptimizerCost
	// CompressedOptimizerCost uses optimizer-estimated costs over the
	// workload compressed into constant-abstracted templates (CoPhy-style
	// decomposition): candidates are priced per template from a
	// (template, atomic-configuration) cost table, with delta evaluation
	// against the search's current configuration and admissible
	// lower-bound pruning. Recommendations match OptimizerCost (exact
	// per-member costing, no representative approximation) while scaling
	// to workloads of tens of thousands of statements.
	CompressedOptimizerCost
)

// MergeOptions configures a merging run.
type MergeOptions struct {
	// CostConstraint is the tolerated fractional workload cost increase
	// (e.g. 0.10 for the paper's 10%). Used by OptimizerCost models.
	CostConstraint float64
	// MergePair selects the pairwise merge procedure.
	MergePair MergePairKind
	// Search selects the search strategy.
	Search SearchKind
	// CostModel selects the constraint evaluation strategy.
	CostModel CostModelKind
	// NoCostF / NoCostP are the No-Cost model thresholds (defaults:
	// the paper's best-performing f=0.60, p=0.25).
	NoCostF, NoCostP float64
	// Parallelism bounds concurrent candidate costing during the
	// search: candidate merges of one search step are constraint-
	// checked in a bounded worker pool, backed by a thread-safe
	// what-if cost cache. <= 1 (the default) runs fully serially.
	// Results are identical for any value — see core.GreedyOptions
	// and core.ExhaustiveOptions.
	Parallelism int
	// Progress, when non-nil, receives point-in-time search snapshots
	// (accepted steps, bytes saved so far, evaluations consumed). It is
	// called synchronously from the searching goroutine and must be
	// cheap.
	Progress func(SearchProgress)
	// Workers, when non-nil, offloads cache-missed what-if costings to
	// a bound pool of stateless worker processes (cmd/idxmergew),
	// batched per search wave. Results are byte-identical at any worker
	// count — remote costs install through the exact same cache and
	// counter paths as local evaluation — and any worker failure falls
	// back to local costing, so a run never fails because of the pool.
	// Build with NewWorkerPool and bind the workload with
	// (*WorkerPool).Bind.
	Workers *WorkerBinding
	// Resilience, when non-nil, hardens optimizer-backed costing:
	// transient failures are retried with backoff, permanent failures
	// trip a circuit breaker and degrade decisions to the external
	// analytic model (§3.5.2) instead of failing the search — the
	// result then carries Degraded. Ignored by the No-Cost model
	// (which never consults a cost function).
	Resilience *ResilienceOptions
}

// ResilienceOptions configures the fault-tolerant costing path; the
// zero value selects the defaults documented on core.ResilientChecker
// (2 retries, 2ms initial backoff, no per-attempt deadline).
type ResilienceOptions struct {
	// MaxRetries bounds transient retries per constraint check
	// (default 2; negative disables retries).
	MaxRetries int
	// Backoff is the first retry's delay, doubling per retry
	// (default 2ms).
	Backoff time.Duration
	// AttemptTimeout, when positive, deadlines each costing attempt;
	// overruns are retried like transient faults.
	AttemptTimeout time.Duration
	// Breaker, when non-nil, shares a circuit breaker across runs (the
	// advisor service keeps one per session). When nil each run gets a
	// private breaker.
	Breaker *CostBreaker
	// NoDegraded disables the external-model fallback: exhausted
	// retries then fail the search with a typed error instead of
	// degrading.
	NoDegraded bool
}

// Merger runs index merging for one database + workload, and owns the
// workload's prepared state: the descriptors and the compressed form
// every run on it shares.
type Merger struct {
	db  *Database
	w   *Workload
	opt *Optimizer

	// supplied marks a Merger built over a form someone else compressed
	// (NewMergerOver): it cannot be rebuilt from the workload, so a
	// statistics rebuild is ErrStaleForm instead of a re-prepare.
	supplied bool

	// mu guards the forms and the statistics version they were built at.
	mu         sync.Mutex
	prepared   *PreparedWorkload
	compressed *CompressedWorkload
	ver        uint64
}

// ErrStaleForm is returned by every entry point of a Merger built with
// NewMergerOver once the database's statistics were rebuilt after its
// construction: the form's selectivities and memoized costs are then
// superseded, and only its builder can make another.
var ErrStaleForm = errors.New("indexmerge: supplied workload form is stale: statistics were rebuilt after it was built")

// NewMerger builds a merger. The database should have statistics
// (AnalyzeAll) so the optimizer can cost hypothetical indexes.
func NewMerger(db *Database, w *Workload) (*Merger, error) {
	if w == nil || w.Len() == 0 {
		return nil, fmt.Errorf("indexmerge: empty workload")
	}
	return &Merger{db: db, w: w, opt: optimizer.New(db), ver: db.StatsVersion()}, nil
}

// NewMergerOver builds a merger over a form already compressed against
// the database's current statistics — a service's registration, a
// window snapshot with its persistent cost table: the workload is
// cw.C.W, and PreparedWorkload and CompressedWorkload hand back cw.PW
// and cw themselves. Both cost models price through cw's engines, so
// every run reuses the cells earlier runs filled. A form whose pieces
// belong to different workloads is refused.
func NewMergerOver(db *Database, cw *CompressedWorkload) (*Merger, error) {
	if cw == nil || cw.C == nil || cw.PW == nil {
		return nil, fmt.Errorf("indexmerge: incomplete compressed workload")
	}
	m, err := NewMerger(db, cw.C.W)
	if err != nil {
		return nil, err
	}
	if cw.PW.W != m.w || len(cw.PW.Queries) != m.w.Len() {
		return nil, fmt.Errorf("indexmerge: compressed workload's prepared descriptors belong to another workload")
	}
	m.supplied, m.prepared, m.compressed = true, cw.PW, cw
	return m, nil
}

// Optimizer exposes the merger's optimizer (for cost inspection).
func (m *Merger) Optimizer() *Optimizer { return m.opt }

// PreparedWorkload returns the merger's workload prepared against the
// database's current statistics, preparing on first use and
// re-preparing automatically after the statistics are rebuilt.
func (m *Merger) PreparedWorkload() (*PreparedWorkload, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.preparedLocked()
}

func (m *Merger) preparedLocked() (*PreparedWorkload, error) {
	if ver := m.db.StatsVersion(); ver != m.ver {
		if m.supplied {
			return nil, fmt.Errorf("%w (built at version %d, database at %d)", ErrStaleForm, m.ver, ver)
		}
		// Analyze bumped the version: the prepared selectivities and the
		// cost table's memoized costs are superseded, so both forms are
		// built again on next use.
		m.prepared, m.compressed, m.ver = nil, nil, ver
	}
	if m.prepared == nil {
		pw, err := m.opt.PrepareWorkload(m.w)
		if err != nil {
			return nil, err
		}
		m.prepared = pw
	}
	return m.prepared, nil
}

// CompressedWorkload returns the merger's workload compressed into
// templates and paired with an empty-on-first-use cost table, built
// lazily and rebuilt after the database's statistics change (the cost
// table memoizes stats-dependent costs, so it cannot outlive them).
func (m *Merger) CompressedWorkload() (*CompressedWorkload, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pw, err := m.preparedLocked()
	if err != nil {
		return nil, err
	}
	if m.compressed == nil {
		cp, err := wscale.Prepare(wscale.Compress(m.w), pw, m.opt, 0)
		if err != nil {
			return nil, err
		}
		m.compressed = cp
	}
	return m.compressed, nil
}

// MergeResult is a merging run's outcome plus context for reporting.
type MergeResult struct {
	*core.SearchResult
	// InitialCost and FinalCost are Cost(W, C) before and after.
	InitialCost float64
	FinalCost   float64
	// Bound is the cost upper bound U (0 for the No-Cost model).
	Bound float64
	// Degraded reports that at least one constraint decision (or the
	// final cost estimate) was served by the external analytic model
	// because the optimizer-backed path kept failing: the result is
	// best-effort and carries no optimizer cost guarantee. Always
	// false without MergeOptions.Resilience.
	Degraded bool
	// Retries counts transient costing failures the resilient path
	// absorbed (0 without Resilience).
	Retries int64
	// DegradedChecks counts constraint decisions served by the
	// external model (0 without Resilience).
	DegradedChecks int64
	// PanicsRecovered counts costing panics converted to typed errors
	// (0 without Resilience).
	PanicsRecovered int64
	// Templates and DedupRatio describe the workload compression a
	// CompressedOptimizerCost run searched over (0 for other models).
	Templates  int
	DedupRatio float64
	// CostTableHits / CostTableMisses count (template, atom) cost-table
	// lookups during this run; a high hit rate is where the compressed
	// model's speed comes from (0 for other models).
	CostTableHits   int64
	CostTableMisses int64
	// PrunedChecks counts candidates the compressed model rejected via
	// its admissible lower bound, without exact costing (0 for other
	// models).
	PrunedChecks int64
	// RemoteBatches / RemoteItems count costing batches and items
	// (per-query costs or template atoms) served by the worker pool;
	// RemoteFallbacks counts batches that failed remotely and were
	// transparently re-costed locally. All 0 without
	// MergeOptions.Workers. These describe where work ran, not what it
	// produced — every other field is identical at any worker count.
	RemoteBatches   int64
	RemoteItems     int64
	RemoteFallbacks int64
}

// CostIncrease is the fractional workload cost growth.
func (r *MergeResult) CostIncrease() float64 {
	if r.InitialCost == 0 {
		return 0
	}
	return r.FinalCost/r.InitialCost - 1
}

// Report renders a human-readable summary.
func (r *MergeResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "indexes:  %d -> %d\n", r.Initial.Len(), r.Final.Len())
	fmt.Fprintf(&b, "storage:  %d -> %d bytes (%.1f%% saved)\n", r.InitialBytes, r.FinalBytes, 100*r.StorageReduction())
	fmt.Fprintf(&b, "cost:     %.2f -> %.2f (%+.1f%%, bound %.2f)\n", r.InitialCost, r.FinalCost, 100*r.CostIncrease(), r.Bound)
	if r.Templates > 0 {
		fmt.Fprintf(&b, "compress: %d templates (%.1fx dedup), cost table %d hits / %d misses, %d pruned\n",
			r.Templates, r.DedupRatio, r.CostTableHits, r.CostTableMisses, r.PrunedChecks)
	}
	if r.RemoteBatches > 0 || r.RemoteFallbacks > 0 {
		fmt.Fprintf(&b, "distrib:  %d remote batches (%d items), %d local fallbacks\n",
			r.RemoteBatches, r.RemoteItems, r.RemoteFallbacks)
	}
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  merged %s + %s -> %s\n", s.ParentA, s.ParentB, s.Result)
	}
	for _, ix := range r.Final.Indexes {
		fmt.Fprintf(&b, "  final: %s\n", ix)
	}
	return b.String()
}

// MergeDefsContext runs Storage-Minimal Index Merging over the given
// initial index definitions. A long search stops promptly when ctx is
// canceled and returns ctx.Err().
func (m *Merger) MergeDefsContext(ctx context.Context, initialDefs []IndexDef, opts MergeOptions) (*MergeResult, error) {
	if err := m.checkDefs(initialDefs); err != nil {
		return nil, err
	}
	initial := core.NewConfiguration(initialDefs)
	return m.merge(ctx, initial, opts)
}

// MergeContext runs merging using the database's materialized indexes
// as the initial configuration, under ctx like MergeDefsContext.
func (m *Merger) MergeContext(ctx context.Context, opts MergeOptions) (*MergeResult, error) {
	var defs []IndexDef
	for _, ix := range m.db.Indexes() {
		defs = append(defs, ix.Def())
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("indexmerge: no indexes to merge; create indexes or use MergeDefsContext")
	}
	return m.MergeDefsContext(ctx, defs, opts)
}

func (m *Merger) merge(ctx context.Context, initial *core.Configuration, opts MergeOptions) (*MergeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.CostConstraint <= 0 {
		opts.CostConstraint = 0.10
	}
	if opts.NoCostF <= 0 {
		opts.NoCostF = 0.60
	}
	if opts.NoCostP <= 0 {
		opts.NoCostP = 0.25
	}
	pw, err := m.PreparedWorkload()
	if err != nil {
		return nil, err
	}
	// Costing around the search (the baseline, Seek-Costs, the final
	// cost) rides the retry loop, budget and counters of the constraint
	// checks: the resilient checker exists before its inner chain does.
	// Without Resilience a costing is a plain call — panics and errors
	// propagate untouched.
	var resilient *core.ResilientChecker
	if opts.Resilience != nil {
		resilient = opts.Resilience.checker(opts.CostConstraint)
	}
	costing := func(fn func(ctx context.Context) error) error {
		if resilient == nil {
			return fn(ctx)
		}
		return resilient.Retry(ctx, fn)
	}
	workloadCost := func(cfg *core.Configuration) (cost float64, err error) {
		err = costing(func(context.Context) (err error) {
			cost, err = m.opt.WorkloadCostPrepared(pw, optimizer.Configuration(cfg.Defs()))
			return err
		})
		return cost, err
	}
	// The baseline cannot degrade: the external fallback is calibrated
	// against it, so a persistent failure here is the typed error.
	baseCost, err := workloadCost(initial)
	if err != nil {
		return nil, err
	}

	// MergePair procedure.
	var mp core.MergePair
	switch opts.MergePair {
	case MergePairSyntactic:
		mp = &core.MergePairSyntactic{Freq: core.LeadingColumnFrequencies(m.w)}
	case MergePairExhaustive:
		mp = &core.MergePairExhaustive{Server: m.opt, W: m.w, Base: initial, Prepared: pw}
	default:
		var seek *core.SeekCosts
		err := costing(func(context.Context) (err error) {
			seek, err = core.ComputeSeekCostsPrepared(m.opt, pw, initial)
			return err
		})
		if err != nil {
			return nil, err
		}
		mp = &core.MergePairCost{Seek: seek}
	}

	check, bound, report, err := m.checkerChain(&opts, initial, pw, baseCost, resilient, costing)
	if err != nil {
		return nil, err
	}

	// Search strategy.
	var res *core.SearchResult
	if opts.Search == ExhaustiveSearch {
		res, err = core.ExhaustiveContext(ctx, initial, mp, check, m.db, core.ExhaustiveOptions{Parallelism: opts.Parallelism, Progress: opts.Progress})
	} else {
		res, err = core.GreedyContext(ctx, initial, mp, check, m.db, core.GreedyOptions{Parallelism: opts.Parallelism, Progress: opts.Progress})
	}
	if err != nil {
		return nil, err
	}

	out := &MergeResult{SearchResult: res, InitialCost: baseCost, Bound: bound}
	report(out)
	// Without resilience the final cost is a plain workload costing.
	// With it, if the optimizer stays unavailable past the retry budget
	// (and degraded mode is allowed), the final cost is estimated by
	// scaling the optimizer baseline with the external model's relative
	// change — baseCost × ext(final)/ext(initial) — and the result is
	// flagged Degraded.
	out.FinalCost, err = workloadCost(res.Final)
	if resilient != nil {
		out.Degraded = resilient.Degraded()
		out.Retries = resilient.Retries()
		out.DegradedChecks = resilient.DegradedChecks()
		out.PanicsRecovered = resilient.PanicsRecovered()
		if ext := resilient.External; err != nil && ext != nil && ext.BaselineCost() > 0 {
			out.Degraded = true
			out.DegradedChecks++
			out.FinalCost = baseCost * ext.WorkloadCost(res.Final) / ext.BaselineCost()
			err = nil
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkerChain builds the run's constraint checker from the options,
// each link once: the optimizer-backed checker over the cost model's
// units, the §3.5.3 external prefilter in front of it, the resilient
// wrapper around both. The external model, calibrated against the
// initial configuration, serves the prefilter and the resilient
// wrapper's degraded decisions alike. It returns the chain as the search
// sees it, the bound U (0 for the No-Cost model) and a function that,
// after the search, fills the result's counters of the model that ran.
func (m *Merger) checkerChain(opts *MergeOptions, initial *core.Configuration, pw *PreparedWorkload, baseCost float64,
	resilient *core.ResilientChecker, costing func(func(context.Context) error) error,
) (check core.ConstraintChecker, bound float64, report func(*MergeResult), err error) {
	var opt *core.OptimizerChecker
	var compressed *CompressedWorkload
	switch opts.CostModel {
	case NoCost:
		return &core.NoCostChecker{F: opts.NoCostF, P: opts.NoCostP, Tables: m.db}, 0, func(*MergeResult) {}, nil
	case CompressedOptimizerCost:
		if compressed, err = m.CompressedWorkload(); err != nil {
			return nil, 0, nil, err
		}
		opt = wscale.NewChecker(compressed, 0, opts.CostConstraint)
	default:
		if opt, err = m.queryChecker(pw, baseCost, opts.CostConstraint); err != nil {
			return nil, 0, nil, err
		}
	}
	opt.Parallelism = opts.Parallelism
	// Interface-typed so a nil binding stays a nil interface.
	if opts.Workers != nil {
		opt.Batch = opts.Workers
	}
	// The engine, with its store and remote counters, can outlive the run
	// (the Merger's compressed form, a supplied form's per-query engine):
	// a run reports deltas.
	batches0, items0, fallbacks0 := opt.RemoteStats()
	var hits0, misses0 int64
	if compressed != nil {
		// The constraint bound derives from the decomposed baseline (the
		// template-order total), keeping the checker's delta totals and U
		// on the same summation; it differs from baseCost only in the
		// last ulp.
		var compBase float64
		err = costing(func(actx context.Context) (err error) {
			compBase, err = opt.WorkloadCostContext(actx, initial)
			return err
		})
		if err != nil {
			return nil, 0, nil, err
		}
		opt.U = compBase * (1 + opts.CostConstraint)
		hits0, misses0, _ = opt.CacheStats()
	}
	check, bound = opt, opt.U
	report = func(out *MergeResult) {
		if compressed != nil {
			out.Templates = len(compressed.C.Templates)
			out.DedupRatio = compressed.C.DedupRatio()
			hits, misses, _ := opt.CacheStats()
			out.CostTableHits, out.CostTableMisses = hits-hits0, misses-misses0
			out.PrunedChecks = opt.PrunedChecks()
		}
		batches, items, fallbacks := opt.RemoteStats()
		out.RemoteBatches, out.RemoteItems, out.RemoteFallbacks = batches-batches0, items-items0, fallbacks-fallbacks0
	}
	if opts.CostModel != PrefilteredOptimizerCost && resilient == nil {
		return check, bound, report, nil
	}
	ext := &core.ExternalCostModel{Meta: m.db, W: m.w}
	ext.SetBaseline(initial)
	if opts.CostModel == PrefilteredOptimizerCost {
		check = &core.PrefilteredChecker{External: ext, Inner: opt, SlackPct: opts.CostConstraint}
	}
	if resilient != nil {
		resilient.Inner = check
		if !opts.Resilience.NoDegraded {
			resilient.External = ext
		}
		check = resilient
	}
	return check, bound, report, nil
}

// queryChecker returns a checker over the workload's per-query units
// with U = baseCost × (1 + slackPct). A Merger over a supplied form
// prices through the form's per-query engine, whose cells outlive the run
// as the form does; any other starts every run on an empty store of its
// own.
func (m *Merger) queryChecker(pw *PreparedWorkload, baseCost, slackPct float64) (*core.OptimizerChecker, error) {
	if !m.supplied {
		c := core.NewOptimizerChecker(m.opt, m.w, baseCost, slackPct)
		c.Prepared = pw
		return c, nil
	}
	cw, err := m.CompressedWorkload()
	if err != nil {
		return nil, err
	}
	return cw.QueryPricer().NewChecker(baseCost, slackPct), nil
}

// checker builds the run's resilient checker from the options: the
// retry policy and the breaker. The facade costs through its Retry
// before the search and hands it the inner chain and the degraded-mode
// model once they exist.
func (ro *ResilienceOptions) checker(slackPct float64) *core.ResilientChecker {
	rc := &core.ResilientChecker{
		SlackPct:       slackPct,
		MaxRetries:     ro.MaxRetries,
		Backoff:        ro.Backoff,
		AttemptTimeout: ro.AttemptTimeout,
		Breaker:        ro.Breaker,
	}
	if rc.Breaker == nil {
		rc.Breaker = &core.Breaker{}
	}
	return rc
}

// DualResult reports a Cost-Minimal (dual) merging run.
type DualResult struct {
	*core.CostMinimalResult
}

// Report renders a human-readable summary.
func (r *DualResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "indexes:  %d -> %d\n", r.Initial.Len(), r.Final.Len())
	fmt.Fprintf(&b, "storage:  %d -> %d bytes (%.1f%% saved, budget met: %v)\n",
		r.InitialBytes, r.FinalBytes, 100*r.StorageReduction(), r.MetBudget)
	fmt.Fprintf(&b, "cost:     %.2f -> %.2f (%+.1f%%)\n", r.InitialCost, r.FinalCost,
		100*(r.FinalCost/r.InitialCost-1))
	for _, ix := range r.Final.Indexes {
		fmt.Fprintf(&b, "  final: %s\n", ix)
	}
	return b.String()
}

// MergeDualContext solves the paper's dual formulation (Cost-Minimal
// Index Merging, §3.1): minimize workload cost subject to a storage
// budget in bytes. The paper states the dual but leaves it unexplored;
// this is an extension. Cancellation stops the search promptly and
// returns ctx.Err().
func (m *Merger) MergeDualContext(ctx context.Context, initialDefs []IndexDef, storageBudget int64) (*DualResult, error) {
	if err := m.checkDefs(initialDefs); err != nil {
		return nil, err
	}
	initial := core.NewConfiguration(initialDefs)
	pw, err := m.PreparedWorkload()
	if err != nil {
		return nil, err
	}
	baseCost, err := m.opt.WorkloadCostPrepared(pw, optimizer.Configuration(initialDefs))
	if err != nil {
		return nil, err
	}
	seek, err := core.ComputeSeekCostsPrepared(m.opt, pw, initial)
	if err != nil {
		return nil, err
	}
	coster, err := m.queryChecker(pw, baseCost, 0)
	if err != nil {
		return nil, err
	}
	res, err := core.CostMinimalContext(ctx, initial, &core.MergePairCost{Seek: seek}, coster, m.db, storageBudget)
	if err != nil {
		return nil, err
	}
	return &DualResult{CostMinimalResult: res}, nil
}

// ErrNoInitialIndexes is InitialConfiguration's answer when tuning
// recommends no index at all.
var ErrNoInitialIndexes = errors.New("no initial indexes recommended; nothing to merge")

// CheckInitialN is InitialConfiguration's check of n, exported so a
// front end can refuse a request before it builds anything.
func CheckInitialN(n int) error {
	if n < 0 {
		return fmt.Errorf("initial configuration size %d out of range (want n > 0, or 0 to tune the whole workload)", n)
	}
	return nil
}

// InitialConfiguration chooses the configuration merging starts from,
// by tuning queries one at a time (§4.2.3). n > 0 draws random queries
// (seeded by seed) until n distinct indexes accumulate, costing each
// query's candidates opts.Parallelism at a time. n == 0 tunes the whole
// workload and unions the recommendations — the baseline whose storage
// blow-up merging fixes: query by query, or, under
// CompressedOptimizerCost, one representative per template of the
// merger's compressed form (candidate shapes depend only on what a
// template's members share). An empty recommendation is
// ErrNoInitialIndexes. Cancellation surfaces as ctx.Err().
func (m *Merger) InitialConfiguration(ctx context.Context, n int, seed int64, opts MergeOptions) ([]IndexDef, error) {
	if err := CheckInitialN(n); err != nil {
		return nil, err
	}
	// The staleness gate every entry point passes; the merge that follows
	// needs the descriptors anyway.
	if _, err := m.PreparedWorkload(); err != nil {
		return nil, err
	}
	adv := advisor.New(m.db, m.opt)
	var defs []IndexDef
	var err error
	switch {
	case n > 0:
		adv.Parallelism = opts.Parallelism
		defs, err = advisor.BuildInitialConfigurationContext(ctx, adv, m.w, n, seed)
	case opts.CostModel == CompressedOptimizerCost:
		var cw *CompressedWorkload
		if cw, err = m.CompressedWorkload(); err == nil {
			defs, err = adv.TuneTemplatesContext(ctx, m.w, cw.C.Representatives())
		}
	default:
		defs, err = adv.TuneWorkloadContext(ctx, m.w)
	}
	if err != nil {
		return nil, err
	}
	if len(defs) == 0 {
		return nil, ErrNoInitialIndexes
	}
	return defs, nil
}

// WorkloadCost returns Cost(W, C) for an arbitrary configuration,
// through the prepared fast path (totals are bit-identical to the
// unprepared computation).
func (m *Merger) WorkloadCost(defs []IndexDef) (float64, error) {
	if err := m.checkDefs(defs); err != nil {
		return 0, err
	}
	pw, err := m.PreparedWorkload()
	if err != nil {
		return 0, err
	}
	return m.opt.WorkloadCostPrepared(pw, optimizer.Configuration(defs))
}

// checkDefs refuses a definition the database's schema does not have —
// an unknown table or column, or none or a repeated one — which the
// optimizer would otherwise price as if the column, or the whole index,
// were not there.
func (m *Merger) checkDefs(defs []IndexDef) error {
	sc := m.db.Schema()
	for _, d := range defs {
		if err := sc.CheckIndex(d); err != nil {
			return fmt.Errorf("indexmerge: %w", err)
		}
	}
	return nil
}
