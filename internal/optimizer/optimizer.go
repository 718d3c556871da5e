package optimizer

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"indexmerge/internal/faults"
	"indexmerge/internal/sql"
)

// Optimizer produces plans and cost estimates for queries against a
// configuration of (possibly hypothetical) indexes. A configuration is
// a set: every entry point plans it as it would the same indexes listed
// in key order (catalog.CompareKeys), so neither a plan nor its cost
// depends on the order the caller lists them in.
//
// It has two doors over prepared descriptors, each resolving the
// configuration once for all its queries: CostPreparedSum prices many
// queries, OptimizePreparedEach hands out what the planner chose for
// each (cost, index uses, and the plan tree on demand). Optimize,
// CostPrepared and WorkloadCostPrepared are thin forms of the same
// planning pass.
//
// Concurrency contract: every entry point is safe for concurrent use
// — planning state is per-call, metadata access is read-only, and the
// invocation counter is atomic. The caller must not mutate the
// underlying database (inserts, index creation, Analyze) or toggle
// DisableIndexIntersection while concurrent optimizations run; the
// parallel merge search relies on exactly this read-only contract.
type Optimizer struct {
	meta Meta

	// invocations counts planning calls — the quantity the paper's
	// §3.5.3 optimizations (workload compression, external-cost
	// pre-filtering) aim to reduce. Read it with InvocationCount.
	invocations atomic.Int64

	// DisableIndexIntersection turns off RID-intersection access paths;
	// used by the ablation that measures how optimizer sophistication
	// affects merge quality. Must not be toggled while Optimize calls
	// are in flight.
	DisableIndexIntersection bool

	// DisableIndexUnion turns off RID-union access paths for OR/IN
	// disjunctions — the ablation showing how IndexMerge awareness
	// changes which merged indexes the search recommends. Must not be
	// toggled while Optimize calls are in flight.
	DisableIndexUnion bool

	// DisableRelevantIndexFilter turns off the relevant-index prefilter
	// (every index of the configuration is costed); planning with it on
	// and off is the guard that the skip never changes a chosen plan.
	// Must not be toggled while Optimize calls are in flight.
	DisableRelevantIndexFilter bool
}

// New creates an optimizer over the given metadata provider.
func New(meta Meta) *Optimizer {
	return &Optimizer{meta: meta}
}

// InvocationCount returns the number of planning calls performed.
func (o *Optimizer) InvocationCount() int64 { return o.invocations.Load() }

// Optimize returns the cheapest plan found for the statement under the
// configuration. The statement must already be resolved. It prepares
// the statement and plans the descriptor once; callers costing one
// statement many times prepare it once and use the doors below.
func (o *Optimizer) Optimize(stmt *sql.SelectStmt, cfg Configuration) (*Plan, error) {
	pq, err := o.PrepareQuery(stmt)
	if err != nil {
		return nil, err
	}
	p := plannerPool.Get().(*planner)
	defer plannerPool.Put(p)
	if _, err := o.planOn(p, pq, cfg, false); err != nil {
		return nil, err
	}
	p.walkUses()
	return p.build(), nil
}

// CostPrepared returns the cost of pq's cheapest plan under cfg
// without building the plan; with the planner's pooled state warm it
// allocates nothing.
func (o *Optimizer) CostPrepared(pq *PreparedQuery, cfg Configuration) (float64, error) {
	p := plannerPool.Get().(*planner)
	defer plannerPool.Put(p)
	return o.planOn(p, pq, cfg, false)
}

// WorkloadCostPrepared computes Cost(W, C), the frequency-weighted sum
// of optimizer-estimated query costs (paper §3.1): CostPreparedSum over
// every query of pw at its frequency (PreparedWorkload.Whole).
func (o *Optimizer) WorkloadCostPrepared(pw *PreparedWorkload, cfg Configuration) (float64, error) {
	members, weights := pw.Whole()
	total, _, err := o.CostPreparedSum(context.Background(), pw, members, weights, cfg, nil)
	return total, err
}

// CostPreparedSum returns Σ weights[k] × CostPrepared(pw.Queries[members[k]],
// cfg), summed in member order — no members sum to 0 — and how many
// CostPrepared calls it made, a failing one included. cfg is resolved
// once for all of them, into pooled state: with it warm the loop
// allocates nothing. A caller holding cfg's indexes resolved already
// (PreparedWorkload.Resolve) passes them, aligned with cfg, as rxs, and
// nothing is resolved again but for a descriptor of another schema; nil
// rxs resolves cfg by name.
// ctx is checked before each member; once it is done the sum stops with
// ctx.Err().
func (o *Optimizer) CostPreparedSum(ctx context.Context, pw *PreparedWorkload, members []int, weights []float64, cfg Configuration, rxs []*ResolvedIndex) (sum float64, calls int, err error) {
	calls, err = o.each(ctx, cfg, rxs, len(members),
		func(k int) *PreparedQuery { return pw.Queries[members[k]] },
		func(k int, cost float64, _ *planner) error {
			sum += cost * weights[k]
			return nil
		})
	if err != nil {
		return 0, calls, err
	}
	return sum, calls, nil
}

// OptimizePreparedEach plans every query of pw under cfg, resolved once
// for all of them, and hands each what the planner chose — the cost, the
// indexes the plan uses as positions in cfg, and Plan to build its tree
// — to each, in workload order; it stops at the first error either
// returns. The Choice and its Uses are pooled scratch, valid during the
// callback only; no node is built unless the callback asks for the
// plan. ctx is checked before each query; once it is done the pass
// stops with ctx.Err().
func (o *Optimizer) OptimizePreparedEach(ctx context.Context, pw *PreparedWorkload, cfg Configuration, each func(qi int, c *Choice) error) error {
	_, err := o.each(ctx, cfg, nil, len(pw.Queries),
		func(k int) *PreparedQuery { return pw.Queries[k] },
		func(k int, cost float64, p *planner) error {
			p.walkUses()
			p.choice = Choice{Cost: cost, Uses: p.uses, p: p}
			return each(k, &p.choice)
		})
	return err
}

// each is the one loop that plans many queries under one configuration:
// it makes the calls of n descriptors — query(k) is the k-th — on one
// pooled planner, which resolves cfg once for all of them (or takes it
// resolved, as rxs), and hands each cost to done with the planner, which
// holds the call's winning choices until the next call. It checks ctx
// before each call, stops at the first error and returns how many calls
// it made.
func (o *Optimizer) each(ctx context.Context, cfg Configuration, rxs []*ResolvedIndex, n int,
	query func(k int) *PreparedQuery, done func(k int, cost float64, p *planner) error,
) (calls int, err error) {
	p := plannerPool.Get().(*planner)
	defer plannerPool.Put(p)
	p.res.use(cfg, rxs) // or resolved by the first call
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return calls, err
		}
		calls++
		cost, err := o.planOn(p, query(k), cfg, true)
		if err == nil {
			err = done(k, cost, p)
		}
		if err != nil {
			return calls, err
		}
	}
	return calls, nil
}

// planner is the state of one planning pass, pooled so that a
// steady-state cost probe allocates nothing: the call's inputs, the
// configuration as the planner compares it, the candidates of the table
// being enumerated, and the choices — cheapest path per table, cheapest
// join per table subset, the operators over them — from which the build
// step reads the winner's index uses and makes its nodes.
type planner struct {
	pq  *PreparedQuery
	cfg Configuration
	// noInter/noUnion/filter snapshot the optimizer knobs for this call.
	noInter, noUnion, filter bool

	// res is cfg as the planner compares it, resolved in full for the
	// calls of a loop or, lazily, by a one-off call for itself (see
	// begin). on lists, table by table of the query, the positions of the
	// indexes on it, table t's ending at onEnd[t].
	res   resolved
	on    []int32
	onEnd []int

	paths    []accessPath   // candidates of the table enumerated last
	arms     []intersectArm // its seeks, as intersection candidates
	consumed []int32        // backing store of seekMatch.consumed
	uArms    []int32        // union arm choices, reused across disjunctions
	ext      []scoredPred   // a table's predicates plus join probes
	base     []accessPath   // each table's cheapest path (one table: the winner)
	dp       []dpCell       // join planning: one cell per table subset
	fin      finished       // the operators over the winning input
	uses     []Use          // the winner's index uses (see walkUses)
	choice   Choice         // what OptimizePreparedEach hands its callback
}

var plannerPool = sync.Pool{New: func() any { return new(planner) }}

// planOn is the one entry sequence — count the invocation, give the
// fault injector its one shot, refuse a descriptor prepared before the
// statistics were rebuilt — and then the one planning pass over cfg,
// resolved for all the calls of a loop when pass is set (see begin):
// enumerate every candidate — access paths per table, join orders and
// algorithms per table subset, streaming or hashed aggregation, sort —
// on costs alone, keeping the cheapest, and leave the winning choices in
// p for walkUses and build. Enumerating complete single-table plans
// (rather than the cheapest access path only) lets an index that
// provides order win even when a bare scan is cheaper.
func (o *Optimizer) planOn(p *planner, pq *PreparedQuery, cfg Configuration, pass bool) (float64, error) {
	o.invocations.Add(1)
	err := faults.Inject(faults.OptimizerCost)
	if err == nil {
		err = pq.checkFresh()
	}
	if err != nil {
		return 0, err
	}

	p.noInter = o.DisableIndexIntersection
	p.noUnion = o.DisableIndexUnion
	p.filter = !o.DisableRelevantIndexFilter
	p.begin(pq, cfg, pass)

	if len(pq.tables) == 1 {
		paths := p.enumeratePaths(0)
		best, fin := 0, finished{cost: math.Inf(1)}
		for i := range paths {
			if f := pq.finish(&paths[i]); f.cost < fin.cost || f.cost == fin.cost && p.earlier(&paths[i], &paths[best]) {
				best, fin = i, f
			}
		}
		p.base, p.fin = append(p.base[:0], paths[best]), fin
		return fin.cost, nil
	}
	if err := p.joinOrder(); err != nil {
		return 0, err
	}
	// A join delivers no useful order: aggregation hashes, ORDER BY sorts.
	full := p.full()
	p.fin = pq.finish(&accessPath{cost: p.dp[full].cost, rows: p.outputRows(full)})
	return p.fin.cost, nil
}

// finished is an input with aggregation, sort and projection layered
// over it: which operators there are, and the cumulative cost after
// each. Aggregation sets the row count; sort and projection keep it.
type finished struct {
	agg, streaming, sort    bool
	aggCost, sortCost, cost float64
	rows                    float64
}

// finish applies the aggregation/sort/projection arithmetic to an
// input — a single table's access path, or a join as a path with no
// order.
func (pq *PreparedQuery) finish(in *accessPath) finished {
	stmt := pq.Stmt
	f := finished{cost: in.cost, rows: in.rows}
	sorted := orderSatisfied(stmt.OrderBy, in.ordered, in.nEq, pq.tables[0].name)
	if len(stmt.GroupBy) > 0 || pq.hasAggs {
		groups := 1.0
		if len(stmt.GroupBy) > 0 {
			groups = groupCard(pq.groupDistinct, f.rows)
		}
		f.agg = true
		f.streaming = pq.groupSameTable && groupSatisfied(pq.groupCols, in.ordered, in.nEq)
		if f.streaming {
			f.cost += streamAggCost(f.rows)
		} else {
			f.cost += hashAggCost(f.rows, groups)
			sorted = false // hash aggregation destroys input order
		}
		f.aggCost, f.rows = f.cost, groups
	}
	if len(stmt.OrderBy) > 0 && !sorted {
		f.sort = true
		f.cost += sortCost(f.rows)
		f.sortCost = f.cost
	}
	f.cost += f.rows * CPUOpCost
	return f
}

// groupCard estimates the number of groups from the prepared per-column
// distinct counts (0 marks a column on a table outside FROM, skipped):
// their product, capped by the input cardinality.
func groupCard(distinct []float64, inRows float64) float64 {
	groups := 1.0
	for _, d := range distinct {
		if d == 0 {
			continue
		}
		groups *= d
		if groups > inRows {
			break
		}
	}
	if groups > inRows {
		groups = inRows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}
