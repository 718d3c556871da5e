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
// configuration of (possibly hypothetical) indexes.
//
// Concurrency contract: Optimize and Cost are safe for concurrent use
// — planning state is per-call, metadata access is read-only, and the
// invocation counter is atomic. The caller must not mutate the
// underlying database (inserts, index creation, Analyze) or toggle
// DisableIndexIntersection while concurrent optimizations run; the
// parallel merge search relies on exactly this read-only contract.
type Optimizer struct {
	meta Meta

	// invocations counts Optimize calls — the quantity the paper's
	// §3.5.3 optimizations (workload compression, external-cost
	// pre-filtering) aim to reduce. Read it with InvocationCount.
	invocations atomic.Int64

	// preparedCalls counts the subset of invocations that were handed a
	// descriptor (OptimizePrepared, CostPrepared) instead of preparing
	// one per call. Read it with PreparedCallCount; the facade's bypass
	// guard asserts it tracks invocations once a workload is prepared.
	preparedCalls atomic.Int64

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

// InvocationCount returns the number of Optimize calls performed.
func (o *Optimizer) InvocationCount() int64 { return o.invocations.Load() }

// PreparedCallCount returns how many invocations were handed a
// prepared descriptor.
func (o *Optimizer) PreparedCallCount() int64 { return o.preparedCalls.Load() }

// Optimize returns the cheapest plan found for the statement under the
// configuration. The statement must already be resolved. It prepares
// the statement and plans the descriptor exactly as OptimizePrepared
// does; callers costing one statement many times prepare it once.
func (o *Optimizer) Optimize(stmt *sql.SelectStmt, cfg Configuration) (*Plan, error) {
	_, plan, err := o.plan(stmt, nil, cfg, true)
	return plan, err
}

// Cost is Optimize().Cost without building the plan.
func (o *Optimizer) Cost(stmt *sql.SelectStmt, cfg Configuration) (float64, error) {
	cost, _, err := o.plan(stmt, nil, cfg, false)
	return cost, err
}

// WorkloadCost computes Cost(W, C): the frequency-weighted sum of
// optimizer-estimated query costs (paper §3.1).
func (o *Optimizer) WorkloadCost(w *sql.Workload, cfg Configuration) (float64, error) {
	total := 0.0
	_, err := o.each(context.Background(), cfg, len(w.Queries), false,
		func(k int) (*sql.SelectStmt, *PreparedQuery) { return w.Queries[k].Stmt, nil },
		func(k int, cost float64, _ *Plan) error {
			total += cost * w.Queries[k].Freq
			return nil
		})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// OptimizePrepared is Optimize over a descriptor prepared earlier.
func (o *Optimizer) OptimizePrepared(pq *PreparedQuery, cfg Configuration) (*Plan, error) {
	_, plan, err := o.plan(nil, pq, cfg, true)
	return plan, err
}

// CostPrepared returns OptimizePrepared(pq, cfg).Cost without building
// the plan; with the planner's pooled state warm it allocates nothing.
func (o *Optimizer) CostPrepared(pq *PreparedQuery, cfg Configuration) (float64, error) {
	cost, _, err := o.plan(nil, pq, cfg, false)
	return cost, err
}

// WorkloadCostPrepared is WorkloadCost over a prepared workload.
func (o *Optimizer) WorkloadCostPrepared(pw *PreparedWorkload, cfg Configuration) (float64, error) {
	total, _, err := o.WorkloadCostPreparedContext(context.Background(), pw, cfg)
	return total, err
}

// WorkloadCostPreparedContext is WorkloadCostPrepared, checking ctx
// before each query: once it is done the sum stops with ctx.Err(). It
// also returns how many CostPrepared calls it made, a failing one
// included.
func (o *Optimizer) WorkloadCostPreparedContext(ctx context.Context, pw *PreparedWorkload, cfg Configuration) (total float64, calls int, err error) {
	calls, err = o.each(ctx, cfg, len(pw.Queries), false,
		func(k int) (*sql.SelectStmt, *PreparedQuery) { return nil, pw.Queries[k] },
		func(k int, cost float64, _ *Plan) error {
			total += cost * pw.W.Queries[k].Freq
			return nil
		})
	if err != nil {
		return 0, calls, err
	}
	return total, calls, nil
}

// CostPreparedSum returns Σ weights[k] × CostPrepared(pw.Queries[members[k]],
// cfg), summed in member order — no members sum to 0, nil weights are
// the members' frequencies in pw.W — and how many CostPrepared calls it
// made, a failing one included. cfg is resolved once for all of them,
// into pooled state: with it warm the loop allocates nothing. ctx is
// checked before each member; once it is done the sum stops with
// ctx.Err().
func (o *Optimizer) CostPreparedSum(ctx context.Context, pw *PreparedWorkload, members []int, weights []float64, cfg Configuration) (sum float64, calls int, err error) {
	calls, err = o.each(ctx, cfg, len(members), false,
		func(k int) (*sql.SelectStmt, *PreparedQuery) { return nil, pw.Queries[members[k]] },
		func(k int, cost float64, _ *Plan) error {
			if weights != nil {
				sum += cost * weights[k]
			} else {
				sum += cost * pw.W.Queries[members[k]].Freq
			}
			return nil
		})
	if err != nil {
		return 0, calls, err
	}
	return sum, calls, nil
}

// OptimizePreparedEach plans every query of pw under cfg, resolved once
// for all of them, and hands each plan to each, in workload order; it
// stops at the first error either returns.
func (o *Optimizer) OptimizePreparedEach(pw *PreparedWorkload, cfg Configuration, each func(qi int, plan *Plan) error) error {
	_, err := o.each(context.Background(), cfg, len(pw.Queries), true,
		func(k int) (*sql.SelectStmt, *PreparedQuery) { return nil, pw.Queries[k] },
		func(k int, _ float64, plan *Plan) error { return each(k, plan) })
	return err
}

// each is the one loop that plans many queries under one configuration:
// it makes the calls of n queries — query(k) names the k-th, by
// statement or by descriptor — on one pooled planner, which resolves cfg
// once for all of them, and hands each cost, and with build each plan,
// to done. It checks ctx before each call, stops at the first error and
// returns how many calls it made.
func (o *Optimizer) each(ctx context.Context, cfg Configuration, n int, build bool,
	query func(k int) (*sql.SelectStmt, *PreparedQuery), done func(k int, cost float64, plan *Plan) error,
) (calls int, err error) {
	p := plannerPool.Get().(*planner)
	defer plannerPool.Put(p)
	p.res.schema = nil // resolved by the first call
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return calls, err
		}
		stmt, pq := query(k)
		calls++
		cost, plan, err := o.planOn(p, stmt, pq, cfg, true, build)
		if err == nil {
			err = done(k, cost, plan)
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
// join per table subset — the build step turns into nodes.
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
	base     []accessPath   // join planning: each table's cheapest path
	dp       []dpCell       // join planning: one cell per table subset
}

var plannerPool = sync.Pool{New: func() any { return new(planner) }}

// plan is what every one-off planning call is: planOn, on a pooled
// planner, resolving cfg for itself.
func (o *Optimizer) plan(stmt *sql.SelectStmt, pq *PreparedQuery, cfg Configuration, build bool) (float64, *Plan, error) {
	p := plannerPool.Get().(*planner)
	defer plannerPool.Put(p)
	return o.planOn(p, stmt, pq, cfg, false, build)
}

// planOn is the one entry sequence — count the invocation, give the
// fault injector its one shot, take the caller's descriptor (refused if
// the statistics were rebuilt after it was prepared) or prepare one from
// the statement — and then the one planning pass over cfg, resolved for
// all the calls of a loop when pass is set (see begin): enumerate
// every candidate — access paths per table, join orders and algorithms
// per table subset, streaming or hashed aggregation, sort — on costs
// alone, keeping the cheapest, and only when build is set turn the
// winning choices into a plan tree. Enumerating complete single-table
// plans (rather than the cheapest access path only) lets an index that
// provides order win even when a bare scan is cheaper.
func (o *Optimizer) planOn(p *planner, stmt *sql.SelectStmt, pq *PreparedQuery, cfg Configuration, pass, build bool) (float64, *Plan, error) {
	o.invocations.Add(1)
	if pq != nil {
		o.preparedCalls.Add(1)
	}
	err := faults.Inject(faults.OptimizerCost)
	switch {
	case err != nil:
	case pq != nil:
		err = pq.checkFresh()
	default:
		pq, err = PrepareQuery(stmt, o.meta)
	}
	if err != nil {
		return 0, nil, err
	}

	p.noInter = o.DisableIndexIntersection
	p.noUnion = o.DisableIndexUnion
	p.filter = !o.DisableRelevantIndexFilter
	p.begin(pq, cfg, pass)

	if len(pq.tables) == 1 {
		paths := p.enumeratePaths(0)
		best, fin := 0, finished{cost: math.Inf(1)}
		for i := range paths {
			if f := pq.finish(&paths[i]); f.cost < fin.cost {
				best, fin = i, f
			}
		}
		if !build {
			return fin.cost, nil, nil
		}
		return fin.cost, newPlan(pq.finishNode(p.accessNode(0, &paths[best]), &fin)), nil
	}
	if err := p.joinOrder(); err != nil {
		return 0, nil, err
	}
	// A join delivers no useful order: aggregation hashes, ORDER BY sorts.
	full := len(p.dp) - 1
	fin := pq.finish(&accessPath{cost: p.dp[full].cost, rows: p.outputRows(full)})
	if !build {
		return fin.cost, nil, nil
	}
	return fin.cost, newPlan(pq.finishNode(p.joinNode(full), &fin)), nil
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
