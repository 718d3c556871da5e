package core

import (
	"context"
	"fmt"

	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// CostServer is the slice of the database server's interface the
// merging tool needs (paper Figure 1): resolving a workload against the
// server's statistics once, then costing and planning its queries
// against (possibly hypothetical) configurations, reading back cost
// plus index usage — the what-if + Showplan interfaces of [CN98]. They
// are the optimizer's two doors: both take many prepared queries under
// one configuration, which the server resolves once for all of them —
// or, for a pricer that met each index before, not at all
// (CostPreparedSum's resolved indexes). The Showplan door hands out each
// query's cost and the configuration positions its plan seeks or scans
// on, and builds the plan tree only when asked (optimizer.Choice).
// optimizer.Optimizer satisfies it; calls may be concurrent.
type CostServer interface {
	PrepareWorkload(w *sql.Workload) (*optimizer.PreparedWorkload, error)
	CostPreparedSum(ctx context.Context, pw *optimizer.PreparedWorkload, members []int, weights []float64, cfg optimizer.Configuration, rxs []*optimizer.ResolvedIndex) (sum float64, calls int, err error)
	OptimizePreparedEach(ctx context.Context, pw *optimizer.PreparedWorkload, cfg optimizer.Configuration, each func(qi int, c *optimizer.Choice) error) error
}

// preparedFor resolves the prepared form of w a costing component works
// over: the caller's, else w prepared through the server. A supplied
// one of another length was prepared from some other workload and would
// price the wrong queries, so it is refused.
func preparedFor(server CostServer, w *sql.Workload, pw *optimizer.PreparedWorkload) (*optimizer.PreparedWorkload, error) {
	if pw == nil {
		return server.PrepareWorkload(w)
	}
	if len(pw.Queries) != len(w.Queries) {
		return nil, fmt.Errorf("core: prepared workload has %d queries, the workload %d", len(pw.Queries), len(w.Queries))
	}
	return pw, nil
}

// SeekCosts holds Seek-Cost(W, I) for every index I in the initial
// configuration: the total cost of workload queries whose plan used I
// for an index seek (paper §3.3.1). The same plans also give
// Cost(W, C₀), the initial configuration's workload cost. Both are read
// from the planner's choices; no plan tree is built.
type SeekCosts struct {
	byIndex map[string]float64
	initial float64
}

// SeekCost returns Seek-Cost(W, I) for the index with the given key.
func (s *SeekCosts) SeekCost(defKey string) float64 {
	if s == nil {
		return 0
	}
	return s.byIndex[defKey]
}

// InitialCost returns Cost(W, C₀): Σ plan cost × frequency over the
// plans the Seek-Costs were attributed from, summed in workload order —
// bit for bit the optimizer's WorkloadCostPrepared of the initial
// configuration.
func (s *SeekCosts) InitialCost() float64 { return s.initial }

// ComputeSeekCostsPrepared is ComputeSeekCostsPreparedContext under a
// context that is never done.
func ComputeSeekCostsPrepared(server CostServer, pw *optimizer.PreparedWorkload, initial *Configuration) (*SeekCosts, error) {
	return ComputeSeekCostsPreparedContext(context.Background(), server, pw, initial)
}

// ComputeSeekCostsPreparedContext plans every workload query once under
// the initial configuration, attributes each query's cost to the
// indexes its plan seeks on, and sums the costs into Cost(W, C₀). This
// mirrors gathering "the plan and cost of each query in W for the
// initial configuration" via Showplan. Each query's seek uses arrive
// as positions in the initial configuration, keyed by its indexes'
// memoized keys, so the pass builds neither a plan tree nor a key. ctx
// is checked before each query; once it is done the pass stops with
// ctx.Err().
func ComputeSeekCostsPreparedContext(ctx context.Context, server CostServer, pw *optimizer.PreparedWorkload, initial *Configuration) (*SeekCosts, error) {
	out := &SeekCosts{byIndex: make(map[string]float64, initial.Len())}
	err := server.OptimizePreparedEach(ctx, pw, optimizer.Configuration(initial.Defs()), func(qi int, c *optimizer.Choice) error {
		cost := c.Cost * pw.W.Queries[qi].Freq
		out.initial += cost
		for _, u := range c.Uses {
			if u.Mode == optimizer.UsageSeek {
				out.byIndex[initial.Indexes[u.Pos].Key()] += cost
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LeadingColumnFrequencies counts, per (table, column), weighted
// appearances in (a) selection/join conditions, (b) ORDER BY,
// (c) GROUP BY, and (d) the SELECT clause — the signal
// MergePair-Syntactic ranks leading prefixes by (paper Figure 3).
func LeadingColumnFrequencies(w *sql.Workload) map[string]float64 {
	freq := make(map[string]float64)
	key := func(c sql.ColumnRef) string { return c.Table + "." + c.Column }
	for _, q := range w.Queries {
		f := q.Freq
		for _, p := range q.Stmt.Where {
			freq[key(p.Col)] += f
		}
		for _, j := range q.Stmt.Joins {
			freq[key(j.Left)] += f
			freq[key(j.Right)] += f
		}
		for _, o := range q.Stmt.OrderBy {
			freq[key(o.Col)] += f
		}
		for _, g := range q.Stmt.GroupBy {
			freq[key(g)] += f
		}
		for _, it := range q.Stmt.Select {
			if it.Agg != sql.AggCountStar {
				freq[key(it.Col)] += f
			}
		}
	}
	return freq
}
