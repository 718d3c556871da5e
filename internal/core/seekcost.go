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
// plus index usage — the what-if + Showplan interfaces of [CN98]. Both
// costing calls take many queries under one configuration, which the
// server resolves once for all of them. optimizer.Optimizer satisfies
// it; calls may be concurrent.
type CostServer interface {
	PrepareWorkload(w *sql.Workload) (*optimizer.PreparedWorkload, error)
	CostPreparedSum(ctx context.Context, pw *optimizer.PreparedWorkload, members []int, weights []float64, cfg optimizer.Configuration) (sum float64, calls int, err error)
	OptimizePreparedEach(pw *optimizer.PreparedWorkload, cfg optimizer.Configuration, each func(qi int, plan *optimizer.Plan) error) error
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
// for an index seek (paper §3.3.1). It also carries syntactic leading-
// column frequencies for MergePair-Syntactic.
type SeekCosts struct {
	byIndex map[string]float64
}

// SeekCost returns Seek-Cost(W, I) for the index with the given key.
func (s *SeekCosts) SeekCost(defKey string) float64 {
	if s == nil {
		return 0
	}
	return s.byIndex[defKey]
}

// ComputeSeekCostsPrepared plans every workload query once under the
// initial configuration and attributes each query's cost to the
// indexes its plan seeks on. This mirrors gathering "the plan and cost
// of each query in W for the initial configuration" via Showplan.
func ComputeSeekCostsPrepared(server CostServer, pw *optimizer.PreparedWorkload, initial *Configuration) (*SeekCosts, error) {
	out := &SeekCosts{byIndex: make(map[string]float64)}
	err := server.OptimizePreparedEach(pw, optimizer.Configuration(initial.Defs()), func(qi int, p *optimizer.Plan) error {
		for _, use := range p.Uses {
			if use.Mode == optimizer.UsageSeek {
				out.byIndex[use.Index.Key()] += p.Cost * pw.W.Queries[qi].Freq
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
