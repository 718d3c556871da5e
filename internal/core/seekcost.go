package core

import (
	"fmt"

	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// CostServer is the slice of the database server's interface the
// merging tool needs (paper Figure 1): resolving a workload against the
// server's statistics once, then costing and planning its queries
// against (possibly hypothetical) configurations, reading back cost
// plus index usage — the what-if + Showplan interfaces of [CN98].
// optimizer.Optimizer satisfies it; calls may be concurrent.
type CostServer interface {
	PrepareWorkload(w *sql.Workload) (*optimizer.PreparedWorkload, error)
	CostPrepared(pq *optimizer.PreparedQuery, cfg optimizer.Configuration) (float64, error)
	OptimizePrepared(pq *optimizer.PreparedQuery, cfg optimizer.Configuration) (*optimizer.Plan, error)
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
	cfg := optimizer.Configuration(initial.Defs())
	out := &SeekCosts{byIndex: make(map[string]float64)}
	for qi, q := range pw.W.Queries {
		p, err := server.OptimizePrepared(pw.Queries[qi], cfg)
		if err != nil {
			return nil, err
		}
		for _, use := range p.Uses {
			if use.Mode == optimizer.UsageSeek {
				out.byIndex[use.Index.Key()] += p.Cost * q.Freq
			}
		}
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
