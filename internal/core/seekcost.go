package core

import (
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// CostServer is the slice of the database server's interface the
// merging tool needs: optimizing a query against a (possibly
// hypothetical) configuration and reading back cost plus index usage.
// It corresponds to the Showplan + what-if interfaces of [CN98];
// optimizer.Optimizer satisfies it.
type CostServer interface {
	Optimize(stmt *sql.SelectStmt, cfg optimizer.Configuration) (*optimizer.Plan, error)
}

// PreparedCostServer is the optional prepared-planning extension of
// CostServer: costing and planning over precomputed query descriptors,
// with results bit-identical to the Optimize path.
// optimizer.Optimizer satisfies it.
type PreparedCostServer interface {
	CostPrepared(pq *optimizer.PreparedQuery, cfg optimizer.Configuration) (float64, error)
	OptimizePrepared(pq *optimizer.PreparedQuery, cfg optimizer.Configuration) (*optimizer.Plan, error)
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

// ComputeSeekCosts optimizes every workload query once under the
// initial configuration and attributes each query's cost to the
// indexes its plan seeks on. This mirrors gathering "the plan and cost
// of each query in W for the initial configuration" via Showplan.
func ComputeSeekCosts(server CostServer, w *sql.Workload, initial *Configuration) (*SeekCosts, error) {
	cfg := optimizer.Configuration(initial.Defs())
	return seekCosts(w, func(qi int) (*optimizer.Plan, error) {
		return server.Optimize(w.Queries[qi].Stmt, cfg)
	})
}

// ComputeSeekCostsPrepared is ComputeSeekCosts over a prepared
// workload: a server that plans descriptors is handed each query's
// (no AST re-walk, identical plans); any other optimizes the
// statements.
func ComputeSeekCostsPrepared(server CostServer, pw *optimizer.PreparedWorkload, initial *Configuration) (*SeekCosts, error) {
	ps, ok := server.(PreparedCostServer)
	if !ok {
		return ComputeSeekCosts(server, pw.W, initial)
	}
	cfg := optimizer.Configuration(initial.Defs())
	return seekCosts(pw.W, func(qi int) (*optimizer.Plan, error) {
		return ps.OptimizePrepared(pw.Queries[qi], cfg)
	})
}

// seekCosts is the one Seek-Cost loop: plan(qi) is query qi's plan
// under the initial configuration, however the server produces it.
func seekCosts(w *sql.Workload, plan func(qi int) (*optimizer.Plan, error)) (*SeekCosts, error) {
	out := &SeekCosts{byIndex: make(map[string]float64)}
	for qi, q := range w.Queries {
		p, err := plan(qi)
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
