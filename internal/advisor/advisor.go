// Package advisor implements per-query index tuning in the style of
// the Index Tuning Wizard [CNITW98, CN97]: for one query it proposes
// candidate indexes from the query's predicates, join, grouping,
// ordering and projection columns, evaluates them with optimizer-
// estimated costs over hypothetical configurations, and recommends the
// winning set. The paper builds its *initial configurations* exactly
// this way (§4.2.3): tune randomly drawn queries one at a time and
// union the recommendations — the query-at-a-time methodology whose
// storage explosion index merging then repairs.
package advisor

import (
	"context"
	"math/rand"
	"sort"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// Advisor recommends indexes for individual queries.
type Advisor struct {
	Meta catalog.SchemaHolder
	Opt  *optimizer.Optimizer

	// Parallelism bounds concurrent candidate costing in TuneQuery.
	// <= 1 (the default) costs candidates serially. Recommendations
	// are identical for any value: all candidates are costed against
	// the same already-chosen set, then the winner is picked in
	// candidate order.
	Parallelism int
}

// New creates an advisor over the database's metadata and an optimizer.
func New(meta catalog.SchemaHolder, opt *optimizer.Optimizer) *Advisor {
	return &Advisor{Meta: meta, Opt: opt}
}

// TuneQuery recommends a set of indexes (at most one per referenced
// table) minimizing the query's optimizer-estimated cost. Only indexes
// that actually lower the cost below the no-index plan are returned.
func (a *Advisor) TuneQuery(stmt *sql.SelectStmt) ([]catalog.IndexDef, error) {
	return a.TuneQueryContext(context.Background(), stmt)
}

// TuneQueryContext is TuneQuery under a context: cancellation is
// observed between candidate costings and surfaces as ctx.Err().
// The query is prepared once; every candidate configuration is then
// costed through the allocation-free prepared fast path (costs are
// bit-identical to unprepared optimization).
func (a *Advisor) TuneQueryContext(ctx context.Context, stmt *sql.SelectStmt) ([]catalog.IndexDef, error) {
	pq, err := a.Opt.PrepareQuery(stmt)
	if err != nil {
		return nil, err
	}
	baseCost, err := a.Opt.CostPrepared(pq, nil)
	if err != nil {
		return nil, err
	}
	var chosen []catalog.IndexDef
	bestCost := baseCost

	// Greedily add one index per table, largest tables first — their
	// access dominates the plan cost.
	tables := stmt.TablesReferenced()
	sort.SliceStable(tables, func(i, j int) bool {
		return a.tableRows(tables[i]) > a.tableRows(tables[j])
	})
	for _, tname := range tables {
		cands := a.candidatesFor(stmt, tname)
		costs, err := a.costCandidates(ctx, pq, chosen, cands)
		if err != nil {
			return nil, err
		}
		// Pick in candidate order so the recommendation is identical
		// to a serial sweep regardless of Parallelism.
		var bestCand *catalog.IndexDef
		for i := range cands {
			if costs[i] < bestCost {
				bestCost = costs[i]
				bestCand = &cands[i]
			}
		}
		if bestCand != nil {
			chosen = append(chosen, *bestCand)
		}
	}
	return chosen, nil
}

// costCandidates costs every candidate added on top of the chosen set,
// concurrently when Parallelism > 1. Every candidate is costed against
// the same base, so costs are independent of evaluation order. A
// panicking optimizer is a *core.PanicError (core.EvalEach's boundary),
// on a worker goroutine as on the caller's.
func (a *Advisor) costCandidates(ctx context.Context, pq *optimizer.PreparedQuery, chosen, cands []catalog.IndexDef) ([]float64, error) {
	costs := make([]float64, len(cands))
	eval := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg := optimizer.Configuration(append(append([]catalog.IndexDef{}, chosen...), cands[i]))
		cost, err := a.Opt.CostPrepared(pq, cfg)
		if err != nil {
			return err
		}
		costs[i] = cost
		return nil
	}
	if err := core.EvalEach(len(cands), a.Parallelism, eval); err != nil {
		return nil, err
	}
	return costs, nil
}

func (a *Advisor) tableRows(name string) int64 {
	type rowCounter interface{ TableRowCount(string) int64 }
	if rc, ok := a.Meta.(rowCounter); ok {
		return rc.TableRowCount(name)
	}
	return 0
}

// candidatesFor derives candidate indexes for one table of a query.
// The candidate shapes mirror the wizard's: selective seek prefixes
// (equality columns first, then one range column), optionally widened
// to covering; pure covering column slices ordered for grouping or
// ordering; and join-column seeds for index nested-loop joins.
func (a *Advisor) candidatesFor(stmt *sql.SelectStmt, tname string) []catalog.IndexDef {
	sc := a.Meta.Schema()
	t, ok := sc.Table(tname)
	if !ok {
		return nil
	}
	var eqCols, rngCols []string
	seenEq := map[string]bool{}
	seenRng := map[string]bool{}
	for _, p := range stmt.PredicatesOn(tname) {
		switch {
		case p.Op.IsEquality() && !seenEq[p.Col.Column]:
			seenEq[p.Col.Column] = true
			eqCols = append(eqCols, p.Col.Column)
		case p.Op.IsRange() && !seenRng[p.Col.Column]:
			seenRng[p.Col.Column] = true
			rngCols = append(rngCols, p.Col.Column)
		}
	}
	joinCols := stmt.JoinColumnsOf(tname)
	var groupCols []string
	for _, g := range stmt.GroupBy {
		if g.Table == tname {
			groupCols = append(groupCols, g.Column)
		}
	}
	var orderCols []string
	for _, o := range stmt.OrderBy {
		if o.Col.Table == tname && !o.Desc {
			orderCols = append(orderCols, o.Col.Column)
		}
	}
	allCols := stmt.ColumnsOf(tname)

	appendDistinct := func(dst []string, cols ...string) []string {
		seen := make(map[string]bool, len(dst))
		for _, c := range dst {
			seen[c] = true
		}
		for _, c := range cols {
			if !seen[c] {
				seen[c] = true
				dst = append(dst, c)
			}
		}
		return dst
	}

	var shapes [][]string
	if len(eqCols) > 0 {
		shapes = append(shapes, append([]string(nil), eqCols...))
	}
	if len(eqCols)+len(rngCols) > 0 && len(rngCols) > 0 {
		shapes = append(shapes, appendDistinct(append([]string(nil), eqCols...), rngCols[0]))
	}
	// Seek shapes widened to covering.
	if len(eqCols)+len(rngCols) > 0 {
		seek := append([]string(nil), eqCols...)
		if len(rngCols) > 0 {
			seek = appendDistinct(seek, rngCols[0])
		}
		shapes = append(shapes, appendDistinct(seek, allCols...))
	}
	// Covering slices led by grouping / ordering / join columns.
	if len(groupCols) > 0 {
		shapes = append(shapes, appendDistinct(append([]string(nil), groupCols...), allCols...))
	}
	if len(orderCols) > 0 {
		shapes = append(shapes, appendDistinct(append([]string(nil), orderCols...), allCols...))
	}
	if len(joinCols) > 0 {
		shapes = append(shapes, append([]string(nil), joinCols...))
		shapes = append(shapes, appendDistinct(append([]string(nil), joinCols...), allCols...))
	}
	// Plain covering slice in referenced order.
	if len(allCols) > 0 {
		shapes = append(shapes, append([]string(nil), allCols...))
	}

	var out []catalog.IndexDef
	seen := make(map[string]bool)
	for _, cols := range shapes {
		if len(cols) == 0 || len(cols) > len(t.Columns) {
			continue
		}
		def, err := catalog.NewIndexDef(sc, "", tname, cols)
		if err != nil {
			continue
		}
		if !seen[def.Key()] {
			seen[def.Key()] = true
			out = append(out, def)
		}
	}
	return out
}

// BuildInitialConfiguration reproduces §4.2.3: repeatedly draw a
// random query from the workload, tune it in isolation, and accumulate
// the recommended indexes until the configuration holds n distinct
// indexes (or the draw budget runs out).
func BuildInitialConfiguration(a *Advisor, w *sql.Workload, n int, seed int64) ([]catalog.IndexDef, error) {
	return BuildInitialConfigurationContext(context.Background(), a, w, n, seed)
}

// BuildInitialConfigurationContext is BuildInitialConfiguration under
// a context; cancellation surfaces as ctx.Err().
func BuildInitialConfigurationContext(ctx context.Context, a *Advisor, w *sql.Workload, n int, seed int64) ([]catalog.IndexDef, error) {
	rng := rand.New(rand.NewSource(seed))
	var defs []catalog.IndexDef
	seen := make(map[string]bool)
	maxDraws := 20 * n
	if maxDraws < 100 {
		maxDraws = 100
	}
	for draws := 0; len(defs) < n && draws < maxDraws; draws++ {
		q := w.Queries[rng.Intn(len(w.Queries))]
		recs, err := a.TuneQueryContext(ctx, q.Stmt)
		if err != nil {
			return nil, err
		}
		for _, def := range recs {
			if len(defs) >= n {
				break
			}
			if !seen[def.Key()] {
				seen[def.Key()] = true
				defs = append(defs, def)
			}
		}
	}
	return defs, nil
}

// TuneWorkload tunes every query in the workload and unions the
// recommendations — the "tune each query individually" baseline from
// the paper's introduction (storage ≈ 5× data on TPC-D).
func (a *Advisor) TuneWorkload(w *sql.Workload) ([]catalog.IndexDef, error) {
	return a.TuneWorkloadContext(context.Background(), w)
}

// TuneWorkloadContext is TuneWorkload under a context; cancellation is
// observed between candidate costings and surfaces as ctx.Err().
func (a *Advisor) TuneWorkloadContext(ctx context.Context, w *sql.Workload) ([]catalog.IndexDef, error) {
	var defs []catalog.IndexDef
	seen := make(map[string]bool)
	for _, q := range w.Queries {
		recs, err := a.TuneQueryContext(ctx, q.Stmt)
		if err != nil {
			return nil, err
		}
		for _, def := range recs {
			if !seen[def.Key()] {
				seen[def.Key()] = true
				defs = append(defs, def)
			}
		}
	}
	return defs, nil
}

// TuneTemplates tunes one representative query per template of a
// compressed workload and unions the recommendations — TuneWorkload at
// template granularity. reps lists one workload position per template
// (wscale.Compressed.Representatives). Candidate index shapes depend
// only on a query's columns and operators, which every member of a
// template shares, so the candidate sets are identical across members;
// only the constants used to *cost* them differ. On workloads whose
// duplicates are exact (folded by sql.Workload.Add) the result equals
// TuneWorkload's; across constant-varied members it is the standard
// representative approximation.
func (a *Advisor) TuneTemplates(w *sql.Workload, reps []int) ([]catalog.IndexDef, error) {
	return a.TuneTemplatesContext(context.Background(), w, reps)
}

// TuneTemplatesContext is TuneTemplates under a context; cancellation
// is observed between candidate costings and surfaces as ctx.Err().
func (a *Advisor) TuneTemplatesContext(ctx context.Context, w *sql.Workload, reps []int) ([]catalog.IndexDef, error) {
	var defs []catalog.IndexDef
	seen := make(map[string]bool)
	for _, qi := range reps {
		recs, err := a.TuneQueryContext(ctx, w.Queries[qi].Stmt)
		if err != nil {
			return nil, err
		}
		for _, def := range recs {
			if !seen[def.Key()] {
				seen[def.Key()] = true
				defs = append(defs, def)
			}
		}
	}
	return defs, nil
}
