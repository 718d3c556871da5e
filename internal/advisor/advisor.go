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
}

// New creates an advisor over the database's metadata and an optimizer.
func New(meta catalog.SchemaHolder, opt *optimizer.Optimizer) *Advisor {
	return &Advisor{Meta: meta, Opt: opt}
}

// TuneQueryContext recommends a set of indexes (at most one per
// referenced table) minimizing the query's optimizer-estimated cost.
// Only indexes that actually lower the cost below the no-index plan are
// returned. Cancellation is observed between candidate costings and
// surfaces as ctx.Err(). The query is prepared once; every candidate
// configuration is then costed through the allocation-free prepared
// fast path (costs are bit-identical to unprepared optimization).
func (a *Advisor) TuneQueryContext(ctx context.Context, stmt *sql.SelectStmt) ([]catalog.IndexDef, error) {
	pq, err := a.Opt.PrepareQuery(stmt)
	if err != nil {
		return nil, err
	}
	baseCost, err := a.Opt.CostPrepared(pq, nil)
	if err != nil {
		return nil, err
	}
	bestCost := baseCost

	// Greedily add one index per table, largest tables first — their
	// access dominates the plan cost.
	tables := stmt.TablesReferenced()
	sort.SliceStable(tables, func(i, j int) bool {
		return a.tableRows(tables[i]) > a.tableRows(tables[j])
	})
	// At most one index a table: chosen always has room for the
	// candidate, so each configuration costed is built in place.
	chosen := make([]catalog.IndexDef, 0, len(tables))
	for _, tname := range tables {
		cands := a.candidatesFor(stmt, tname)
		// Every candidate is costed on top of the same chosen set, one
		// at a time in candidate order; the first cheapest wins. A
		// panicking optimizer is a *core.PanicError (core.EvalEach's
		// boundary).
		best := -1
		err := core.EvalEach(len(cands), 1, func(i int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			cost, err := a.Opt.CostPrepared(pq, append(chosen, cands[i]))
			if err != nil {
				return err
			}
			if cost < bestCost {
				bestCost, best = cost, i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if best >= 0 {
			chosen = append(chosen, cands[best])
		}
	}
	return chosen, nil
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

// BuildInitialConfiguration is BuildInitialConfigurationContext
// without a context. Its one caller is benchmark/daemon.go; delete it
// with the next change to the benchmark, which moves that call to the
// context form.
func BuildInitialConfiguration(a *Advisor, w *sql.Workload, n int, seed int64) ([]catalog.IndexDef, error) {
	return BuildInitialConfigurationContext(context.Background(), a, w, n, seed)
}

// BuildInitialConfigurationContext reproduces §4.2.3: repeatedly draw
// a random query from the workload, tune it in isolation, and
// accumulate the recommended indexes until the configuration holds n
// distinct indexes (or the draw budget runs out). Cancellation
// surfaces as ctx.Err().
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

// TuneQueriesContext tunes the queries at the given workload positions
// one at a time and unions the recommendations in position order. Over
// every position (AllPositions) it is the "tune each query
// individually" baseline from the paper's introduction (storage ≈ 5×
// data on TPC-D). Over one representative per template of a compressed
// workload (wscale.Compressed.Representatives) it is that baseline at
// template granularity: candidate index shapes depend only on a query's
// columns and operators, which every member of a template shares, so
// the candidate sets are identical across members; only the constants
// used to *cost* them differ. On workloads whose duplicates are exact
// (folded by sql.Workload.Add) the two agree; across constant-varied
// members the representatives are the standard approximation.
// Cancellation is observed between candidate costings and surfaces as
// ctx.Err().
func (a *Advisor) TuneQueriesContext(ctx context.Context, w *sql.Workload, positions []int) ([]catalog.IndexDef, error) {
	var defs []catalog.IndexDef
	seen := make(map[string]bool)
	for _, qi := range positions {
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

// AllPositions lists every position of w, in order.
func AllPositions(w *sql.Workload) []int {
	positions := make([]int, len(w.Queries))
	for i := range positions {
		positions[i] = i
	}
	return positions
}
