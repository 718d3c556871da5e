// Package workload generates the paper's two workload classes
// (§4.2.2): randomly generated projection-only queries, where indexes
// act mostly as covering indexes, and complex queries with joins,
// selections and aggregations, in the spirit of the RAGS stochastic
// SQL generator [S98]. Constants are sampled from live table data so
// predicates hit realistic value ranges. Generation is deterministic
// in the seed.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// Class selects the workload style.
type Class int

const (
	// ProjectionOnly queries select a column subset with no predicates;
	// covering indexes are the dominant win.
	ProjectionOnly Class = iota
	// Complex queries mix joins, selections, grouping, aggregation and
	// ordering.
	Complex
)

// Options configures generation.
type Options struct {
	Class   Class
	Queries int
	Seed    int64
	// MaxTables caps the tables per query (Complex only; default 3).
	MaxTables int
	// Disjunctions lets Complex queries draw OR / IN predicates (the
	// inputs to index-union access paths). Off by default: enabling it
	// consumes extra random draws, so existing seeded streams stay
	// byte-stable unless a caller opts in.
	Disjunctions bool
	// Duplication appends this many extra statements after the base
	// queries: each repeats a zipf-chosen base query with its predicate
	// constants re-sampled — the log-like repetition that template
	// compression exploits. Re-sampled statements whose text collapses
	// to an existing entry fold into its frequency. Off by default; the
	// extra draws come from a dedicated rng, so seeded base streams are
	// byte-stable whether or not the option is on.
	Duplication int
}

// Generate builds a workload against the database's schema and data.
func Generate(db *engine.Database, opt Options) (*sql.Workload, error) {
	if opt.Queries <= 0 {
		opt.Queries = 30
	}
	if opt.MaxTables <= 0 {
		opt.MaxTables = 3
	}
	g := newGenerator(db, opt)
	w := &sql.Workload{}
	// Count statements added rather than distinct entries: Add folds a
	// duplicate text into the existing entry's frequency, and a folded
	// draw must not trigger another generation round (which would shift
	// the seeded rng stream relative to earlier versions).
	for added := 0; added < opt.Queries; {
		var stmt *sql.SelectStmt
		var err error
		if opt.Class == ProjectionOnly {
			stmt, err = g.projectionQuery()
		} else {
			stmt, err = g.complexQuery()
		}
		if err == nil {
			err = g.err
		}
		if err != nil {
			return nil, err
		}
		if stmt == nil {
			continue // retry an unpromising draw
		}
		if err := stmt.Resolve(db.Schema()); err != nil {
			return nil, fmt.Errorf("workload: generated invalid query %q: %w", stmt, err)
		}
		w.Add(stmt, 1)
		added++
	}
	if opt.Duplication > 0 {
		if err := g.duplicate(w, opt.Duplication); err != nil {
			return nil, err
		}
	}
	return w, nil
}

type generator struct {
	db     *engine.Database
	rng    *rand.Rand
	opt    Options
	ranked []*catalog.Table // tables ordered hot-first
	zipf   *datagen.Zipf    // skewed table choice
	err    error            // the first heap error a draw met (sampleValue)
}

// newGenerator ranks tables hot-first and prepares a Zipfian table
// chooser: decision-support workloads concentrate on the large fact
// tables (in TPC-D virtually every benchmark query touches lineitem),
// so queries — and therefore candidate indexes — cluster there. Rank
// weight is rows × row width, i.e. table bytes.
func newGenerator(db *engine.Database, opt Options) *generator {
	rng := rand.New(rand.NewSource(opt.Seed))
	tables := append([]*catalog.Table(nil), db.Schema().Tables()...)
	sort.SliceStable(tables, func(i, j int) bool {
		wi := db.TableRowCount(tables[i].Name) * int64(tables[i].RowWidth())
		wj := db.TableRowCount(tables[j].Name) * int64(tables[j].RowWidth())
		return wi > wj
	})
	return &generator{
		db:     db,
		rng:    rng,
		opt:    opt,
		ranked: tables,
		zipf:   datagen.NewZipf(rng, len(tables), 2.0),
	}
}

// pickTable chooses a table, biased heavily toward the hot (large)
// ones.
func (g *generator) pickTable() *catalog.Table {
	for tries := 0; tries < 32; tries++ {
		t := g.ranked[g.zipf.Next()-1]
		if g.db.TableRowCount(t.Name) > 0 {
			return t
		}
	}
	return g.ranked[0]
}

// sampleValue draws a live value from the column (for realistic
// predicate constants), uniformly among the table's live rows; it
// falls back to a small integer when the table is empty. A heap error
// draws NULL, which every caller skips, and is kept in g.err for
// Generate to return.
func (g *generator) sampleValue(table *catalog.Table, col string) value.Value {
	h, err := g.db.Heap(table.Name)
	if err != nil {
		g.fail(err)
		return value.NewNull()
	}
	if h.RowCount() == 0 {
		return value.NewInt(int64(1 + g.rng.Intn(100)))
	}
	var row value.Row
	rid, err := h.NthLive(g.rng.Int63n(h.RowCount()))
	if err == nil {
		row, err = h.Get(rid)
	}
	if err != nil {
		g.fail(err)
		return value.NewNull()
	}
	return row[table.ColumnIndex(col)]
}

// fail keeps the generator's first error.
func (g *generator) fail(err error) {
	if g.err == nil {
		g.err = fmt.Errorf("workload: sampling a constant: %w", err)
	}
}

// columnSubset picks 1..max distinct columns.
func (g *generator) columnSubset(t *catalog.Table, max int) []string {
	n := 1 + g.rng.Intn(max)
	if n > len(t.Columns) {
		n = len(t.Columns)
	}
	perm := g.rng.Perm(len(t.Columns))
	cols := make([]string, n)
	for i := 0; i < n; i++ {
		cols[i] = t.Columns[perm[i]].Name
	}
	return cols
}

// projectionQuery emits SELECT c1, ..., ck FROM t, occasionally with
// an ORDER BY over a prefix of the selected columns.
func (g *generator) projectionQuery() (*sql.SelectStmt, error) {
	t := g.pickTable()
	cols := g.columnSubset(t, 6)
	stmt := &sql.SelectStmt{From: []string{t.Name}}
	for _, c := range cols {
		stmt.Select = append(stmt.Select, sql.SelectItem{Col: sql.ColumnRef{Table: t.Name, Column: c}})
	}
	if g.rng.Float64() < 0.3 {
		nOrder := 1 + g.rng.Intn(2)
		if nOrder > len(cols) {
			nOrder = len(cols)
		}
		for i := 0; i < nOrder; i++ {
			stmt.OrderBy = append(stmt.OrderBy, sql.OrderItem{Col: sql.ColumnRef{Table: t.Name, Column: cols[i]}})
		}
	}
	return stmt, nil
}

// complexQuery emits a 1–MaxTables join with random selections and,
// half the time, grouping and aggregation.
func (g *generator) complexQuery() (*sql.SelectStmt, error) {
	nTables := 1
	r := g.rng.Float64()
	switch {
	case r < 0.45:
		nTables = 1
	case r < 0.8:
		nTables = 2
	default:
		nTables = g.opt.MaxTables
	}

	tables := []*catalog.Table{g.pickTable()}
	stmt := &sql.SelectStmt{From: []string{tables[0].Name}}
	for len(tables) < nTables {
		next := g.pickTable()
		dup := false
		for _, t := range tables {
			if t.Name == next.Name {
				dup = true
				break
			}
		}
		if dup {
			break // settle for fewer tables rather than spin
		}
		jp, ok := g.joinPredicate(tables, next)
		if !ok {
			break
		}
		tables = append(tables, next)
		stmt.From = append(stmt.From, next.Name)
		stmt.Joins = append(stmt.Joins, jp)
	}

	// Selections: 1-3 predicates over random columns of random tables.
	// At least one predicate per query keeps workload cost concentrated
	// on indexable restrictions rather than full-table scans — the
	// regime where index seeks (and losing them to a bad merge order)
	// matter, as in the paper's complex workloads.
	nPreds := 1 + g.rng.Intn(3)
	for i := 0; i < nPreds; i++ {
		t := tables[g.rng.Intn(len(tables))]
		if g.opt.Disjunctions && g.rng.Float64() < 0.35 {
			if p, ok := g.disjunction(t); ok {
				stmt.Where = append(stmt.Where, p)
			}
			continue
		}
		c := t.Columns[g.rng.Intn(len(t.Columns))]
		ref := sql.ColumnRef{Table: t.Name, Column: c.Name}
		v := g.sampleValue(t, c.Name)
		if v.IsNull() {
			continue
		}
		// Bias toward equality: selective predicates dominate DSS logs
		// and give seeks their multiplicative advantage (§3.3.1).
		op := g.rng.Intn(6)
		if op >= 4 {
			op = 0
		}
		switch op {
		case 0:
			stmt.Where = append(stmt.Where, sql.Predicate{Col: ref, Op: sql.OpEq, Val: v})
		case 1:
			stmt.Where = append(stmt.Where, sql.Predicate{Col: ref, Op: sql.OpLt, Val: v})
		case 2:
			stmt.Where = append(stmt.Where, sql.Predicate{Col: ref, Op: sql.OpGe, Val: v})
		default:
			w := g.sampleValue(t, c.Name)
			if w.IsNull() {
				continue
			}
			lo, hi := v, w
			if lo.Compare(hi) > 0 {
				lo, hi = hi, lo
			}
			stmt.Where = append(stmt.Where, sql.Predicate{Col: ref, Op: sql.OpBetween, Lo: lo, Hi: hi})
		}
	}

	if g.rng.Float64() < 0.5 {
		g.addAggregation(stmt, tables)
	} else {
		g.addPlainSelect(stmt, tables)
	}
	if len(stmt.Select) == 0 {
		return nil, nil // retry
	}
	return stmt, nil
}

// disjunction draws a disjunctive predicate over one table: half the
// time an IN list of 2-4 live values on a single column, otherwise an
// OR of 2-3 simple predicates over (possibly different) columns of the
// table. These are the shapes the optimizer's union access paths
// consume and the fuzz grammars use to exercise them.
func (g *generator) disjunction(t *catalog.Table) (sql.Predicate, bool) {
	if g.rng.Float64() < 0.5 {
		c := t.Columns[g.rng.Intn(len(t.Columns))]
		ref := sql.ColumnRef{Table: t.Name, Column: c.Name}
		n := 2 + g.rng.Intn(3)
		var vals []value.Value
		for i := 0; i < n; i++ {
			v := g.sampleValue(t, c.Name)
			if v.IsNull() {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) < 2 {
			return sql.Predicate{}, false
		}
		return sql.Predicate{Col: ref, Op: sql.OpIn, Vals: vals}, true
	}
	n := 2 + g.rng.Intn(2)
	var disj []sql.Predicate
	for i := 0; i < n; i++ {
		c := t.Columns[g.rng.Intn(len(t.Columns))]
		ref := sql.ColumnRef{Table: t.Name, Column: c.Name}
		v := g.sampleValue(t, c.Name)
		if v.IsNull() {
			continue
		}
		// Equality-heavy, mirroring the conjunctive draw: selective
		// disjuncts are where union paths beat a scan.
		switch g.rng.Intn(4) {
		case 0:
			disj = append(disj, sql.Predicate{Col: ref, Op: sql.OpLt, Val: v})
		case 1:
			disj = append(disj, sql.Predicate{Col: ref, Op: sql.OpGe, Val: v})
		default:
			disj = append(disj, sql.Predicate{Col: ref, Op: sql.OpEq, Val: v})
		}
	}
	if len(disj) < 2 {
		return sql.Predicate{}, false
	}
	return sql.Predicate{Col: sql.ColumnRef{Table: t.Name}, Op: sql.OpOr, Or: disj}, true
}

// duplicate appends n constant-resampled repetitions of the base
// queries, zipf-skewed so a few templates dominate the log the way
// repeated parameterized statements dominate production query logs.
// The draws come from a dedicated rng so the base stream is untouched.
func (g *generator) duplicate(w *sql.Workload, n int) error {
	base := make([]*sql.SelectStmt, len(w.Queries))
	for i, q := range w.Queries {
		base[i] = q.Stmt
	}
	rng := rand.New(rand.NewSource(g.opt.Seed*0x9E3779B9 + 0x7F4A7C15))
	zipf := datagen.NewZipf(rng, len(base), 1.5)
	dg := &generator{db: g.db, rng: rng, opt: g.opt, ranked: g.ranked}
	for i := 0; i < n; i++ {
		stmt := dg.resample(base[zipf.Next()-1])
		if dg.err != nil {
			return dg.err
		}
		w.Add(stmt, 1)
	}
	return nil
}

// resample deep-copies the statement with every predicate constant
// re-drawn from live data. The copy keeps the exact shape — columns,
// operators, IN arities — so its fingerprint matches the template's; a
// draw that comes back NULL keeps the template's constant.
func (g *generator) resample(src *sql.SelectStmt) *sql.SelectStmt {
	out := &sql.SelectStmt{
		Select:  append([]sql.SelectItem(nil), src.Select...),
		From:    append([]string(nil), src.From...),
		Joins:   append([]sql.JoinPred(nil), src.Joins...),
		Where:   make([]sql.Predicate, len(src.Where)),
		GroupBy: append([]sql.ColumnRef(nil), src.GroupBy...),
		OrderBy: append([]sql.OrderItem(nil), src.OrderBy...),
	}
	for i, p := range src.Where {
		out.Where[i] = g.resamplePred(p)
	}
	return out
}

// resamplePred returns a copy of the predicate with fresh constants.
func (g *generator) resamplePred(p sql.Predicate) sql.Predicate {
	draw := func(ref sql.ColumnRef, old value.Value) value.Value {
		t, ok := g.db.Schema().Table(ref.Table)
		if !ok {
			return old
		}
		v := g.sampleValue(t, ref.Column)
		if v.IsNull() {
			return old
		}
		return v
	}
	switch p.Op {
	case sql.OpBetween:
		lo, hi := draw(p.Col, p.Lo), draw(p.Col, p.Hi)
		if lo.Compare(hi) > 0 {
			lo, hi = hi, lo
		}
		p.Lo, p.Hi = lo, hi
	case sql.OpIn:
		vals := make([]value.Value, len(p.Vals))
		for i, v := range p.Vals {
			vals[i] = draw(p.Col, v)
		}
		p.Vals = vals
	case sql.OpOr:
		disj := make([]sql.Predicate, len(p.Or))
		for i, d := range p.Or {
			disj[i] = g.resamplePred(d)
		}
		p.Or = disj
	default:
		p.Val = draw(p.Col, p.Val)
	}
	return p
}

// joinPredicate finds a same-type column pair linking next to one of
// the existing tables. Only key-like columns (high distinct counts on
// both sides) qualify: equality joins on low-cardinality columns are
// cross-product-shaped, which real workload generators like RAGS also
// avoid and which would swamp execution.
func (g *generator) joinPredicate(tables []*catalog.Table, next *catalog.Table) (sql.JoinPred, bool) {
	for tries := 0; tries < 24; tries++ {
		left := tables[g.rng.Intn(len(tables))]
		lc := left.Columns[g.rng.Intn(len(left.Columns))]
		if lc.Type != value.Int && lc.Type != value.Date {
			continue // join on integer-like keys only
		}
		if !g.keyLike(left.Name, lc.Name) {
			continue
		}
		var cands []catalog.Column
		for _, rc := range next.Columns {
			if rc.Type == lc.Type && g.keyLike(next.Name, rc.Name) {
				cands = append(cands, rc)
			}
		}
		if len(cands) == 0 {
			continue
		}
		rc := cands[g.rng.Intn(len(cands))]
		return sql.JoinPred{
			Left:  sql.ColumnRef{Table: left.Name, Column: lc.Name},
			Right: sql.ColumnRef{Table: next.Name, Column: rc.Name},
		}, true
	}
	return sql.JoinPred{}, false
}

// keyLike reports whether a column's distinct count is at least a
// tenth of its table's rows — a proxy for key/foreign-key columns.
func (g *generator) keyLike(table, col string) bool {
	ts := g.db.TableStats(table)
	if ts == nil {
		return true // no statistics; let it through
	}
	cs := ts.Column(col)
	if cs == nil || cs.RowCount == 0 {
		return true
	}
	return cs.Distinct >= cs.RowCount/10
}

// addAggregation sets up GROUP BY + aggregates; ORDER BY (when drawn)
// uses group columns only, keeping the query executable.
func (g *generator) addAggregation(stmt *sql.SelectStmt, tables []*catalog.Table) {
	nGroup := 1 + g.rng.Intn(2)
	seen := make(map[string]bool)
	for i := 0; i < nGroup; i++ {
		t := tables[g.rng.Intn(len(tables))]
		c := t.Columns[g.rng.Intn(len(t.Columns))]
		ref := sql.ColumnRef{Table: t.Name, Column: c.Name}
		if seen[ref.String()] {
			continue
		}
		seen[ref.String()] = true
		stmt.GroupBy = append(stmt.GroupBy, ref)
		stmt.Select = append(stmt.Select, sql.SelectItem{Col: ref})
	}
	nAggs := 1 + g.rng.Intn(2)
	for i := 0; i < nAggs; i++ {
		t := tables[g.rng.Intn(len(tables))]
		var numeric []catalog.Column
		for _, c := range t.Columns {
			if c.Type == value.Int || c.Type == value.Float {
				numeric = append(numeric, c)
			}
		}
		if len(numeric) == 0 {
			stmt.Select = append(stmt.Select, sql.SelectItem{Agg: sql.AggCountStar})
			continue
		}
		c := numeric[g.rng.Intn(len(numeric))]
		fns := []sql.AggFunc{sql.AggSum, sql.AggAvg, sql.AggMin, sql.AggMax, sql.AggCount}
		stmt.Select = append(stmt.Select, sql.SelectItem{
			Agg: fns[g.rng.Intn(len(fns))],
			Col: sql.ColumnRef{Table: t.Name, Column: c.Name},
		})
	}
	if g.rng.Float64() < 0.4 && len(stmt.GroupBy) > 0 {
		stmt.OrderBy = append(stmt.OrderBy, sql.OrderItem{Col: stmt.GroupBy[0]})
	}
}

// addPlainSelect projects random columns; 30% of the time it orders by
// a prefix of them.
func (g *generator) addPlainSelect(stmt *sql.SelectStmt, tables []*catalog.Table) {
	n := 1 + g.rng.Intn(4)
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		t := tables[g.rng.Intn(len(tables))]
		c := t.Columns[g.rng.Intn(len(t.Columns))]
		ref := sql.ColumnRef{Table: t.Name, Column: c.Name}
		if seen[ref.String()] {
			continue
		}
		seen[ref.String()] = true
		stmt.Select = append(stmt.Select, sql.SelectItem{Col: ref})
	}
	if g.rng.Float64() < 0.3 && len(stmt.Select) > 0 {
		stmt.OrderBy = append(stmt.OrderBy, sql.OrderItem{Col: stmt.Select[0].Col})
	}
}
