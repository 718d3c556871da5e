package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"indexmerge/internal/catalog"
	"indexmerge/internal/sql"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
)

// StatsVersioner is an optional extension of Meta: metadata providers
// that report a monotonically increasing statistics version enable
// staleness detection for prepared queries. engine.Database implements
// it (the version bumps on every Analyze), so prepared planning errors
// out instead of silently costing against superseded selectivities
// after statistics are rebuilt.
type StatsVersioner interface {
	StatsVersion() uint64
}

// PreparedQuery is a compact, immutable descriptor of one resolved
// query: everything planning derives from the statement and the
// statistics alone — referenced tables in FROM order, per-table
// required columns, predicates with histogram-probed selectivities,
// the conjunction selectivity, join selectivities, group/order
// satisfaction metadata, and heap-page estimates — computed once so
// that planning it under one configuration after another never
// re-walks the AST or re-probes histograms. Optimize builds one per
// call; every other entry point takes one built earlier.
//
// A PreparedQuery is read-only after PrepareQuery returns and safe for
// concurrent use by any number of goroutines.
type PreparedQuery struct {
	// Stmt is the resolved statement the descriptor was built from.
	Stmt *sql.SelectStmt

	tables []*tableInfo   // FROM order
	joins  []preparedJoin // Stmt.Joins with resolved table positions

	groupDistinct  []float64 // per GROUP BY column: distinctOf (0 = unknown table, skipped)
	groupCols      []string  // distinct GROUP BY column names, first-occurrence order
	groupSameTable bool      // every GROUP BY column is on tables[0]
	hasAggs        bool

	schema       *catalog.Schema // the tables' schema, against which a loop resolves a configuration
	versioner    StatsVersioner
	statsVersion uint64
}

// preparedJoin is one join predicate with its endpoints resolved to
// table positions and column ordinals and its selectivity precomputed.
// joinSelectivity is symmetric in its arguments, so one value serves
// both orientations.
type preparedJoin struct {
	left, right       int   // positions in tables; -1 when the table is not in FROM
	leftCol, rightCol int32 // ordinals in those tables; noColumn with a position of -1
	sel               float64
}

// connects reports whether the join predicate links table t to the
// joined subset rest.
func (j *preparedJoin) connects(rest, t int) bool {
	if j.left == t && j.right >= 0 && rest&(1<<uint(j.right)) != 0 {
		return true
	}
	return j.right == t && j.left >= 0 && rest&(1<<uint(j.left)) != 0
}

// myCol returns the join column on table t's side.
func (j *preparedJoin) myCol(t int) int32 {
	if j.left == t {
		return j.leftCol
	}
	return j.rightCol
}

// PreparedWorkload pairs a workload with its prepared query
// descriptors, aligned by position. Prepare once per (workload,
// statistics) pair and reuse across every configuration probe.
type PreparedWorkload struct {
	W       *sql.Workload
	Queries []*PreparedQuery
	// Shapes is how many of the descriptors PrepareWorkload built in
	// full; the others were bound to the shape of an earlier entry of
	// their template. Zero on a workload assembled from descriptors
	// prepared elsewhere (a window snapshot).
	Shapes int

	byTableOnce sync.Once
	byTable     map[string][]int // query positions per referenced table

	wholeOnce sync.Once
	members   []int     // every position, in workload order (see Whole)
	weights   []float64 // each position's frequency
}

// Len returns the number of prepared queries.
func (pw *PreparedWorkload) Len() int { return len(pw.Queries) }

// Whole returns every position of pw in workload order and each
// query's frequency, the members and weights of Cost(W, C) for
// CostPreparedSum: built on the first call, shared read-only after.
func (pw *PreparedWorkload) Whole() (members []int, weights []float64) {
	pw.wholeOnce.Do(func() {
		pw.members = make([]int, len(pw.Queries))
		pw.weights = make([]float64, len(pw.Queries))
		for k := range pw.members {
			pw.members[k], pw.weights[k] = k, pw.W.Queries[k].Freq
		}
	})
	return pw.members, pw.weights
}

// QuerySet is a set of workload positions, one bit per query.
type QuerySet []uint64

// NewQuerySet returns an empty set over n positions.
func NewQuerySet(n int) QuerySet { return make(QuerySet, (n+63)/64) }

// Add inserts position i.
func (s QuerySet) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether position i is in the set; a nil set is empty.
func (s QuerySet) Has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]>>(uint(i)&63)&1 != 0
}

// Next returns the smallest member at or after position i, or -1.
func (s QuerySet) Next(i int) int {
	for w := i >> 6; w < len(s); w++ {
		word := s[w]
		if w == i>>6 {
			word &= ^uint64(0) << (uint(i) & 63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Union adds every member of t, a set over no more positions than s.
func (s QuerySet) Union(t QuerySet) {
	for i, w := range t {
		s[i] |= w
	}
}

// RelevantQueries returns the queries an index with these key columns
// could contribute an access path to: IndexRelevant over the queries
// that reference the table. Every other query's cost is the same with
// or without the index, which is what lets a checker re-price only
// these queries when the index enters or leaves a configuration. A pure
// function of the definition; a caller that asks about the same
// definitions again and again memoizes it (core.Pricer does, per
// interned index).
func (pw *PreparedWorkload) RelevantQueries(table string, cols []string) QuerySet {
	pw.byTableOnce.Do(func() {
		pw.byTable = make(map[string][]int)
		for i, pq := range pw.Queries {
			for _, ti := range pq.tables {
				pw.byTable[ti.name] = append(pw.byTable[ti.name], i)
			}
		}
	})
	set := NewQuerySet(len(pw.Queries))
	var buf [32]int32
	var x indexInfo
	for _, i := range pw.byTable[table] {
		ti := pw.Queries[i].table(table)
		if ti.table != x.table { // once per schema the descriptors were prepared against
			x = ti.keyOf(cols, buf[:0])
		}
		if ti.relevant(&x) {
			set.Add(i)
		}
	}
	return set
}

// PrepareWorkload resolves every workload query into its prepared
// descriptor against the given metadata. The returned workload is
// immutable and safe for concurrent use.
//
// Entries that carry the same fingerprint differ in their constants
// alone, so everything a descriptor derives from the statement's shape
// and the statistics is built for the first of them and shared by the
// rest, which add what the constants decide (see bind). The map from
// fingerprint to shape lives for this call: a shape is never older than
// the statistics the call reads. An entry without a fingerprint, or
// whose statement is not of the shape its fingerprint names (entries
// are plain structs; nothing holds a hand-made one to its word), is
// prepared in full.
func PrepareWorkload(w *sql.Workload, meta Meta) (*PreparedWorkload, error) {
	pw := &PreparedWorkload{W: w, Queries: make([]*PreparedQuery, len(w.Queries))}
	shapes := make(map[string]*PreparedQuery)
	for i, q := range w.Queries {
		shape := shapes[q.Fingerprint]
		if shape != nil && shape.Stmt.SameShape(q.Stmt) {
			pw.Queries[i] = shape.bind(q.Stmt)
			continue
		}
		pq, err := PrepareQuery(q.Stmt, meta)
		if err != nil {
			return nil, fmt.Errorf("optimizer: prepare query %d: %w", i+1, err)
		}
		pw.Queries[i] = pq
		pw.Shapes++
		if shape == nil && q.Fingerprint != "" {
			shapes[q.Fingerprint] = pq
		}
	}
	return pw, nil
}

// PrepareWorkload prepares against the optimizer's own metadata.
func (o *Optimizer) PrepareWorkload(w *sql.Workload) (*PreparedWorkload, error) {
	return PrepareWorkload(w, o.meta)
}

// PrepareQuery prepares a single statement against the optimizer's own
// metadata.
func (o *Optimizer) PrepareQuery(stmt *sql.SelectStmt) (*PreparedQuery, error) {
	return PrepareQuery(stmt, o.meta)
}

// PrepareQuery builds the query-invariant descriptor for one resolved
// statement: per-table predicates, selectivities and their products,
// predicate equivalence classes, join metadata and the relevant-index
// prefilter sets. Only what scorePreds and textClasses fill depends on
// the statement's constants; the rest is the statement's shape, which
// bind shares among the statements of one template.
func PrepareQuery(stmt *sql.SelectStmt, meta Meta) (*PreparedQuery, error) {
	pq := &PreparedQuery{Stmt: stmt}
	if v, ok := meta.(StatsVersioner); ok {
		pq.versioner = v
		pq.statsVersion = v.StatsVersion()
	}
	sc := meta.Schema()
	pq.schema = sc
	for _, name := range stmt.From {
		if pq.table(name) != nil {
			continue
		}
		t, ok := sc.Table(name)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", name)
		}
		ti := &tableInfo{tableShape: &tableShape{
			name:     name,
			table:    t,
			ts:       meta.TableStats(name),
			rowCount: float64(meta.TableRowCount(name)),
		}}
		ti.heapPages = storage.EstimateHeapPages(int64(ti.rowCount), t.RowWidth())
		ti.scanCost = scanCost(ti.heapPages, ti.rowCount)
		ti.resolveColumns(stmt)
		ti.scorePreds(stmt)
		ti.predColOp = colOpClasses(ti.preds)
		ti.predStr = textClasses(ti.preds, ti.predColOp)
		// Relevant-index prefilter: only a predicate with an equality or
		// range operator can start a seek on an index whose leading
		// column it restricts. (Union arms are exempt from the filter —
		// unionPath consults all the table's indexes — so disjunct
		// columns need not extend the lead set.)
		for _, sp := range ti.preds {
			if sp.p.Op.IsEquality() || sp.p.Op.IsRange() {
				ti.seekLead.add(sp.col)
			}
		}
		ti.seekLeadJoin = ti.seekLead.clone()
		pq.tables = append(pq.tables, ti)
	}

	// Join metadata: resolved table positions and columns, and the
	// symmetric selectivity, computed once per join predicate.
	for _, j := range stmt.Joins {
		pj := preparedJoin{
			left:     tablePos(pq.tables, j.Left.Table),
			right:    tablePos(pq.tables, j.Right.Table),
			leftCol:  noColumn,
			rightCol: noColumn,
		}
		if pj.left >= 0 {
			pj.leftCol = pq.tables[pj.left].ordinal(j.Left.Column)
		}
		if pj.right >= 0 {
			pj.rightCol = pq.tables[pj.right].ordinal(j.Right.Column)
		}
		if pj.left >= 0 && pj.right >= 0 {
			lt, rt := pq.tables[pj.left], pq.tables[pj.right]
			pj.sel = joinSelectivity(lt.ts, j.Left.Column, lt.rowCount, rt.ts, j.Right.Column, rt.rowCount)
		}
		pq.joins = append(pq.joins, pj)
	}

	// Synthetic join probes. Join columns also extend the seekable-lead
	// set: an index useless for base predicates can still serve a
	// parameterized inner seek.
	for t, ti := range pq.tables {
		for k := range pq.joins {
			j, pj := &stmt.Joins[k], &pq.joins[k]
			if pj.left == t {
				ti.addProbe(j.Left, pj.leftCol)
			}
			if pj.right == t {
				ti.addProbe(j.Right, pj.rightCol)
			}
		}
	}

	for _, it := range stmt.Select {
		if it.Agg != sql.AggNone {
			pq.hasAggs = true
			break
		}
	}
	pq.groupSameTable = true
	for _, c := range stmt.GroupBy {
		if ti := pq.table(c.Table); ti != nil {
			pq.groupDistinct = append(pq.groupDistinct, distinctOf(ti.ts, c.Column, ti.rowCount))
		} else {
			pq.groupDistinct = append(pq.groupDistinct, 0)
		}
		if c.Table != pq.tables[0].name {
			pq.groupSameTable = false
		}
		pq.groupCols = appendDistinct(pq.groupCols, c.Column)
	}
	return pq, nil
}

// resolveColumns looks up, once per shape, the ordinals of the columns
// the statement names on the table: whereCols, and the set of those the
// query needs — the columns of the select list, the predicates, the
// joins, GROUP BY and ORDER BY.
func (sh *tableShape) resolveColumns(stmt *sql.SelectStmt) {
	slots := 0
	for i := range stmt.Where {
		p := &stmt.Where[i]
		if p.Col.Table != sh.name {
			continue
		}
		if p.Op == sql.OpOr {
			slots += len(p.Or)
		} else {
			slots++
		}
	}
	sh.whereCols = make([]int32, 0, slots)
	for i := range stmt.Where {
		p := &stmt.Where[i]
		if p.Col.Table != sh.name {
			continue
		}
		if p.Op != sql.OpOr {
			sh.whereCols = append(sh.whereCols, sh.ordinal(p.Col.Column))
			continue
		}
		for j := range p.Or {
			sh.whereCols = append(sh.whereCols, sh.ordinal(p.Or[j].Col.Column))
		}
	}
	for _, col := range sh.whereCols {
		sh.required.add(col)
	}
	add := func(c sql.ColumnRef) {
		if c.Table == sh.name && c.Column != "" {
			sh.required.add(sh.ordinal(c.Column))
		}
	}
	for _, it := range stmt.Select {
		if it.Agg != sql.AggCountStar {
			add(it.Col)
		}
	}
	for _, j := range stmt.Joins {
		add(j.Left)
		add(j.Right)
	}
	for _, c := range stmt.GroupBy {
		add(c)
	}
	for _, o := range stmt.OrderBy {
		add(o.Col)
	}
}

// addProbe adds join column side, of ordinal col, to the table's
// seekable leads for inner seeks and gives it a synthetic equality
// probe unless it has one.
func (sh *tableShape) addProbe(side sql.ColumnRef, col int32) {
	sh.seekLeadJoin.add(col)
	if hasSynth(sh.synth, col) {
		return
	}
	d := distinctOf(sh.ts, side.Column, sh.rowCount)
	sh.synth = append(sh.synth, scoredPred{
		p:   sql.Predicate{Col: side, Op: sql.OpEq, Val: value.NewNull()},
		sel: 1 / math.Max(d, 1),
		col: col,
	})
}

// bind returns the descriptor of stmt, a statement of this descriptor's
// shape (sql.SelectStmt.SameShape), at the cost of its constants alone:
// a copy of the descriptor — tables' shapes, joins, group metadata and
// statistics version, all shared — in which each table takes its own
// predicates, selectivities, filtered rows and same-text classes from
// stmt, through the routines PrepareQuery fills them with. The result
// is the descriptor PrepareQuery builds, field for field.
func (shape *PreparedQuery) bind(stmt *sql.SelectStmt) *PreparedQuery {
	pq := new(PreparedQuery)
	*pq = *shape
	pq.Stmt = stmt
	tis := make([]tableInfo, len(shape.tables))
	pq.tables = make([]*tableInfo, len(shape.tables))
	for i, sti := range shape.tables {
		ti := &tis[i]
		ti.tableShape = sti.tableShape
		ti.scorePreds(stmt)
		ti.predStr = textClasses(ti.preds, ti.predColOp)
		pq.tables[i] = ti
	}
	return pq
}

// table returns the descriptor's entry for the named table, nil when
// the statement does not read it. Statements read a handful of tables;
// a scan is the lookup.
func (pq *PreparedQuery) table(name string) *tableInfo {
	if i := tablePos(pq.tables, name); i >= 0 {
		return pq.tables[i]
	}
	return nil
}

// IndexRelevant reports whether an index on the given table with the
// given key columns could contribute any access path to this prepared
// query: a covering scan (the columns contain every required column),
// a seek (the leading column carries an equality/range predicate or a
// join column a parameterized inner seek can bind — intersections are
// built from these same seeks), or an index-union arm (the leading
// column carries one of the query's normalized disjuncts, which the
// prefilter exempts because unionPath consults the full
// configuration). An index failing every test yields no path at all,
// so adding or removing it can never change CostPrepared — the
// invariant template-level cost tables rely on to price a
// configuration by its per-table relevant subsets alone.
func (pq *PreparedQuery) IndexRelevant(table string, cols []string) bool {
	ti := pq.table(table)
	if ti == nil {
		return false
	}
	var buf [32]int32
	x := ti.keyOf(cols, buf[:0])
	return ti.relevant(&x)
}

// keyOf resolves key columns cols against the table, into buf, for the
// relevance test, which reads the columns alone: no width, no names.
func (sh *tableShape) keyOf(cols []string, buf []int32) indexInfo {
	var set colSet
	for _, c := range cols {
		i := sh.ordinal(c)
		buf = append(buf, i)
		set.add(i)
	}
	return indexInfo{table: sh.table, cols: buf, set: set}
}

// relevant is IndexRelevant for an index on the table.
func (ti *tableInfo) relevant(x *indexInfo) bool {
	if len(x.cols) == 0 {
		return false
	}
	if indexRelevant(x, &ti.seekLeadJoin, &ti.required) {
		return true
	}
	for _, op := range ti.orPreds {
		for _, d := range op.disjuncts {
			if d.col == x.cols[0] {
				return true
			}
		}
	}
	return false
}

// checkFresh errors when the statistics the descriptor was prepared
// against have been rebuilt since (Analyze ran). Selectivities,
// cardinalities and page estimates are all baked in at prepare time,
// so a stale descriptor must be re-prepared, not silently reused.
func (pq *PreparedQuery) checkFresh() error {
	if pq.versioner != nil && pq.versioner.StatsVersion() != pq.statsVersion {
		return fmt.Errorf("optimizer: prepared query is stale: statistics were rebuilt after PrepareWorkload (re-prepare after Analyze)")
	}
	return nil
}

// colOpClasses assigns each predicate the smallest position with the
// same (column, operator) — the intersection planner's "arms share a
// predicate" class. It is a property of the statement's shape.
func colOpClasses(preds []scoredPred) []int32 {
	if len(preds) == 0 {
		return nil
	}
	colOp := make([]int32, len(preds))
	for i := range preds {
		colOp[i] = int32(i)
		for j := 0; j < i; j++ {
			if preds[j].p.Col.Column == preds[i].p.Col.Column && preds[j].p.Op == preds[i].p.Op {
				colOp[i] = colOp[j]
				break
			}
		}
	}
	return colOp
}

// textClasses assigns each predicate the smallest position with the
// same rendered text — the "an arm consumed this predicate" class.
// Equal text means equal column and operator, so only predicates that
// share a colOp class are rendered and compared; where every such class
// is one predicate, which is nearly always, the classes are colOp's and
// its slice is returned as it stands.
func textClasses(preds []scoredPred, colOp []int32) []int32 {
	str, shared := colOp, true
	for i := range preds {
		if int(colOp[i]) == i {
			continue
		}
		if shared {
			str, shared = make([]int32, len(preds)), false
			for k := range str {
				str[k] = int32(k)
			}
		}
		text := preds[i].p.String()
		for j := 0; j < i; j++ {
			if colOp[j] == colOp[i] && preds[j].p.String() == text {
				str[i] = str[j]
				break
			}
		}
	}
	return str
}

// appendDistinct appends v unless s holds it; the lists it keeps are a
// handful of column names, where a scan beats a set.
func appendDistinct(s []string, v string) []string {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

func hasSynth(synth []scoredPred, col int32) bool {
	for i := range synth {
		if synth[i].col == col {
			return true
		}
	}
	return false
}

func tablePos(tables []*tableInfo, name string) int {
	for i, ti := range tables {
		if ti.name == name {
			return i
		}
	}
	return -1
}
