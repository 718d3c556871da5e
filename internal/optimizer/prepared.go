package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"indexmerge/internal/catalog"
	"indexmerge/internal/faults"
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
// the per-configuration fast paths (OptimizePrepared, CostPrepared)
// never re-walk the AST or re-probe histograms.
//
// A PreparedQuery is read-only after PrepareQuery returns and safe for
// concurrent use by any number of goroutines.
type PreparedQuery struct {
	// Stmt is the resolved statement the descriptor was built from.
	Stmt *sql.SelectStmt

	tables []*tableInfo          // FROM order, with prefilter metadata
	byName map[string]*tableInfo // built once at prepare, shared by every call
	cost   []costTable           // cost-only planner extras, aligned with tables
	joins  []preparedJoin        // Stmt.Joins with resolved table positions

	groupDistinct  []float64 // per GROUP BY column: distinctOf (0 = unknown table, skipped)
	groupCols      []string  // distinct GROUP BY column names, first-occurrence order
	groupSameTable bool      // every GROUP BY column is on tables[0]
	hasAggs        bool

	// simple marks queries whose predicate lists (including synthetic
	// join probes) fit CostPrepared's bitmask fast path; the rest fall
	// back to full prepared planning.
	simple bool

	versioner    StatsVersioner
	statsVersion uint64
}

// costTable carries the query-invariant numbers the allocation-free
// cost-only planner needs for one referenced table.
type costTable struct {
	ti           *tableInfo
	allSel       float64 // product of predicate selectivities in predicate order (unclamped)
	filteredRows float64 // rowCount × clampSel(allSel)
	scanCost     float64 // full heap scan cost
	// predColOp/predStr assign each predicate an equivalence class —
	// by (column, operator) and by rendered text respectively — so the
	// intersection planner's "arms share a predicate" and "predicate
	// consumed by an arm" set tests become bitmask operations.
	predColOp []uint8
	predStr   []uint8
	// synth holds the synthetic join-column equality probes (selectivity
	// from column density) used by parameterized inner seeks, in the
	// statement's join-predicate order.
	synth []scoredPred
}

// preparedJoin is one join predicate with its endpoints resolved to
// table positions and its selectivity precomputed. joinSelectivity is
// symmetric in its arguments, so one value serves both orientations.
type preparedJoin struct {
	left, right       int // positions in tables; -1 when the table is not in FROM
	leftCol, rightCol string
	sel               float64
}

// connects reports whether the join predicate links table t to the
// joined subset rest — the prepared mirror of connectingPreds.
func (j *preparedJoin) connects(rest, t int) bool {
	if j.left == t && j.right >= 0 && rest&(1<<uint(j.right)) != 0 {
		return true
	}
	return j.right == t && j.left >= 0 && rest&(1<<uint(j.left)) != 0
}

// myCol returns the join column on table t's side.
func (j *preparedJoin) myCol(t int) string {
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

	byTableOnce sync.Once
	byTable     map[string][]int // query positions per referenced table
}

// Len returns the number of prepared queries.
func (pw *PreparedWorkload) Len() int { return len(pw.Queries) }

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
// definitions again and again holds a Relevance.
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
	for _, i := range pw.byTable[table] {
		if pw.Queries[i].IndexRelevant(table, cols) {
			set.Add(i)
		}
	}
	return set
}

// Relevance memoizes RelevantQueries by definition key for as long as
// its holder lives — one search for a constraint checker, one
// registration for a compressed workload. Safe for concurrent use.
type Relevance struct {
	pw   *PreparedWorkload
	mu   sync.RWMutex
	sets map[string]QuerySet
}

// NewRelevance returns an empty memo over the workload.
func (pw *PreparedWorkload) NewRelevance() *Relevance {
	return &Relevance{pw: pw, sets: make(map[string]QuerySet)}
}

// Queries returns RelevantQueries for the definition, whose Key() is
// key (the caller has it at hand; building it anew would allocate).
func (r *Relevance) Queries(key string, def catalog.IndexDef) QuerySet {
	r.mu.RLock()
	set, ok := r.sets[key]
	r.mu.RUnlock()
	if !ok {
		set = r.pw.RelevantQueries(def.Table, def.Columns)
		r.mu.Lock()
		r.sets[key] = set
		r.mu.Unlock()
	}
	return set
}

// PrepareWorkload resolves every workload query into its prepared
// descriptor against the given metadata. The returned workload is
// immutable and safe for concurrent use.
func PrepareWorkload(w *sql.Workload, meta Meta) (*PreparedWorkload, error) {
	pw := &PreparedWorkload{W: w, Queries: make([]*PreparedQuery, len(w.Queries))}
	for i, q := range w.Queries {
		pq, err := PrepareQuery(q.Stmt, meta)
		if err != nil {
			return nil, fmt.Errorf("optimizer: prepare query %d: %w", i+1, err)
		}
		pw.Queries[i] = pq
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
// statement: the same derivations newContext performs per Optimize
// call, plus the precomputed products, predicate equivalence classes,
// join metadata and relevant-index prefilter sets the fast paths need.
func PrepareQuery(stmt *sql.SelectStmt, meta Meta) (*PreparedQuery, error) {
	pq := &PreparedQuery{Stmt: stmt, simple: true}
	if v, ok := meta.(StatsVersioner); ok {
		pq.versioner = v
		pq.statsVersion = v.StatsVersion()
	}
	sc := meta.Schema()
	names := stmt.TablesReferenced()
	pq.byName = make(map[string]*tableInfo, len(names))
	for _, name := range names {
		t, ok := sc.Table(name)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", name)
		}
		ti := &tableInfo{
			name:     name,
			table:    t,
			ts:       meta.TableStats(name),
			rowCount: float64(meta.TableRowCount(name)),
			required: stmt.ColumnsOf(name),
			filtered: true,
		}
		ti.heapPages = storage.EstimateHeapPages(int64(ti.rowCount), t.RowWidth())
		ti.initPreds(stmt)
		// Relevant-index prefilter: only a predicate with an equality or
		// range operator can start a seek on an index whose leading
		// column it restricts. (Union arms are exempt from the filter —
		// unionPath consults the full configuration — so disjunct
		// columns need not extend the lead set.)
		for _, sp := range ti.preds {
			if sp.p.Op.IsEquality() || sp.p.Op.IsRange() {
				ti.seekLead = appendDistinct(ti.seekLead, sp.p.Col.Column)
			}
		}
		ti.seekLeadJoin = ti.seekLead
		pq.tables = append(pq.tables, ti)
		pq.byName[name] = ti
	}

	// Join metadata: resolved table positions and the symmetric
	// selectivity, computed once per join predicate.
	for _, j := range stmt.Joins {
		pj := preparedJoin{
			left:     tablePos(pq.tables, j.Left.Table),
			right:    tablePos(pq.tables, j.Right.Table),
			leftCol:  j.Left.Column,
			rightCol: j.Right.Column,
		}
		if pj.left >= 0 && pj.right >= 0 {
			lt, rt := pq.tables[pj.left], pq.tables[pj.right]
			pj.sel = joinSelectivity(lt.ts, j.Left.Column, lt.rowCount, rt.ts, j.Right.Column, rt.rowCount)
		}
		pq.joins = append(pq.joins, pj)
	}

	// Per-table cost extras and synthetic join probes. Join columns also
	// extend the seekable-lead set: an index useless for base predicates
	// can still serve a parameterized inner seek.
	for _, ti := range pq.tables {
		ct := costTable{ti: ti, allSel: 1.0}
		for _, sp := range ti.preds {
			ct.allSel *= sp.sel
		}
		ct.filteredRows = ti.rowCount * clampSel(ct.allSel)
		ct.scanCost = scanCost(ti.heapPages, ti.rowCount)
		ct.predColOp, ct.predStr = predClasses(ti.preds)
		for _, j := range stmt.Joins {
			for _, side := range [2]sql.ColumnRef{j.Left, j.Right} {
				if side.Table != ti.name {
					continue
				}
				ti.seekLeadJoin = appendDistinct(ti.seekLeadJoin, side.Column)
				if hasSynth(ct.synth, side.Column) {
					continue
				}
				d := distinctOf(ti.ts, side.Column, ti.rowCount)
				ct.synth = append(ct.synth, scoredPred{
					p:   sql.Predicate{Col: side, Op: sql.OpEq, Val: value.NewNull()},
					sel: 1 / math.Max(d, 1),
				})
			}
		}
		if len(ti.preds)+len(ct.synth) > 64 {
			pq.simple = false
		}
		pq.cost = append(pq.cost, ct)
	}

	for _, it := range stmt.Select {
		if it.Agg != sql.AggNone {
			pq.hasAggs = true
			break
		}
	}
	pq.groupSameTable = true
	for _, c := range stmt.GroupBy {
		if ti := pq.byName[c.Table]; ti != nil {
			pq.groupDistinct = append(pq.groupDistinct, distinctOf(ti.ts, c.Column, ti.rowCount))
		} else {
			pq.groupDistinct = append(pq.groupDistinct, 0)
		}
		if c.Table != pq.tables[0].name {
			pq.groupSameTable = false
		}
		pq.groupCols = appendDistinct(pq.groupCols, c.Column)
	}
	if len(pq.groupCols) > 64 {
		pq.simple = false
	}
	return pq, nil
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
	ti, ok := pq.byName[table]
	if !ok || len(cols) == 0 {
		return false
	}
	if indexRelevant(cols, ti.seekLeadJoin, ti.required) {
		return true
	}
	for _, op := range ti.orPreds {
		for _, d := range op.disjuncts {
			if d.p.Col.Column == cols[0] {
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

// OptimizePrepared is Optimize on the prepared fast path: the full
// node-building planner over the precomputed descriptor. Plans (cost,
// shape, index uses) are byte-identical to Optimize(pq.Stmt, cfg).
func (o *Optimizer) OptimizePrepared(pq *PreparedQuery, cfg Configuration) (*Plan, error) {
	o.invocations.Add(1)
	o.preparedCalls.Add(1)
	if err := faults.Inject(faults.OptimizerCost); err != nil {
		return nil, err
	}
	if err := pq.checkFresh(); err != nil {
		return nil, err
	}
	return o.planPrepared(pq, cfg)
}

// WorkloadCostPrepared computes Cost(W, C) over a prepared workload via
// the cost-only fast path; totals are bit-identical to WorkloadCost.
func (o *Optimizer) WorkloadCostPrepared(pw *PreparedWorkload, cfg Configuration) (float64, error) {
	total := 0.0
	for i, q := range pw.W.Queries {
		c, err := o.CostPrepared(pw.Queries[i], cfg)
		if err != nil {
			return 0, err
		}
		total += c * q.Freq
	}
	return total, nil
}

// ctxPool recycles planning contexts for the prepared node path; the
// descriptor supplies tables and byName, so a prepared Optimize call
// allocates no per-call planning state beyond the plan itself.
var ctxPool = sync.Pool{New: func() any { return new(optContext) }}

// planPrepared runs the shared node-building planner over the
// descriptor's immutable per-table state.
func (o *Optimizer) planPrepared(pq *PreparedQuery, cfg Configuration) (*Plan, error) {
	ctx := ctxPool.Get().(*optContext)
	ctx.opt, ctx.stmt, ctx.cfg = o, pq.Stmt, cfg
	ctx.tables, ctx.byName = pq.tables, pq.byName
	ctx.noIntersect = o.DisableIndexIntersection
	ctx.noUnion = o.DisableIndexUnion
	ctx.filter = !o.DisableRelevantIndexFilter
	var root Node
	var err error
	if len(ctx.tables) == 1 {
		root, err = ctx.planSingleTable()
	} else {
		root, err = ctx.planJoin()
	}
	ctx.release()
	if err != nil {
		return nil, err
	}
	return &Plan{Root: root, Cost: root.Cost(), Uses: collectUses(root)}, nil
}

// release clears the context (dropping references into the descriptor
// and the configuration) and returns it to the pool.
func (ctx *optContext) release() {
	for i := range ctx.basePaths {
		ctx.basePaths[i] = accessPath{}
	}
	base := ctx.basePaths[:0]
	*ctx = optContext{basePaths: base}
	ctxPool.Put(ctx)
}

// predClasses computes the per-predicate equivalence classes used by
// the cost-only intersection planner: class representatives are the
// smallest predicate position with the same (column, operator) — and,
// separately, the same rendered text.
func predClasses(preds []scoredPred) (colOp, str []uint8) {
	if len(preds) == 0 {
		return nil, nil
	}
	colOp = make([]uint8, len(preds))
	str = make([]uint8, len(preds))
	strs := make([]string, len(preds))
	for i := range preds {
		strs[i] = preds[i].p.String()
		colOp[i] = uint8(i)
		str[i] = uint8(i)
		for j := 0; j < i; j++ {
			if preds[j].p.Col.Column == preds[i].p.Col.Column && preds[j].p.Op == preds[i].p.Op {
				colOp[i] = colOp[j]
				break
			}
		}
		for j := 0; j < i; j++ {
			if strs[j] == strs[i] {
				str[i] = str[j]
				break
			}
		}
	}
	return colOp, str
}

func appendDistinct(s []string, v string) []string {
	for _, c := range s {
		if c == v {
			return s
		}
	}
	return append(s, v)
}

func hasSynth(synth []scoredPred, col string) bool {
	for i := range synth {
		if synth[i].p.Col.Column == col {
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
