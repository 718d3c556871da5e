package optimizer

import (
	"slices"

	"indexmerge/internal/catalog"
	"indexmerge/internal/sql"
	"indexmerge/internal/stats"
	"indexmerge/internal/storage"
)

// tableInfo is everything planning derives from the statement and the
// statistics about one referenced table, computed once by PrepareQuery
// and read-only afterwards. preds, orPreds, filteredRows and predStr
// depend on the statement's constants; the rest is its shape, which
// every descriptor bound to that shape shares.
type tableInfo struct {
	*tableShape
	preds        []scoredPred // restrictions with precomputed selectivities
	orPreds      []orPred     // disjunctive members of preds, normalized
	filteredRows float64      // rowCount × clamped product of the predicate selectivities, in predicate order
	// predStr assigns each predicate the smallest position with the same
	// rendered text, the intersection planner's "an arm consumed this
	// predicate" class.
	predStr []int32
}

// tableShape is what the planner knows of a table from the statement's
// shape and the statistics alone. Columns it compares with an index's
// are ordinals of table's columns (noColumn for a name the table lacks),
// never names.
type tableShape struct {
	name      string
	table     *catalog.Table
	ts        *stats.TableStats
	rowCount  float64
	heapPages int64
	scanCost  float64 // full heap scan

	required colSet // columns the query needs from this table
	// whereCols holds the column of each predicate on the table, in
	// statement order — for a disjunction, the column of each of its
	// members instead — from which scorePreds fills scoredPred.col, so
	// that binding a member of the shape looks nothing up.
	whereCols []int32
	// seekLead holds the columns carrying a seekable (equality or range)
	// predicate; seekLeadJoin additionally the table's join columns,
	// which parameterized inner seeks can bind. They feed the
	// relevant-index prefilter.
	seekLead     colSet
	seekLeadJoin colSet
	// predColOp assigns each predicate the smallest position with the
	// same (column, operator), the intersection planner's "arms share a
	// predicate" class.
	predColOp []int32
	// synth holds the synthetic join-column equality probes (selectivity
	// from column density, the average outer binding) that inner seeks
	// of index nested-loop joins match, in join-predicate order.
	synth []scoredPred
}

// noColumn is the ordinal of a column name a table does not have, and
// the column of a disjunction, which restricts its members' columns
// rather than one of its own. It equals no ordinal of a column.
const noColumn int32 = -1

// ordinal returns the position of the named column in the table.
func (sh *tableShape) ordinal(name string) int32 { return int32(sh.table.ColumnIndex(name)) }

// scoredPred pairs a predicate with its estimated selectivity and the
// ordinal of its column (noColumn for a disjunction).
type scoredPred struct {
	p   sql.Predicate
	sel float64
	col int32
}

// orPred is one disjunctive predicate (OR or IN) in its normalized
// form: the position of the parent in tableInfo.preds plus the scored
// member predicates Disjuncts() expands to — the inputs the union
// access paths consume.
type orPred struct {
	pos       int
	disjuncts []scoredPred
}

// scorePreds fills what the statement's constants decide about the
// table: its restrictions with their selectivities, the normalized
// disjunct lists of the disjunctive ones (sql.Predicate.Disjuncts: an
// IN list is one equality per value, also inside an OR) and the
// filtered row count. Everything is counted first and allocated once —
// all disjuncts of the table share one array — and a disjunction is
// scored from its disjuncts' selectivities, the very probes
// disjunctionSelectivity would repeat.
func (ti *tableInfo) scorePreds(stmt *sql.SelectStmt) {
	nPreds, nOr, nDisj := 0, 0, 0
	for i := range stmt.Where {
		p := &stmt.Where[i]
		if p.Col.Table != ti.name {
			continue
		}
		nPreds++
		switch p.Op {
		case sql.OpIn:
			nOr++
			nDisj += len(p.Vals)
		case sql.OpOr:
			nOr++
			for j := range p.Or {
				if p.Or[j].Op == sql.OpIn {
					nDisj += len(p.Or[j].Vals)
				} else {
					nDisj++
				}
			}
		}
	}
	ti.preds, ti.orPreds = nil, nil
	if nPreds > 0 {
		ti.preds = make([]scoredPred, 0, nPreds)
	}
	var disj []scoredPred
	if nOr > 0 {
		ti.orPreds = make([]orPred, 0, nOr)
		disj = make([]scoredPred, 0, nDisj)
	}
	allSel := 1.0
	cols := ti.whereCols
	for i := range stmt.Where {
		p := &stmt.Where[i]
		if p.Col.Table != ti.name {
			continue
		}
		var sel float64
		col := noColumn
		from := len(disj)
		switch p.Op {
		case sql.OpIn:
			col, cols = cols[0], cols[1:]
			disj, sel = appendInList(disj, ti.ts, p, col)
		case sql.OpOr:
			// Disjuncts may overlap; assuming independence,
			// inclusion–exclusion gives sel(a OR b) = 1 - (1-sel(a))(1-sel(b)),
			// generalized over all of them.
			miss := 1.0
			for j := range p.Or {
				d := &p.Or[j]
				dcol := cols[0]
				cols = cols[1:]
				var dsel float64
				if d.Op == sql.OpIn {
					disj, dsel = appendInList(disj, ti.ts, d, dcol)
				} else {
					dsel = predicateSelectivity(ti.ts, d)
					disj = append(disj, scoredPred{p: *d, sel: dsel, col: dcol})
				}
				miss *= 1 - clampSel(dsel)
			}
			sel = clampSel(1 - miss)
		default:
			col, cols = cols[0], cols[1:]
			sel = predicateSelectivity(ti.ts, p)
		}
		if p.Op == sql.OpIn || p.Op == sql.OpOr {
			ti.orPreds = append(ti.orPreds, orPred{pos: len(ti.preds), disjuncts: disj[from:len(disj):len(disj)]})
		}
		ti.preds = append(ti.preds, scoredPred{p: *p, sel: sel, col: col})
		allSel *= sel
	}
	ti.filteredRows = ti.rowCount * clampSel(allSel)
}

// appendInList appends one scored equality on column col per IN-list
// value and returns the list's selectivity: members are disjoint point
// restrictions on one column, so their selectivities add.
func appendInList(disj []scoredPred, ts *stats.TableStats, p *sql.Predicate, col int32) ([]scoredPred, float64) {
	sum := 0.0
	for _, v := range p.Vals {
		d := scoredPred{p: sql.Predicate{Col: p.Col, Op: sql.OpEq, Val: v}, col: col}
		d.sel = predicateSelectivity(ts, &d.p)
		sum += d.sel
		disj = append(disj, d)
	}
	return disj, clampSel(sum)
}

// indexSize estimates the leaf pages and height of the index on the
// table: once for the table's row count, then from x.
func (ti *tableInfo) indexSize(x *indexInfo) (pages int64, height int) {
	if rows := int64(ti.rowCount); !x.sized || x.sizedRows != rows {
		x.pages, x.height = storage.EstimateIndexPages(rows, x.width), storage.EstimateIndexHeight(rows, x.width)
		x.sized, x.sizedRows = true, rows
	}
	return x.pages, x.height
}

// seekCost prices a seek touching matchRows entries of an index of the
// given size; covering also prices the RID-only probes of intersection
// and union arms.
func (ti *tableInfo) seekCost(pages int64, height int, matchRows float64, covering bool) float64 {
	return seekCost(height, pages, ti.rowCount, matchRows, covering, ti.heapPages)
}

type pathKind uint8

const (
	heapScan pathKind = iota
	indexScan
	indexSeek
	indexIntersect
	indexUnion
)

// accessPath is one way to produce a table's filtered rows, as the
// enumeration records it: cost, output rows, the order it delivers,
// and the choice — which indexes, used how — from which the build
// step makes plan nodes should the path win.
type accessPath struct {
	cost, rows float64
	kind       pathKind
	// idx is the configuration position of the index scanned or sought
	// (the first arm of an intersection, whose second arm is idx2); for
	// a union, the position of its disjunction in tableInfo.orPreds.
	idx, idx2 int32
	// ordered aliases the index's column list when the output is sorted
	// by it (scans and seeks; nil otherwise), of which the leading nEq
	// columns are bound by equality and so constant in the output.
	ordered []string
	nEq     int
}

// seekMatch is what matching a predicate list to an index's column
// order yields. The equality-bound columns are always a prefix of the
// index and the consumed predicates a list of positions, so no set in
// it has a width limit.
type seekMatch struct {
	// consumed lists predicate positions: the nEq equality predicates in
	// index-column order, then the range predicate if there is one.
	consumed []int32
	nEq      int
	sel      float64 // clamped product of the consumed selectivities, in that order
}

// uses reports whether the seek consumed predicate pi.
func (m *seekMatch) uses(pi int) bool {
	for _, c := range m.consumed {
		if int(c) == pi {
			return true
		}
	}
	return false
}

// residualSel is the clamped product, in predicate order, of the
// selectivities the seek left to be filtered after the fetch.
func (m *seekMatch) residualSel(preds []scoredPred) float64 {
	sel := 1.0
	for pi := range preds {
		if !m.uses(pi) {
			sel *= preds[pi].sel
		}
	}
	return clampSel(sel)
}

// matchSeek matches predicates against the index's column order:
// equality predicates bind leading columns; the first column without
// one may take one range predicate; everything else is residual. The
// consumed positions are carved from the planner's backing store.
func matchSeek(idxCols []int32, preds []scoredPred, p *planner) seekMatch {
	buf := p.consumed // appended to locally, stored back once
	m := seekMatch{consumed: buf[len(buf):], sel: 1.0}
	for _, col := range idxCols {
		foundEq := false
		for i := range preds {
			if preds[i].col == col && preds[i].p.Op.IsEquality() && !m.uses(i) {
				buf = append(buf, int32(i))
				m.consumed = buf[len(p.consumed):]
				m.sel *= preds[i].sel
				m.nEq++
				foundEq = true
				break
			}
		}
		if foundEq {
			continue
		}
		// No equality on this column: try one range predicate, then stop.
		for i := range preds {
			if preds[i].col == col && preds[i].p.Op.IsRange() && !m.uses(i) {
				buf = append(buf, int32(i))
				m.consumed = buf[len(p.consumed):]
				m.sel *= preds[i].sel
				break
			}
		}
		break
	}
	p.consumed = buf
	m.sel = clampSel(m.sel)
	return m
}

// enumeratePaths lists every access path worth considering for table
// t under the planner's configuration: the heap scan, a covering scan
// and a seek (covering or with RID lookups) per index, pairwise
// intersections of the most selective seeks, and a union per
// disjunction. With the prefilter on, indexes that can contribute
// neither a covering scan nor a seek are skipped before costing; the
// skip never changes the chosen plan because such indexes yield no
// path at all (TestPreparedMatchesOptimize and TestPlanGolden plan
// with it off as well). The result is valid until the next call.
func (p *planner) enumeratePaths(t int) []accessPath {
	ti := p.pq.tables[t]
	paths := append(p.paths[:0], accessPath{kind: heapScan, cost: ti.scanCost, rows: ti.filteredRows})
	arms := p.arms[:0]
	p.consumed = p.consumed[:0]

	for _, i := range p.indexesOn(t) {
		x := p.index(i, ti)
		if p.filter && !indexRelevant(x, &ti.seekLead, &ti.required) {
			continue
		}
		pages, height := ti.indexSize(x)
		covering := coversRequired(x, &ti.required)

		// Covering full scan: a narrow vertical slice of the table.
		if covering {
			paths = append(paths, accessPath{
				kind: indexScan, idx: i,
				cost:    indexScanCost(pages, ti.rowCount),
				rows:    ti.filteredRows,
				ordered: p.cfg[i].Columns,
			})
		}

		// Seek: equality prefix plus at most one range predicate.
		m := matchSeek(x.cols, ti.preds, p)
		if len(m.consumed) == 0 {
			continue
		}
		matchRows := ti.rowCount * m.sel
		paths = append(paths, accessPath{
			kind: indexSeek, idx: i,
			cost:    ti.seekCost(pages, height, matchRows, covering),
			rows:    matchRows * m.residualSel(ti.preds),
			ordered: p.cfg[i].Columns,
			nEq:     m.nEq,
		})
		arms = append(arms, intersectArm{
			idx:       i,
			lead:      x.cols[0],
			consumed:  m.consumed,
			sel:       m.sel,
			match:     matchRows,
			probeCost: ti.seekCost(pages, height, matchRows, true),
		})
	}

	// Index intersection: AND two seeks through their RID sets (§3.5.2's
	// "innovative technique"). Only worthwhile with multiple seekable
	// predicates on different leading columns.
	if !p.noInter && len(arms) >= 2 {
		paths = p.appendIntersections(ti, arms, paths)
	}

	// Index union: OR several seeks through their RID sets — the dual
	// technique for disjunctions, one arm per normalized disjunct. Arm
	// indexes are chosen among all the table's: a disjunct column never
	// enters seekLead, so the prefilter must not apply to them.
	if !p.noUnion {
		for oi := range ti.orPreds {
			if cost, rows, ok := p.unionPath(t, &ti.orPreds[oi]); ok {
				paths = append(paths, accessPath{kind: indexUnion, idx: int32(oi), cost: cost, rows: rows})
			}
		}
	}
	p.paths, p.arms = paths, arms
	return paths
}

// indexRelevant reports whether an index can contribute any access
// path: it must either cover the required columns (covering scan) or
// have a seekable predicate on its leading column (index seek —
// matchSeek stops at the first index column without an equality match,
// so nothing else can start a seek). Indexes failing both tests are
// skipped before costing; they could never appear in a plan.
func indexRelevant(x *indexInfo, seekLeads, required *colSet) bool {
	if len(x.cols) == 0 {
		return false
	}
	return seekLeads.has(x.cols[0]) || coversRequired(x, required)
}

// coversRequired is IndexDef.CoversColumns on ordinals: every required
// column must appear among the index columns.
func coversRequired(x *indexInfo, required *colSet) bool {
	return required.subsetOf(&x.set)
}

// ridFetchCost prices fetching the heap rows a RID-set operation
// (intersection or union) leaves: at least one row is priced, and the
// random reads are capped at the buffer-pool bound like every fetch.
func (ti *tableInfo) ridFetchCost(rows float64) float64 {
	if rows < 1 {
		rows = 1
	}
	lookup := rows * RandPageCost
	if lim := 2 * float64(ti.heapPages) * RandPageCost; lookup > lim {
		lookup = lim
	}
	return lookup + rows*CPURowCost
}

// orderSatisfied reports whether output sorted by the index columns
// `ordered` satisfies the ORDER BY keys for a single-table query: each
// ASC key must match the next index column, where the nEq leading
// columns bound by equality may be skipped (they are constant in the
// output).
func orderSatisfied(order []sql.OrderItem, ordered []string, nEq int, table string) bool {
	if len(order) == 0 {
		return true
	}
	pos := 0
	for _, key := range order {
		if key.Desc || key.Col.Table != table {
			return false
		}
		matched := false
		for pos < len(ordered) {
			if ordered[pos] == key.Col.Column {
				matched = true
				pos++
				break
			}
			if pos >= nEq {
				return false
			}
			pos++ // constant column, transparent to ordering
		}
		if !matched {
			return false
		}
	}
	return true
}

// groupSatisfied reports whether output sorted by the index columns
// `ordered` arrives clustered by the GROUP BY columns (any order),
// enabling streaming aggregation: the leading index columns that are
// not bound by equality must be exactly the group-by column set.
// groupCols must be distinct and on the table the path reads.
func groupSatisfied(groupCols, ordered []string, nEq int) bool {
	if len(groupCols) == 0 {
		return false
	}
	need := len(groupCols)
	for pos, col := range ordered {
		if need == 0 {
			return true
		}
		// A group column counts once, at its first appearance.
		if slices.Contains(groupCols, col) && !slices.Contains(ordered[:pos], col) {
			need--
			continue
		}
		if pos >= nEq {
			return false
		}
	}
	return need == 0
}
