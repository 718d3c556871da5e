package optimizer

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/sql"
	"indexmerge/internal/stats"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
	"indexmerge/internal/workload"
)

// referenceInitPreds is initPreds as it stood at the parent of PR 24,
// verbatim, with the selectivity routines it called: predicates copied
// out by PredicatesOn, disjuncts by Disjuncts, a disjunction scored by
// probing its disjuncts a second time. scorePreds is held to it.
func referenceInitPreds(ti *tableInfo, stmt *sql.SelectStmt) {
	for _, p := range stmt.PredicatesOn(ti.name) {
		if ds := p.Disjuncts(); ds != nil {
			op := orPred{pos: len(ti.preds)}
			for _, d := range ds {
				op.disjuncts = append(op.disjuncts, scoredPred{p: d, sel: referenceSelectivity(ti.ts, d)})
			}
			ti.orPreds = append(ti.orPreds, op)
		}
		ti.preds = append(ti.preds, scoredPred{p: p, sel: referenceSelectivity(ti.ts, p)})
	}
	allSel := 1.0
	for _, sp := range ti.preds {
		allSel *= sp.sel
	}
	ti.filteredRows = ti.rowCount * clampSel(allSel)
}

func referenceSelectivity(ts *stats.TableStats, p sql.Predicate) float64 {
	switch p.Op {
	case sql.OpIn:
		sum := 0.0
		for _, d := range p.Disjuncts() {
			sum += referenceSelectivity(ts, d)
		}
		return clampSel(sum)
	case sql.OpOr:
		miss := 1.0
		for _, d := range p.Or {
			miss *= 1 - clampSel(referenceSelectivity(ts, d))
		}
		return clampSel(1 - miss)
	}
	return predicateSelectivity(ts, &p)
}

// TestScorePredsMatchReference compares, on a log of 60 Synthetic2
// shapes with OR and IN repeated under fresh constants, what scorePreds
// fills for every table of every statement with what the parent's
// routine filled: the same predicates and disjuncts, selectivities and
// filtered rows by their bits.
func TestScorePredsMatchReference(t *testing.T) {
	db, err := datagen.BuildNamed("synthetic2", 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	log, err := workload.Generate(db, workload.Options{
		Class: workload.Complex, Disjunctions: true, Queries: 60, Duplication: 600, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []scoredPred) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !reflect.DeepEqual(a[i].p, b[i].p) || math.Float64bits(a[i].sel) != math.Float64bits(b[i].sel) {
				return false
			}
		}
		return true
	}
	disjunctive := 0
	for qi, q := range log.Queries {
		pq, err := PrepareQuery(q.Stmt, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, ti := range pq.tables {
			want := &tableInfo{tableShape: &tableShape{name: ti.name, ts: ti.ts, rowCount: ti.rowCount}}
			referenceInitPreds(want, q.Stmt)
			ok := same(ti.preds, want.preds) && len(ti.orPreds) == len(want.orPreds) &&
				math.Float64bits(ti.filteredRows) == math.Float64bits(want.filteredRows)
			for oi := 0; ok && oi < len(want.orPreds); oi++ {
				ok = ti.orPreds[oi].pos == want.orPreds[oi].pos && same(ti.orPreds[oi].disjuncts, want.orPreds[oi].disjuncts)
				disjunctive++
			}
			if !ok {
				t.Fatalf("q%d %s, table %s:\n got  %+v %+v %v\n want %+v %+v %v", qi+1, q.Stmt, ti.name,
					ti.preds, ti.orPreds, ti.filteredRows, want.preds, want.orPreds, want.filteredRows)
			}
		}
	}
	if disjunctive < 100 {
		t.Fatalf("only %d disjunctive predicates in the log", disjunctive)
	}
}

// referenceClasses is predClasses as it stood at the parent of PR 24,
// verbatim: every predicate rendered, classes by (column, operator) and
// by text. colOpClasses and textClasses are held to it.
func referenceClasses(preds []scoredPred) (colOp, str []int32) {
	if len(preds) == 0 {
		return nil, nil
	}
	colOp = make([]int32, len(preds))
	str = make([]int32, len(preds))
	strs := make([]string, len(preds))
	for i := range preds {
		strs[i] = preds[i].p.String()
		colOp[i] = int32(i)
		str[i] = int32(i)
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

// TestClassesMatchReference draws predicate lists dense in repeats —
// two columns, few operators, constants that render alike across kinds
// (5 and 5.0), IN lists and disjunctions — and compares the classes.
func TestClassesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	consts := []value.Value{value.NewInt(5), value.NewFloat(5), value.NewInt(6), value.NewString("5"), value.NewDate(5)}
	ops := []sql.CompareOp{sql.OpEq, sql.OpLt, sql.OpBetween, sql.OpIn, sql.OpOr}
	draw := func() sql.Predicate {
		p := sql.Predicate{Col: sql.ColumnRef{Table: "t", Column: []string{"a", "b"}[rng.Intn(2)]}, Op: ops[rng.Intn(len(ops))]}
		c := func() value.Value { return consts[rng.Intn(len(consts))] }
		switch p.Op {
		case sql.OpBetween:
			p.Lo, p.Hi = c(), c()
		case sql.OpIn:
			p.Vals = []value.Value{c(), c()}[:1+rng.Intn(2)]
		case sql.OpOr:
			p.Col.Column = ""
			p.Or = []sql.Predicate{
				{Col: sql.ColumnRef{Table: "t", Column: "a"}, Op: sql.OpEq, Val: c()},
				{Col: sql.ColumnRef{Table: "t", Column: "b"}, Op: sql.OpLt, Val: c()},
			}
		default:
			p.Val = c()
		}
		return p
	}
	shared, own := 0, 0
	for n := 0; n < 5000; n++ {
		preds := make([]scoredPred, rng.Intn(7))
		for i := range preds {
			preds[i].p = draw()
		}
		wantColOp, wantStr := referenceClasses(preds)
		colOp := colOpClasses(preds)
		str := textClasses(preds, colOp)
		if !reflect.DeepEqual(colOp, wantColOp) || !reflect.DeepEqual(str, wantStr) {
			t.Fatalf("%v:\n got  %v / %v\n want %v / %v", predsOf(preds), colOp, str, wantColOp, wantStr)
		}
		if len(preds) > 0 {
			if &str[0] == &colOp[0] {
				shared++
			} else {
				own++
			}
		}
	}
	if shared == 0 || own == 0 {
		t.Fatalf("%d lists shared colOp's slice, %d needed their own: the test must see both", shared, own)
	}
}

// The planner's index tests as they stood at the parent of the change
// that made it compare column ordinals, verbatim but for the names:
// strings compared against catalog.IndexDef columns on every visit,
// with the key width looked up by name. The ordinal forms are held to
// them.

func referenceIndexSize(ti *tableInfo, cols []string) (pages int64, height int) {
	keyWidth := ti.table.WidthOf(cols)
	return storage.EstimateIndexPages(int64(ti.rowCount), keyWidth), storage.EstimateIndexHeight(int64(ti.rowCount), keyWidth)
}

func referenceMatchSeek(idxCols []string, preds []scoredPred, p *planner) seekMatch {
	buf := p.consumed // appended to locally, stored back once
	m := seekMatch{consumed: buf[len(buf):], sel: 1.0}
	for _, col := range idxCols {
		foundEq := false
		for i := range preds {
			if preds[i].p.Col.Column == col && preds[i].p.Op.IsEquality() && !m.uses(i) {
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
			if preds[i].p.Col.Column == col && preds[i].p.Op.IsRange() && !m.uses(i) {
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

func referenceIndexRelevant(idxCols, seekLeads, required []string) bool {
	if len(idxCols) == 0 {
		return false
	}
	return referenceContainsCol(seekLeads, idxCols[0]) || referenceCoversRequired(idxCols, required)
}

func referenceCoversRequired(idxCols, required []string) bool {
	for _, r := range required {
		if !referenceContainsCol(idxCols, r) {
			return false
		}
	}
	return true
}

func referenceContainsCol(cols []string, col string) bool {
	for _, c := range cols {
		if c == col {
			return true
		}
	}
	return false
}

// referenceUnionPath is unionPath by names, the form the ordinal one is
// held to. It takes the indexes in key order (Key strings, positions
// between equal keys), which decides between arms of equal cost.
func referenceUnionPath(ti *tableInfo, d *orPred, indexes []catalog.IndexDef, arms []int) (_ []int, cost, rows float64, ok bool) {
	byKey := make([]int, len(indexes))
	for i := range byKey {
		byKey[i] = i
	}
	slices.SortStableFunc(byKey, func(a, b int) int { return strings.Compare(indexes[a].Key(), indexes[b].Key()) })
	arms = arms[:0]
	if len(d.disjuncts) == 0 || len(d.disjuncts) > maxUnionArms {
		return arms, 0, 0, false
	}
	matchSum := 0.0
	for di := range d.disjuncts {
		q := &d.disjuncts[di]
		if !q.p.Op.IsEquality() && !q.p.Op.IsRange() {
			return arms, 0, 0, false
		}
		match := ti.rowCount * q.sel
		bestI := -1
		bestCost := 0.0
		for _, ii := range byKey {
			idx := &indexes[ii]
			if idx.Table != ti.name || len(idx.Columns) == 0 || idx.Columns[0] != q.p.Col.Column {
				continue
			}
			c := referenceArmProbeCost(ti, idx.Columns, match)
			if bestI < 0 || c < bestCost {
				bestI, bestCost = ii, c
			}
		}
		if bestI < 0 {
			return arms, 0, 0, false
		}
		arms = append(arms, bestI)
		cost += bestCost
		matchSum += match
	}
	cost += matchSum * CPUOpCost // hash the RID sets
	fetch := ti.rowCount * ti.preds[d.pos].sel
	cost += ti.ridFetchCost(fetch)
	resSel := 1.0
	for pi := range ti.preds {
		if pi != d.pos {
			resSel *= ti.preds[pi].sel
		}
	}
	rows = math.Max(fetch*clampSel(resSel), 0)
	return arms, cost, rows, true
}

func referenceArmProbeCost(ti *tableInfo, idxCols []string, match float64) float64 {
	pages, height := referenceIndexSize(ti, idxCols)
	return ti.seekCost(pages, height, match, true)
}

// referenceLeads is how the parent's PrepareQuery named the columns the
// index tests read: the required columns, and the seekable leads without
// and with the join columns.
func referenceLeads(ti *tableInfo, stmt *sql.SelectStmt) (required, seekLead, seekLeadJoin []string) {
	appendDistinct := func(s []string, v string) []string {
		if referenceContainsCol(s, v) {
			return s
		}
		return append(s, v)
	}
	required = stmt.ColumnsOf(ti.name)
	for _, sp := range ti.preds {
		if sp.p.Op.IsEquality() || sp.p.Op.IsRange() {
			seekLead = appendDistinct(seekLead, sp.p.Col.Column)
		}
	}
	seekLeadJoin = seekLead
	for _, j := range stmt.Joins {
		for _, side := range [2]sql.ColumnRef{j.Left, j.Right} {
			if side.Table == ti.name {
				seekLeadJoin = appendDistinct(seekLeadJoin, side.Column)
			}
		}
	}
	return required, seekLead, seekLeadJoin
}

// setOf resolves names against the table into a column set.
func setOf(t *catalog.Table, names []string) colSet {
	var s colSet
	for _, n := range names {
		s.add(int32(t.ColumnIndex(n)))
	}
	return s
}

// sameMatch reports whether two seek matches consumed the same
// predicates in the same order with the same selectivity bits.
func sameMatch(a, b seekMatch) bool {
	return a.nEq == b.nEq && slices.Equal(a.consumed, b.consumed) && math.Float64bits(a.sel) == math.Float64bits(b.sel)
}

// TestIndexTestsMatchReference draws predicate lists, required and
// leading column sets and index column lists over a six-column table —
// equality, range, IN and OR predicates, several on one column; index
// lists that are empty, repeat a column or name one the table lacks —
// and holds the ordinal index tests to the parent's string tests: the
// relevance prefilter under base and join leads, the covering test, and
// the seek match.
func TestIndexTestsMatchReference(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	cols := make([]catalog.Column, len(names))
	for i, n := range names {
		cols[i] = catalog.Column{Name: n, Type: value.Int}
	}
	tab := catalog.MustNewTable("t", cols)
	rng := rand.New(rand.NewSource(11))
	pick := func(from []string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = from[rng.Intn(len(from))]
		}
		return out
	}
	distinct := func(from []string) []string {
		var out []string
		for _, n := range from {
			if rng.Intn(2) == 0 {
				out = append(out, n)
			}
		}
		return out
	}
	ops := []sql.CompareOp{sql.OpEq, sql.OpEq, sql.OpLt, sql.OpBetween, sql.OpIn, sql.OpOr}
	var relevant, covering, seeks, unknown, repeated, empty int
	for n := 0; n < 20000; n++ {
		preds := make([]scoredPred, rng.Intn(7))
		for i := range preds {
			c := names[rng.Intn(len(names))]
			sp := scoredPred{p: sql.Predicate{Col: sql.ColumnRef{Table: "t", Column: c}, Op: ops[rng.Intn(len(ops))]}, sel: rng.Float64(), col: int32(tab.ColumnIndex(c))}
			if sp.p.Op == sql.OpOr {
				sp.p.Col.Column, sp.col = "", noColumn
				sp.p.Or = []sql.Predicate{{Col: sql.ColumnRef{Table: "t", Column: c}, Op: sql.OpEq}, {Col: sql.ColumnRef{Table: "t", Column: "a"}, Op: sql.OpLt}}
			}
			preds[i] = sp
		}
		required, leads := distinct(names), distinct(names)
		joinLeads := append(distinct(names), leads...) // a superset, as seekLeadJoin is of seekLead
		idx := pick(append(names, "zz"), rng.Intn(5))
		ti := &tableInfo{tableShape: &tableShape{name: "t", table: tab, required: setOf(tab, required),
			seekLead: setOf(tab, leads), seekLeadJoin: setOf(tab, joinLeads)}}
		var x indexInfo
		new(resolved).add(&x, tab, idx)

		want := referenceIndexRelevant(idx, leads, required)
		if got := indexRelevant(&x, &ti.seekLead, &ti.required); got != want {
			t.Fatalf("index %v, leads %v, required %v: indexRelevant = %v, the parent's %v", idx, leads, required, got, want)
		}
		// The planner's test under the leads of an inner seek, on the index
		// as a one-off call resolves it on first touch.
		wantJoin := referenceIndexRelevant(idx, joinLeads, required)
		p := &planner{cfg: Configuration{{Table: "t", Columns: idx}}, res: resolved{ix: make([]indexInfo, 1)}}
		if got := indexRelevant(p.index(0, ti), &ti.seekLeadJoin, &ti.required); got != wantJoin {
			t.Fatalf("index %v, join leads %v, required %v: indexRelevant = %v, the parent's %v", idx, joinLeads, required, got, wantJoin)
		}
		wantCover := referenceCoversRequired(idx, required)
		if got := coversRequired(&x, &ti.required); got != wantCover {
			t.Fatalf("index %v, required %v: coversRequired = %v, the parent's %v", idx, required, got, wantCover)
		}
		wantMatch := referenceMatchSeek(idx, preds, new(planner))
		if got := matchSeek(x.cols, preds, new(planner)); !sameMatch(got, wantMatch) {
			t.Fatalf("index %v over %v: matchSeek = %+v, the parent's %+v", idx, predsOf(preds), got, wantMatch)
		}

		if want {
			relevant++
		}
		if wantCover && len(idx) > 0 {
			covering++
		}
		if len(wantMatch.consumed) > 0 {
			seeks++
		}
		if slices.Contains(idx, "zz") {
			unknown++
		}
		if len(idx) == 0 {
			empty++
		}
		for i := range idx {
			if slices.Contains(idx[:i], idx[i]) {
				repeated++
				break
			}
		}
	}
	t.Logf("%d relevant, %d covering, %d seeks; %d with an unknown column, %d repeating one, %d empty",
		relevant, covering, seeks, unknown, repeated, empty)
	for _, n := range []int{relevant, covering, seeks, unknown, repeated, empty} {
		if n < 100 {
			t.Fatal("a kind of case occurred fewer than 100 times: the draw checks too little")
		}
	}
}

// TestPreparedIndexTestsMatchReference prepares a log of 60 Synthetic2
// shapes with OR and IN, plus TPC-D joins, and for every table of every
// statement holds the ordinal forms to the parent's: the required
// columns and seek leads the descriptor keeps name for name, and under
// random configurations — indexes on every table, some naming a column
// the table lacks, repeating one or empty — the union arms, cost and
// rows and the seek match of each index, including join probes, whether
// the call resolves for itself or takes a pass. Union arms of equal cost
// go to the index first in key order.
func TestPreparedIndexTestsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	unions, arms := 0, 0
	for _, c := range []struct {
		db      string
		options workload.Options
	}{
		{"synthetic2", workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 60, Duplication: 240, Seed: 7}},
		{"tpcd", workload.Options{Class: workload.Complex, Queries: 60, Seed: 3}},
	} {
		db, err := datagen.BuildNamed(c.db, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		log, err := workload.Generate(db, c.options)
		if err != nil {
			t.Fatal(err)
		}
		tables := db.Schema().Tables()
		// randomIndex draws an index on tab, led by lead unless it is "".
		randomIndex := func(tab *catalog.Table, lead string) catalog.IndexDef {
			names := append(tab.ColumnNames(), "zz")
			idx := make([]string, rng.Intn(4))
			for i := range idx {
				idx[i] = names[rng.Intn(len(names))]
			}
			if lead != "" {
				idx = append([]string{lead}, idx...)
			}
			return catalog.IndexDef{Table: tab.Name, Columns: idx}
		}
		for qi, q := range log.Queries {
			pq, err := PrepareQuery(q.Stmt, db)
			if err != nil {
				t.Fatal(err)
			}
			// Indexes anywhere, on the statement's tables, and led by its
			// disjuncts' columns, most of them twice, so that union arms
			// have a choice.
			var cfg Configuration
			for i := rng.Intn(8); i > 0; i-- {
				cfg = append(cfg, randomIndex(tables[rng.Intn(len(tables))], ""))
			}
			for _, tinfo := range pq.tables {
				for i := rng.Intn(10); i > 0; i-- {
					cfg = append(cfg, randomIndex(tinfo.table, ""))
				}
				for _, d := range tinfo.orPreds {
					for _, dj := range d.disjuncts {
						for i := rng.Intn(3); i > 0; i-- {
							cfg = append(cfg, randomIndex(tinfo.table, dj.p.Col.Column))
						}
					}
				}
			}
			rng.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
			for ti, tinfo := range pq.tables {
				required, seekLead, seekLeadJoin := referenceLeads(tinfo, q.Stmt)
				for _, s := range []struct {
					got   colSet
					names []string
				}{{tinfo.required, required}, {tinfo.seekLead, seekLead}, {tinfo.seekLeadJoin, seekLeadJoin}} {
					if want := setOf(tinfo.table, s.names); !reflect.DeepEqual(s.got, want) {
						t.Fatalf("%s q%d table %s: column set %+v, the parent's columns %v", c.db, qi+1, tinfo.name, s.got, s.names)
					}
				}
				for _, own := range []bool{true, false} {
					p := new(planner)
					p.begin(pq, cfg, !own)
					for oi := range tinfo.orPreds {
						d := &tinfo.orPreds[oi]
						wantArms, wantCost, wantRows, wantOK := referenceUnionPath(tinfo, d, cfg, nil)
						cost, rows, ok := p.unionPath(ti, d)
						got := make([]int, len(p.uArms))
						for i, a := range p.uArms {
							got[i] = int(a)
						}
						if ok != wantOK || ok && (!slices.Equal(got, wantArms) ||
							math.Float64bits(cost) != math.Float64bits(wantCost) || math.Float64bits(rows) != math.Float64bits(wantRows)) {
							t.Fatalf("%s q%d %s, disjunction %d (own resolution %v): union %v %v %v %v, the parent's %v %v %v %v",
								c.db, qi+1, q.Stmt, oi, own, got, cost, rows, ok, wantArms, wantCost, wantRows, wantOK)
						}
						if ok {
							unions++
							arms += len(got)
						}
					}
					ext := append(append([]scoredPred(nil), tinfo.preds...), tinfo.synth...)
					for _, i := range p.indexesOn(ti) {
						x := p.index(i, tinfo)
						want := referenceMatchSeek(cfg[i].Columns, ext, new(planner))
						if got := matchSeek(x.cols, ext, new(planner)); !sameMatch(got, want) {
							t.Fatalf("%s q%d %s, index %v (own resolution %v): matchSeek = %+v, the parent's %+v",
								c.db, qi+1, q.Stmt, cfg[i], own, got, want)
						}
						if w := tinfo.table.WidthOf(cfg[i].Columns); x.width != w {
							t.Fatalf("%s index %v: width %d, WidthOf %d", c.db, cfg[i], x.width, w)
						}
					}
				}
			}
		}
	}
	t.Logf("%d unions with %d arms", unions, arms)
	if unions < 100 {
		t.Fatalf("only %d union paths: the configurations exercise too little", unions)
	}
}
