package optimizer

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"indexmerge/internal/datagen"
	"indexmerge/internal/sql"
	"indexmerge/internal/stats"
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
			want := &tableInfo{name: ti.name, ts: ti.ts, rowCount: ti.rowCount}
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
