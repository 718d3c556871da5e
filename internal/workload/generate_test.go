package workload

import (
	"errors"
	"fmt"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/faults"
	"indexmerge/internal/sql"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
)

func genDB(t testing.TB) *engine.Database {
	t.Helper()
	spec := datagen.Synthetic1Spec()
	spec.RowsPer = 400
	db, err := datagen.BuildSynthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenerateProjectionOnly(t *testing.T) {
	db := genDB(t)
	w, err := Generate(db, Options{Class: ProjectionOnly, Queries: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 25 {
		t.Fatalf("generated %d queries", w.Len())
	}
	for i, q := range w.Queries {
		if len(q.Stmt.Where) != 0 || len(q.Stmt.Joins) != 0 {
			t.Errorf("q%d: projection-only query has predicates: %s", i, q.Stmt)
		}
		if len(q.Stmt.From) != 1 {
			t.Errorf("q%d: projection-only query joins tables: %s", i, q.Stmt)
		}
		if len(q.Stmt.Select) == 0 {
			t.Errorf("q%d: empty select list", i)
		}
		for _, it := range q.Stmt.Select {
			if it.Agg != sql.AggNone {
				t.Errorf("q%d: projection-only query aggregates: %s", i, q.Stmt)
			}
		}
	}
}

func TestGenerateComplex(t *testing.T) {
	db := genDB(t)
	w, err := Generate(db, Options{Class: Complex, Queries: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 40 {
		t.Fatalf("generated %d queries", w.Len())
	}
	var joins, aggs, preds int
	for _, q := range w.Queries {
		if len(q.Stmt.Joins) > 0 {
			joins++
		}
		if len(q.Stmt.GroupBy) > 0 {
			aggs++
		}
		preds += len(q.Stmt.Where)
		// Grouped queries must select only grouped columns + aggregates
		// (required for executability).
		if len(q.Stmt.GroupBy) > 0 {
			grouped := map[string]bool{}
			for _, g := range q.Stmt.GroupBy {
				grouped[g.String()] = true
			}
			for _, it := range q.Stmt.Select {
				if it.Agg == sql.AggNone && !grouped[it.Col.String()] {
					t.Errorf("ungrouped plain column %s in %s", it.Col, q.Stmt)
				}
			}
		}
	}
	// The class must actually exercise joins, aggregation and selections.
	if joins == 0 {
		t.Error("complex workload has no joins")
	}
	if aggs == 0 {
		t.Error("complex workload has no aggregation")
	}
	if preds == 0 {
		t.Error("complex workload has no selections")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	db := genDB(t)
	w1, err := Generate(db, Options{Class: Complex, Queries: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(db, Options{Class: Complex, Queries: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.Queries {
		if w1.Queries[i].Stmt.String() != w2.Queries[i].Stmt.String() {
			t.Fatalf("q%d differs across same-seed runs", i)
		}
	}
	w3, err := Generate(db, Options{Class: Complex, Queries: 10, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range w1.Queries {
		if w1.Queries[i].Stmt.String() != w3.Queries[i].Stmt.String() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

// TestGenerateDuplicationByteStable: turning Duplication on must not
// perturb the base queries — the extra statements draw from their own
// rng — and turning it off must reproduce the historical stream.
func TestGenerateDuplicationByteStable(t *testing.T) {
	db := genDB(t)
	plain, err := Generate(db, Options{Class: Complex, Queries: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := Generate(db, Options{Class: Complex, Queries: 15, Seed: 7, Duplication: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Queries {
		if plain.Queries[i].Stmt.String() != dup.Queries[i].Stmt.String() {
			t.Fatalf("base q%d changed when Duplication was enabled", i)
		}
	}
	dup2, err := Generate(db, Options{Class: Complex, Queries: 15, Seed: 7, Duplication: 60})
	if err != nil {
		t.Fatal(err)
	}
	if dup.Len() != dup2.Len() {
		t.Fatalf("duplicated run not deterministic: %d vs %d entries", dup.Len(), dup2.Len())
	}
	for i := range dup.Queries {
		if dup.Queries[i].Stmt.String() != dup2.Queries[i].Stmt.String() ||
			dup.Queries[i].Freq != dup2.Queries[i].Freq {
			t.Fatalf("duplicated q%d differs across same-seed runs", i)
		}
	}
}

// TestGenerateDuplicationRepeatsTemplates: the extra statements are
// constant-resampled copies of base queries — every one shares a
// fingerprint with some base query, the statement count adds up, and
// at least some re-samples produce fresh constants (distinct texts).
func TestGenerateDuplicationRepeatsTemplates(t *testing.T) {
	db := genDB(t)
	const base, extra = 15, 120
	w, err := Generate(db, Options{Class: Complex, Queries: base, Seed: 7, Duplication: extra})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.TotalFreq(); got != base+extra {
		t.Fatalf("TotalFreq = %v, want %d", got, base+extra)
	}
	baseFp := make(map[string]bool)
	for _, q := range w.Queries[:min(base, w.Len())] {
		baseFp[q.Stmt.Fingerprint()] = true
	}
	for i, q := range w.Queries {
		if !baseFp[q.Stmt.Fingerprint()] {
			t.Errorf("entry %d is not a repetition of any base template: %s", i, q.Stmt)
		}
	}
	if w.Len() <= base {
		t.Errorf("no re-sample produced a fresh constant: %d entries", w.Len())
	}
	if w.Len() == base+extra {
		t.Errorf("no duplicate text folded: %d entries", w.Len())
	}
	for _, q := range w.Queries {
		if err := q.Stmt.Resolve(db.Schema()); err != nil {
			t.Fatalf("re-sampled statement does not resolve: %v", err)
		}
	}
}

func TestGeneratedJoinsAreKeyLike(t *testing.T) {
	db := genDB(t)
	w, err := Generate(db, Options{Class: Complex, Queries: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		for _, j := range q.Stmt.Joins {
			for _, side := range []sql.ColumnRef{j.Left, j.Right} {
				ts := db.TableStats(side.Table)
				cs := ts.Column(side.Column)
				if cs == nil {
					t.Fatalf("no stats for join column %s", side)
				}
				if cs.Distinct < cs.RowCount/10 {
					t.Errorf("join on low-cardinality column %s (ndv %v of %v rows): %s",
						side, cs.Distinct, cs.RowCount, q.Stmt)
				}
			}
		}
	}
}

func TestGenerateHotTableBias(t *testing.T) {
	// Queries should concentrate on the largest tables (the fact-table
	// skew that makes per-query tuning pile indexes onto hot tables).
	db := genDB(t)
	w, err := Generate(db, Options{Class: Complex, Queries: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, q := range w.Queries {
		for _, tb := range q.Stmt.TablesReferenced() {
			counts[tb]++
		}
	}
	// The byte-heaviest table must be referenced more than any other.
	hot, hotBytes := "", int64(0)
	for _, tab := range db.Schema().Tables() {
		b := db.TableRowCount(tab.Name) * int64(tab.RowWidth())
		if b > hotBytes {
			hot, hotBytes = tab.Name, b
		}
	}
	for name, c := range counts {
		if name != hot && c > counts[hot] {
			t.Errorf("hot-table bias missing: %s=%d > %s=%d", name, c, hot, counts[hot])
		}
	}
}

// TestSampledConstantsAreLiveAfterDeletes: constants are drawn among the
// live rows only. The table's first 600 of 1,000 rows are deleted, so a
// draw over heap slots below the live count would land on tombstones
// only, and no live row sits below slot 600.
func TestSampledConstantsAreLiveAfterDeletes(t *testing.T) {
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("t", []catalog.Column{
		{Name: "k", Type: value.Int},
		{Name: "s", Type: value.String, Width: 8},
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := db.Insert("t", value.Row{value.NewInt(int64(1000 + i)), value.NewString(fmt.Sprintf("s%04d", i%250))}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := db.DeleteWhere("t", func(r value.Row) bool { return r[0].Int() < 1600 }); err != nil || n != 600 {
		t.Fatalf("deleted %d rows, %v", n, err)
	}
	db.AnalyzeAll()
	live := map[string]bool{}
	h, _ := db.Heap("t")
	h.Scan(func(_ storage.RowID, r value.Row) bool {
		for c, v := range r {
			live[fmt.Sprint(c, v)] = true
		}
		return true
	})
	w, err := Generate(db, Options{Class: Complex, Queries: 60, Seed: 9, MaxTables: 1, Disjunctions: true, Duplication: 40})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Schema().Table("t")
	constants := 0
	check := func(p sql.Predicate, vals ...value.Value) {
		for _, v := range vals {
			constants++
			if key := fmt.Sprint(tab.ColumnIndex(p.Col.Column), v); !live[key] {
				t.Errorf("constant %v of %s is no live row's value", v, p)
			}
		}
	}
	var visit func(p sql.Predicate)
	visit = func(p sql.Predicate) {
		switch p.Op {
		case sql.OpBetween:
			check(p, p.Lo, p.Hi)
		case sql.OpIn:
			check(p, p.Vals...)
		case sql.OpOr:
			for _, d := range p.Or {
				visit(d)
			}
		default:
			check(p, p.Val)
		}
	}
	for _, q := range w.Queries {
		for _, p := range q.Stmt.Where {
			visit(p)
		}
	}
	if constants < 50 {
		t.Fatalf("only %d constants drawn; the workload exercises too little", constants)
	}
}

// TestSampleErrorIsReturned: a heap read that fails while drawing a
// constant fails the generation instead of inventing a value.
func TestSampleErrorIsReturned(t *testing.T) {
	db := genDB(t)
	faults.Install(faults.Rule{ID: "heap-get", Point: faults.StorageHeapGet, Mode: faults.ModeError})
	defer faults.Reset()
	w, err := Generate(db, Options{Class: Complex, Queries: 10, Seed: 5})
	var fe *faults.Error
	if !errors.As(err, &fe) {
		t.Fatalf("Generate under a failing heap = %v workload, error %v; want the heap's fault", w, err)
	}
	if faults.Fired("heap-get") == 0 {
		t.Fatal("the fault never fired")
	}
}
