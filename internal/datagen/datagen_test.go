package datagen

import (
	"math"
	"math/rand"
	"testing"

	"indexmerge/internal/value"
)

func TestZipfUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 100, 0)
	counts := make([]int, 101)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 1 || v > 100 {
			t.Fatalf("draw %d out of range", v)
		}
		counts[v]++
	}
	// Uniform: each cell ≈ 1000, allow ±35%.
	for v := 1; v <= 100; v++ {
		if counts[v] < 650 || counts[v] > 1350 {
			t.Errorf("uniform cell %d count %d far from 1000", v, counts[v])
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipf(rng, 1000, 1)
	counts := make(map[int]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 1 dominates rank 10 roughly 10:1 at theta=1.
	r1, r10 := float64(counts[1]), float64(counts[10])
	if r10 == 0 {
		t.Fatal("rank 10 never drawn")
	}
	ratio := r1 / r10
	if ratio < 5 || ratio > 20 {
		t.Errorf("rank1/rank10 = %.1f, want ≈10", ratio)
	}
	// Higher theta concentrates more.
	z4 := NewZipf(rng, 1000, 4)
	first := 0
	for i := 0; i < 10000; i++ {
		if z4.Next() == 1 {
			first++
		}
	}
	if float64(first)/10000 < 0.85 {
		t.Errorf("theta=4 rank-1 share %.2f, want ≳0.9", float64(first)/10000)
	}
}

func TestZipfDegenerateDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, 0, 2) // clamped to 1
	if z.N() != 1 {
		t.Errorf("N = %d", z.N())
	}
	if z.Next() != 1 {
		t.Error("single-value domain must draw 1")
	}
}

func TestBuildTPCDShape(t *testing.T) {
	scale := ScaledTPCD(0.1)
	db, err := BuildTPCD(scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantTables := []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
	names := db.Schema().TableNames()
	if len(names) != len(wantTables) {
		t.Fatalf("tables: %v", names)
	}
	for _, w := range wantTables {
		if _, ok := db.Schema().Table(w); !ok {
			t.Errorf("missing table %q", w)
		}
	}
	if got := db.TableRowCount("lineitem"); got != int64(scale.Lineitem) {
		t.Errorf("lineitem rows = %d, want %d", got, scale.Lineitem)
	}
	// lineitem has the benchmark's 16 columns.
	li, _ := db.Schema().Table("lineitem")
	if len(li.Columns) != 16 {
		t.Errorf("lineitem columns = %d", len(li.Columns))
	}
	// Statistics exist and dates span the domain.
	ts := db.TableStats("lineitem")
	if ts == nil {
		t.Fatal("no stats")
	}
	cs := ts.Column("l_shipdate")
	if cs.Min.Int() < TPCDDateLo || cs.Max.Int() > TPCDDateHi {
		t.Errorf("shipdate range [%v, %v] outside domain", cs.Min, cs.Max)
	}
}

func TestBuildTPCDDeterministic(t *testing.T) {
	a, err := BuildTPCD(ScaledTPCD(0.05), 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTPCD(ScaledTPCD(0.05), 9)
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := a.Heap("lineitem")
	hb, _ := b.Heap("lineitem")
	if ha.RowCount() != hb.RowCount() {
		t.Fatal("row counts differ")
	}
	ra, _ := ha.Get(0)
	rb, _ := hb.Get(0)
	for i := range ra {
		if ra[i].Compare(rb[i]) != 0 {
			t.Fatalf("same seed produced different data at column %d: %v vs %v", i, ra[i], rb[i])
		}
	}
}

func TestTPCDWorkloadResolves(t *testing.T) {
	db, err := BuildTPCD(ScaledTPCD(0.05), 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := TPCDWorkload(db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 17 {
		t.Errorf("TPC-D workload has %d queries, want 17", w.Len())
	}
	// Every query resolved: all column refs qualified.
	for i, q := range w.Queries {
		for _, it := range q.Stmt.Select {
			if it.Agg != 2 /* AggCountStar */ && it.Col.Column != "" && it.Col.Table == "" {
				t.Errorf("q%d: unresolved column %v", i+1, it.Col)
			}
		}
	}
	// Q1 groups by returnflag/linestatus like the benchmark.
	q1 := w.Queries[0].Stmt
	if len(q1.GroupBy) != 2 || q1.GroupBy[0].Column != "l_returnflag" {
		t.Errorf("Q1 group by: %v", q1.GroupBy)
	}
}

func TestBuildSyntheticShape(t *testing.T) {
	spec := Synthetic1Spec()
	spec.RowsPer = 500
	db, err := BuildSynthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	tables := db.Schema().Tables()
	if len(tables) != 5 {
		t.Fatalf("Synthetic1 tables = %d", len(tables))
	}
	// Column counts run 5..25 across tables.
	if len(tables[0].Columns) != 5 {
		t.Errorf("t1 columns = %d, want 5", len(tables[0].Columns))
	}
	if len(tables[4].Columns) != 25 {
		t.Errorf("t5 columns = %d, want 25", len(tables[4].Columns))
	}
	for _, tab := range tables {
		if db.TableRowCount(tab.Name) != 500 {
			t.Errorf("%s rows = %d", tab.Name, db.TableRowCount(tab.Name))
		}
		// Column widths bounded by the paper's 4..128 B.
		for _, c := range tab.Columns {
			if c.Width < 4 || c.Width > 128 {
				t.Errorf("%s.%s width %d outside [4,128]", tab.Name, c.Name, c.Width)
			}
		}
	}

	spec2 := Synthetic2Spec()
	spec2.RowsPer = 200
	db2, err := BuildSynthetic(spec2)
	if err != nil {
		t.Fatal(err)
	}
	tables2 := db2.Schema().Tables()
	if len(tables2) != 10 {
		t.Fatalf("Synthetic2 tables = %d", len(tables2))
	}
	if len(tables2[9].Columns) != 45 {
		t.Errorf("t10 columns = %d, want 45", len(tables2[9].Columns))
	}
}

func TestSyntheticInsertRows(t *testing.T) {
	spec := Synthetic1Spec()
	spec.RowsPer = 300
	db, err := BuildSynthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := SyntheticInsertRows(db, "t2", 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	checkGoldenInsertRows(t, rows)
	tab, _ := db.Schema().Table("t2")
	for _, r := range rows {
		if len(r) != len(tab.Columns) {
			t.Fatalf("row arity %d", len(r))
		}
		for i, v := range r {
			if v.Kind() != tab.Columns[i].Type {
				t.Errorf("column %d kind %v, want %v", i, v.Kind(), tab.Columns[i].Type)
			}
		}
		// Row must actually insert.
		if err := db.Insert("t2", r); err != nil {
			t.Fatalf("generated row rejected: %v", err)
		}
	}
	if _, err := SyntheticInsertRows(db, "missing", 1, 1); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestGenRowHelpers(t *testing.T) {
	scale := DefaultTPCDScale()
	rng := rand.New(rand.NewSource(4))
	lr := GenLineitemRow(rng, 5, 2, scale)
	if len(lr) != 16 {
		t.Fatalf("lineitem row arity %d", len(lr))
	}
	if lr[0].Int() != 5 || lr[3].Int() != 2 {
		t.Errorf("orderkey/linenumber: %v, %v", lr[0], lr[3])
	}
	ship := lr[10].Int()
	commit := lr[11].Int()
	receipt := lr[12].Int()
	if commit < ship || receipt < ship {
		t.Errorf("date ordering violated: ship %d commit %d receipt %d", ship, commit, receipt)
	}
	or := GenOrderRow(rng, 9, scale)
	if len(or) != 9 || or[0].Int() != 9 {
		t.Errorf("orders row: %v", or)
	}
	if or[4].Kind() != value.Date {
		t.Errorf("orderdate kind %v", or[4].Kind())
	}
}

func TestScaledTPCDFloorsAtOne(t *testing.T) {
	s := ScaledTPCD(0.000001)
	if s.Region < 1 || s.Nation < 1 || s.Lineitem < 1 {
		t.Errorf("scaled below 1: %+v", s)
	}
	if math.IsNaN(float64(s.Lineitem)) {
		t.Error("NaN rows")
	}
}
