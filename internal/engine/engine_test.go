package engine

import (
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/stats"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
)

func newDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("t", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.String, Width: 10},
	})); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableAndInsert(t *testing.T) {
	db := newDB(t)
	if err := db.CreateTable(catalog.MustNewTable("t", []catalog.Column{{Name: "x", Type: value.Int}})); err == nil {
		t.Error("duplicate table accepted")
	}
	for i := int64(0); i < 10; i++ {
		if err := db.Insert("t", value.Row{value.NewInt(i), value.NewString("s")}); err != nil {
			t.Fatal(err)
		}
	}
	if db.TableRowCount("t") != 10 {
		t.Errorf("rows = %d", db.TableRowCount("t"))
	}
	if db.TableRowCount("missing") != 0 {
		t.Error("missing table row count != 0")
	}
	if err := db.Insert("missing", value.Row{}); err == nil {
		t.Error("insert into missing table accepted")
	}
	if _, err := db.Heap("missing"); err == nil {
		t.Error("Heap(missing) succeeded")
	}
}

func TestIndexLifecycle(t *testing.T) {
	db := newDB(t)
	for i := int64(0); i < 100; i++ {
		db.Insert("t", value.Row{value.NewInt(i), value.NewString("s")})
	}
	def := catalog.IndexDef{Name: "ix", Table: "t", Columns: []string{"a"}}
	ix, err := db.CreateIndex(def)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 100 {
		t.Errorf("index entries = %d", ix.Len())
	}
	if _, err := db.CreateIndex(def); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, ok := db.Index(def.Key()); !ok {
		t.Error("index not found by key")
	}
	// Inserts maintain the index.
	db.Insert("t", value.Row{value.NewInt(1000), value.NewString("z")})
	if ix.Len() != 101 {
		t.Errorf("index not maintained: %d entries", ix.Len())
	}
	if err := db.DropIndex(def.Key()); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex(def.Key()); err == nil {
		t.Error("double drop accepted")
	}
	if len(db.Indexes()) != 0 {
		t.Error("indexes remain after drop")
	}
}

func TestCreateIndexValidates(t *testing.T) {
	db := newDB(t)
	if _, err := db.CreateIndex(catalog.IndexDef{Name: "i", Table: "nope", Columns: []string{"a"}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.CreateIndex(catalog.IndexDef{Name: "i", Table: "t", Columns: []string{"zz"}}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestMaterialize(t *testing.T) {
	db := newDB(t)
	for i := int64(0); i < 50; i++ {
		db.Insert("t", value.Row{value.NewInt(i), value.NewString("s")})
	}
	cfg := []catalog.IndexDef{
		{Name: "i1", Table: "t", Columns: []string{"a"}},
		{Name: "i2", Table: "t", Columns: []string{"b", "a"}},
	}
	if err := db.Materialize(cfg); err != nil {
		t.Fatal(err)
	}
	if len(db.Indexes()) != 2 {
		t.Errorf("materialized %d indexes", len(db.Indexes()))
	}
	// Re-materializing a different config replaces everything.
	if err := db.Materialize(cfg[:1]); err != nil {
		t.Fatal(err)
	}
	if len(db.Indexes()) != 1 {
		t.Errorf("after re-materialize: %d indexes", len(db.Indexes()))
	}
}

func TestAnalyzeAndStats(t *testing.T) {
	db := newDB(t)
	for i := int64(0); i < 500; i++ {
		db.Insert("t", value.Row{value.NewInt(i % 10), value.NewString("s")})
	}
	if db.TableStats("t") != nil {
		t.Error("stats exist before Analyze")
	}
	db.AnalyzeAll()
	ts := db.TableStats("t")
	if ts == nil || ts.RowCount != 500 {
		t.Fatalf("stats: %+v", ts)
	}
	cs := ts.Column("a")
	if cs == nil || cs.Distinct != 10 {
		t.Errorf("column a distinct = %v", cs.Distinct)
	}
}

func TestEstimateIndexBytesTracksActual(t *testing.T) {
	db := newDB(t)
	for i := int64(0); i < 20000; i++ {
		db.Insert("t", value.Row{value.NewInt(i * 37 % 97), value.NewString("abcdefgh")})
	}
	def := catalog.IndexDef{Name: "ix", Table: "t", Columns: []string{"a", "b"}}
	est := db.EstimateIndexBytes(def)
	ix, err := db.CreateIndex(def)
	if err != nil {
		t.Fatal(err)
	}
	actual := ix.Bytes()
	ratio := float64(actual) / float64(est)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("estimate %d vs actual %d (ratio %.2f)", est, actual, ratio)
	}
}

func TestConfigurationBytesSums(t *testing.T) {
	db := newDB(t)
	for i := int64(0); i < 1000; i++ {
		db.Insert("t", value.Row{value.NewInt(i), value.NewString("s")})
	}
	a := catalog.IndexDef{Name: "i1", Table: "t", Columns: []string{"a"}}
	b := catalog.IndexDef{Name: "i2", Table: "t", Columns: []string{"b"}}
	if db.ConfigurationBytes([]catalog.IndexDef{a, b}) != db.EstimateIndexBytes(a)+db.EstimateIndexBytes(b) {
		t.Error("ConfigurationBytes is not the sum of parts")
	}
	if db.EstimateIndexBytes(catalog.IndexDef{Table: "missing"}) != 0 {
		t.Error("estimate for unknown table != 0")
	}
}

func TestMaintenanceAccounting(t *testing.T) {
	db := newDB(t)
	for i := int64(0); i < 5000; i++ {
		db.Insert("t", value.Row{value.NewInt(i), value.NewString("s")})
	}
	if _, err := db.CreateIndex(catalog.IndexDef{Name: "i1", Table: "t", Columns: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	db.ResetMaintenance()
	if db.MaintenanceCost() != 0 {
		t.Error("cost after reset not 0")
	}
	for i := int64(0); i < 100; i++ {
		db.Insert("t", value.Row{value.NewInt(i * 31), value.NewString("z")})
	}
	if db.MaintenanceCost() == 0 {
		t.Error("no maintenance recorded for indexed inserts")
	}
}

func TestDataBytes(t *testing.T) {
	db := newDB(t)
	before := db.DataBytes()
	for i := int64(0); i < 10000; i++ {
		db.Insert("t", value.Row{value.NewInt(i), value.NewString("s")})
	}
	if db.DataBytes() <= before {
		t.Error("DataBytes did not grow")
	}
	// Heap pages must match the storage estimator exactly.
	h, _ := db.Heap("t")
	if h.Pages() != storage.EstimateHeapPages(10000, 18) {
		t.Errorf("heap pages %d vs estimate %d", h.Pages(), storage.EstimateHeapPages(10000, 18))
	}
}

func TestSetStatsOptionsSampling(t *testing.T) {
	db := newDB(t)
	for i := int64(0); i < 20000; i++ {
		db.Insert("t", value.Row{value.NewInt(i % 500), value.NewString("s")})
	}
	db.SetStatsOptions(stats.BuildOptions{SampleRate: 0.05, Seed: 3, Buckets: 32})
	db.AnalyzeAll()
	cs := db.TableStats("t").Column("a")
	if cs == nil {
		t.Fatal("no stats")
	}
	if cs.RowCount != 20000 {
		t.Errorf("sampled stats RowCount = %v, want full count", cs.RowCount)
	}
	// Distinct estimate within 3x of truth (500) despite 5% sampling.
	if cs.Distinct < 150 || cs.Distinct > 1500 {
		t.Errorf("sampled Distinct = %v, truth 500", cs.Distinct)
	}
}

func TestDeleteWhereEngine(t *testing.T) {
	db := newDB(t)
	for i := int64(0); i < 200; i++ {
		db.Insert("t", value.Row{value.NewInt(i), value.NewString("s")})
	}
	if _, err := db.CreateIndex(catalog.IndexDef{Name: "i", Table: "t", Columns: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	n, err := db.DeleteWhere("t", func(r value.Row) bool { return r[0].Int() < 50 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || db.TableRowCount("t") != 150 {
		t.Fatalf("deleted %d, rows %d", n, db.TableRowCount("t"))
	}
	ix, _ := db.Index("t(a)")
	if ix.Len() != 150 {
		t.Errorf("index entries = %d", ix.Len())
	}
	if _, err := db.DeleteWhere("missing", func(value.Row) bool { return true }); err == nil {
		t.Error("unknown table accepted")
	}
	// Rebuilding an index over a heap with tombstones skips them.
	if err := db.Materialize([]catalog.IndexDef{{Name: "i2", Table: "t", Columns: []string{"b", "a"}}}); err != nil {
		t.Fatal(err)
	}
	ix2, _ := db.Index("t(b,a)")
	if ix2.Len() != 150 {
		t.Errorf("rebuilt index entries = %d, want 150", ix2.Len())
	}
}
