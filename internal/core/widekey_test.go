package core

import (
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// TestGreedyNeverGrowsStorageOnWideKeys is a regression test: merging
// two wide-string-key indexes can *increase* total pages (internal
// B+-tree levels grow faster than the per-row RID saving), and an
// unguarded greedy (sorted by reduction, accepting the first candidate
// the cost checker passes) would adopt such merges. The greedy must
// skip non-positive-reduction candidates so FinalBytes ≤ InitialBytes
// always holds.
func TestGreedyNeverGrowsStorageOnWideKeys(t *testing.T) {
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("wide", []catalog.Column{
		{Name: "s1", Type: value.String, Width: 128},
		{Name: "s2", Type: value.String, Width: 128},
		{Name: "s3", Type: value.String, Width: 128},
		{Name: "k", Type: value.Int},
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Insert("wide", value.Row{
			value.NewString("aaaaaaaa"),
			value.NewString("bbbbbbbb"),
			value.NewString("cccccccc"),
			value.NewInt(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.AnalyzeAll()

	// Two wide indexes whose merge grows the page count.
	a := def("wide", "s1")
	b := def("wide", "s2", "s3")
	m, err := MergeOrdered(NewIndex(a), NewIndex(b))
	if err != nil {
		t.Fatal(err)
	}
	sumParents := db.EstimateIndexBytes(a) + db.EstimateIndexBytes(b)
	merged := db.EstimateIndexBytes(m.Def)
	if merged <= sumParents {
		t.Skipf("fixture no longer triggers growth: merged %d <= parents %d", merged, sumParents)
	}

	// Workload that keeps both indexes mildly useful.
	w := &sql.Workload{}
	stmt, err := sql.ParseSelect("SELECT s1 FROM wide WHERE s1 = 'aaaaaaaa'")
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Resolve(db.Schema()); err != nil {
		t.Fatal(err)
	}
	w.Add(stmt, 1)

	opt := optimizer.New(db)
	initial := NewConfiguration([]catalog.IndexDef{a, b})
	base, err := opt.WorkloadCost(w, optimizer.Configuration(initial.Defs()))
	if err != nil {
		t.Fatal(err)
	}
	pw, err := opt.PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	seek, err := ComputeSeekCostsPrepared(opt, pw, initial)
	if err != nil {
		t.Fatal(err)
	}
	// A very loose cost constraint so the checker would accept the
	// growing merge if the greedy ever offered it.
	check := NewOptimizerChecker(opt, w, base, 10.0)
	res, err := Greedy(initial, &MergePairCost{Seek: seek}, check, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalBytes > res.InitialBytes {
		t.Fatalf("greedy grew storage: %d -> %d", res.InitialBytes, res.FinalBytes)
	}
	if len(res.Steps) != 0 {
		t.Errorf("greedy accepted a storage-growing merge: %+v", res.Steps)
	}
}
