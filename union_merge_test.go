// Merge-search competition test for IndexMerge awareness: a merged
// index should be recommended only when it actually beats the
// IndexMerge (RID-union) plan over its parents. An optimizer that
// cannot see union plans undervalues narrow parent indexes and merges
// them away; the union-aware optimizer keeps them.
package indexmerge

import (
	"context"
	"math/rand"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/value"
)

func unionMergeDB(t *testing.T) *engine.Database {
	t.Helper()
	db := NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("wide", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Int},
		{Name: "payload", Type: value.String, Width: 120},
		{Name: "more", Type: value.String, Width: 120},
	})); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 30000; i++ {
		if err := db.Insert("wide", value.Row{
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
			value.NewString("p"),
			value.NewString("q"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.AnalyzeAll()
	return db
}

// TestUnionCompetitionChangesMergeRecommendation runs the same merge
// search twice over a workload dominated by one OR query whose best
// plan is IndexUnion over two narrow single-column parents. With
// DisableIndexUnion the parents look worthless (the query scans either
// way), so merging them into one composite is free and the search takes
// the merge. With union plans enabled the merge would destroy the
// second arm's leading column and blow the 10% cost constraint, so the
// search must refuse it — the recommendation changes purely because the
// optimizer can see the IndexMerge plan of the parents.
func TestUnionCompetitionChangesMergeRecommendation(t *testing.T) {
	db := unionMergeDB(t)
	stmt, err := ParseSelect("SELECT payload FROM wide WHERE (a = 7 OR b = 13)")
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Resolve(db.Schema()); err != nil {
		t.Fatal(err)
	}
	w := &Workload{}
	w.Add(stmt, 1)

	ia, err := NewIndexDef(db, "", "wide", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := NewIndexDef(db, "", "wide", []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	defs := []IndexDef{ia, ib}

	run := func(disableUnion bool) *MergeResult {
		t.Helper()
		m, err := NewMerger(db, w)
		if err != nil {
			t.Fatal(err)
		}
		m.Optimizer().DisableIndexUnion = disableUnion
		res, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.10})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aware := run(false)
	blind := run(true)

	if len(blind.Steps) == 0 || blind.Final.Len() != 1 {
		t.Errorf("union-blind search should merge the parents: %d steps, %d final indexes",
			len(blind.Steps), blind.Final.Len())
	}
	if len(aware.Steps) != 0 || aware.Final.Len() != 2 {
		t.Errorf("union-aware search should keep both parents: %d steps, %d final indexes\n%s",
			len(aware.Steps), aware.Final.Len(), aware.Report())
	}
	// The awareness is exactly the cheap union plan: under the same
	// initial configuration the aware optimizer's workload cost must be
	// well below the blind (scan-bound) one.
	if aware.InitialCost >= blind.InitialCost {
		t.Errorf("union plan did not reduce initial workload cost: aware %v, blind %v",
			aware.InitialCost, blind.InitialCost)
	}
}
