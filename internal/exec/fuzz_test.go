package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/value"
	"indexmerge/internal/workload"
)

// TestRandomQueriesIndexedVsNaive is a randomized differential test:
// for many generated queries, the plan chosen with indexes available
// must return exactly the rows of the no-index plan. It fuzzes the
// optimizer's access-path selection, the seek-bound construction, and
// every executor operator at once.
func TestRandomQueriesIndexedVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("big", []catalog.Column{
		{Name: "pk", Type: value.Int},
		{Name: "fk", Type: value.Int},
		{Name: "d", Type: value.Date},
		{Name: "cat", Type: value.String, Width: 3},
		{Name: "x", Type: value.Float},
		{Name: "y", Type: value.Int},
	})); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(catalog.MustNewTable("small", []catalog.Column{
		{Name: "id", Type: value.Int},
		{Name: "cat", Type: value.String, Width: 3},
		{Name: "z", Type: value.Int},
	})); err != nil {
		t.Fatal(err)
	}
	cats := []string{"aa", "bb", "cc", "dd"}
	for i := 0; i < 120; i++ {
		if err := db.Insert("small", value.Row{
			value.NewInt(int64(i)),
			value.NewString(cats[rng.Intn(4)]),
			value.NewInt(rng.Int63n(50)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		row := value.Row{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(120)),
			value.NewDate(rng.Int63n(300)),
			value.NewString(cats[rng.Intn(4)]),
			value.NewFloat(rng.Float64() * 100),
			value.NewInt(rng.Int63n(1000)),
		}
		// Sprinkle some NULLs to exercise three-valued logic.
		if rng.Intn(40) == 0 {
			row[rng.Intn(len(row))] = value.NewNull()
		}
		if err := db.Insert("big", row); err != nil {
			t.Fatal(err)
		}
	}
	db.AnalyzeAll()

	// Indexes covering a variety of shapes, all materialized.
	defs := []catalog.IndexDef{}
	for _, cols := range [][]string{
		{"pk"}, {"fk", "x"}, {"d", "x", "y"}, {"cat", "d"}, {"y", "cat", "x"},
	} {
		def, err := catalog.NewIndexDef(db.Schema(), "", "big", cols)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, def)
	}
	smallIdx, err := catalog.NewIndexDef(db.Schema(), "", "small", []string{"id", "cat"})
	if err != nil {
		t.Fatal(err)
	}
	defs = append(defs, smallIdx)
	if err := db.Materialize(defs); err != nil {
		t.Fatal(err)
	}
	cfg := optimizer.Configuration(defs)

	w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 120, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}

	opt := optimizer.New(db)
	mismatches := 0
	for i, q := range w.Queries {
		indexed, err := opt.Optimize(q.Stmt, cfg)
		if err != nil {
			t.Fatalf("q%d optimize: %v\nsql: %s", i, err, q.Stmt)
		}
		naive, err := opt.Optimize(q.Stmt, nil)
		if err != nil {
			t.Fatalf("q%d naive optimize: %v", i, err)
		}
		got, err := Run(db, indexed)
		if err != nil {
			t.Fatalf("q%d run indexed: %v\nsql: %s\nplan:\n%s", i, err, q.Stmt, indexed.Explain())
		}
		want, err := Run(db, naive)
		if err != nil {
			t.Fatalf("q%d run naive: %v", i, err)
		}
		if !multisetEqual(got, want) {
			mismatches++
			t.Errorf("q%d result mismatch (%d vs %d rows)\nsql: %s\nindexed plan:\n%s",
				i, len(got.Rows), len(want.Rows), q.Stmt, indexed.Explain())
			if mismatches > 3 {
				t.Fatal("too many mismatches; aborting")
			}
		}
	}
}

// multisetEqual compares result rows ignoring order, rounding floats.
func multisetEqual(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	render := func(res *Result) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			s := ""
			for _, v := range r {
				if v.Kind() == value.Float {
					s += fmt.Sprintf("%.4f|", v.Float())
				} else {
					s += v.String() + "|"
				}
			}
			out[i] = s
		}
		sort.Strings(out)
		return out
	}
	as, bs := render(a), render(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestAdvisorPlansExecute fuzzes the advisor loop: recommended indexes
// materialize and their plans run, for many random queries.
func TestAdvisorPlansExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_ = rng
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("w", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Int},
		{Name: "c", Type: value.String, Width: 6},
		{Name: "d", Type: value.Float},
	})); err != nil {
		t.Fatal(err)
	}
	r2 := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		db.Insert("w", value.Row{
			value.NewInt(int64(i)),
			value.NewInt(r2.Int63n(40)),
			value.NewString(fmt.Sprintf("s%04d", r2.Intn(500))),
			value.NewFloat(r2.Float64()),
		})
	}
	db.AnalyzeAll()
	opt := optimizer.New(db)
	adv := advisor.New(db, opt)
	wl, err := workload.Generate(db, workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 40, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range wl.Queries {
		defs, err := adv.TuneQueryContext(context.Background(), q.Stmt)
		if err != nil {
			t.Fatalf("q%d tune: %v", i, err)
		}
		if len(defs) == 0 {
			continue
		}
		if err := db.Materialize(defs); err != nil {
			t.Fatalf("q%d materialize: %v", i, err)
		}
		plan, err := opt.Optimize(q.Stmt, optimizer.Configuration(defs))
		if err != nil {
			t.Fatalf("q%d optimize: %v", i, err)
		}
		if _, err := Run(db, plan); err != nil {
			t.Fatalf("q%d run: %v\nplan:\n%s", i, err, plan.Explain())
		}
	}
}
