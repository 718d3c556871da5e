package advisor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/engine"
	"indexmerge/internal/faults"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
	"indexmerge/internal/wscale"
)

func advisorFixture(t testing.TB) (*engine.Database, *Advisor) {
	t.Helper()
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("events", []catalog.Column{
		{Name: "id", Type: value.Int},
		{Name: "kind", Type: value.String, Width: 8},
		{Name: "ts", Type: value.Date},
		{Name: "val", Type: value.Float},
		{Name: "blob", Type: value.String, Width: 80},
	})); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(catalog.MustNewTable("kinds", []catalog.Column{
		{Name: "kind", Type: value.String, Width: 8},
		{Name: "desc", Type: value.String, Width: 20},
	})); err != nil {
		t.Fatal(err)
	}
	kinds := []string{"click", "view", "buy", "scroll"}
	for _, k := range kinds {
		db.Insert("kinds", value.Row{value.NewString(k), value.NewString("desc")})
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		db.Insert("events", value.Row{
			value.NewInt(int64(i)),
			value.NewString(kinds[rng.Intn(len(kinds))]),
			value.NewDate(rng.Int63n(365)),
			value.NewFloat(rng.Float64()),
			value.NewString("blob"),
		})
	}
	db.AnalyzeAll()
	opt := optimizer.New(db)
	return db, New(db, opt)
}

func q(t testing.TB, db *engine.Database, src string) *sql.SelectStmt {
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

func TestTuneSelectiveQueryGetsSeekIndex(t *testing.T) {
	db, adv := advisorFixture(t)
	stmt := q(t, db, "SELECT id, val FROM events WHERE id = 42")
	defs, err := adv.TuneQueryContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) == 0 {
		t.Fatal("no recommendation for a selective query")
	}
	d := defs[0]
	if d.Table != "events" || d.Columns[0] != "id" {
		t.Errorf("recommended %s, want id-leading index on events", d)
	}
	// The recommendation must actually improve the plan.
	pq, err := adv.Opt.PrepareQuery(stmt)
	if err != nil {
		t.Fatal(err)
	}
	cost0, err := adv.Opt.CostPrepared(pq, nil)
	if err != nil {
		t.Fatal(err)
	}
	cost1, err := adv.Opt.CostPrepared(pq, optimizer.Configuration(defs))
	if err != nil {
		t.Fatal(err)
	}
	if cost1 >= cost0 {
		t.Errorf("recommendation does not help: %v -> %v", cost0, cost1)
	}
}

func TestTuneProjectionQueryGetsCoveringIndex(t *testing.T) {
	db, adv := advisorFixture(t)
	stmt := q(t, db, "SELECT kind, val FROM events")
	defs, err := adv.TuneQueryContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) == 0 {
		t.Fatal("no recommendation for a projection query")
	}
	if !defs[0].CoversColumns([]string{"kind", "val"}) {
		t.Errorf("recommended %s is not covering", defs[0])
	}
}

func TestTuneUnhelpfulQueryRecommendsNothing(t *testing.T) {
	db, adv := advisorFixture(t)
	// Selecting every column with no predicate: no index can beat the
	// heap scan (any covering index is as wide as the table).
	stmt := q(t, db, "SELECT id, kind, ts, val, blob FROM events")
	defs, err := adv.TuneQueryContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 0 {
		t.Errorf("recommended %v for an unindexable query", defs)
	}
}

func TestTuneJoinQueryConsidersJoinColumns(t *testing.T) {
	db, adv := advisorFixture(t)
	stmt := q(t, db, `SELECT desc, val FROM events, kinds
		WHERE events.kind = kinds.kind AND kinds.kind = 'buy'`)
	defs, err := adv.TuneQueryContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range defs {
		if d.Table == "events" && d.Columns[0] == "kind" {
			found = true
		}
	}
	if !found {
		t.Errorf("no kind-leading index on events recommended: %v", defs)
	}
}

func TestBuildInitialConfiguration(t *testing.T) {
	db, adv := advisorFixture(t)
	w := &sql.Workload{}
	w.Add(q(t, db, "SELECT id, val FROM events WHERE id = 1"), 1)
	w.Add(q(t, db, "SELECT ts, val FROM events WHERE ts = DATE(5)"), 1)
	w.Add(q(t, db, "SELECT kind, val FROM events WHERE kind = 'buy'"), 1)

	defs, err := BuildInitialConfigurationContext(context.Background(), adv, w, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 3 {
		t.Errorf("initial configuration has %d indexes, want 3", len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.Key()] {
			t.Errorf("duplicate index %s", d)
		}
		seen[d.Key()] = true
	}
}

// TestTuneRepresentativesMatchesEveryPosition: on a workload whose
// duplicates differ only in constants, tuning one representative per
// template must union to the same recommendation as tuning every query
// — candidate shapes depend only on columns and operators.
func TestTuneRepresentativesMatchesEveryPosition(t *testing.T) {
	db, adv := advisorFixture(t)
	w := &sql.Workload{}
	for i := 0; i < 6; i++ {
		w.Add(q(t, db, fmt.Sprintf("SELECT id, val FROM events WHERE id = %d", i)), 1)
		w.Add(q(t, db, fmt.Sprintf("SELECT ts, val FROM events WHERE ts >= DATE(%d)", 300+i)), 1)
	}
	c := wscale.Compress(w)
	if len(c.Templates) != 2 {
		t.Fatalf("expected 2 templates, got %d", len(c.Templates))
	}
	plain, err := adv.TuneQueriesContext(context.Background(), w, AllPositions(w))
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := adv.TuneQueriesContext(context.Background(), w, c.Representatives())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(compressed) {
		t.Fatalf("representatives returned %d defs, every position %d", len(compressed), len(plain))
	}
	for i := range plain {
		if plain[i].Key() != compressed[i].Key() {
			t.Errorf("def %d: %s (templates) != %s (workload)", i, compressed[i], plain[i])
		}
	}
}

func TestTuneQueriesUnionsRecommendations(t *testing.T) {
	db, adv := advisorFixture(t)
	w := &sql.Workload{}
	w.Add(q(t, db, "SELECT id, val FROM events WHERE id = 1"), 1)
	w.Add(q(t, db, "SELECT id, val FROM events WHERE id = 2"), 1) // same shape
	w.Add(q(t, db, "SELECT ts, val FROM events WHERE ts >= DATE(300)"), 1)
	defs, err := adv.TuneQueriesContext(context.Background(), w, AllPositions(w))
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) < 2 {
		t.Errorf("expected at least 2 distinct indexes, got %v", defs)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.Key()] {
			t.Errorf("TuneQueriesContext returned duplicate %s", d)
		}
		seen[d.Key()] = true
	}
}

// TestTuneQueryPanicIsAnError: the optimizer panics while the
// candidates are costed (the call after the no-index baseline). The
// tuning fails with the panic as a typed error; the process, and the
// advisor, go on.
func TestTuneQueryPanicIsAnError(t *testing.T) {
	db, adv := advisorFixture(t)
	stmt := q(t, db, "SELECT id, val FROM events WHERE id = 42")
	faults.Install(faults.Rule{ID: "tune-panic", Point: faults.OptimizerCost, Mode: faults.ModePanic, After: 1, Count: 1})
	defer faults.Reset()
	_, err := adv.TuneQueryContext(context.Background(), stmt)
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("TuneQueryContext under a costing panic: err = %v, want a *core.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("the recovered panic carries no stack")
	}
	if defs, err := adv.TuneQueryContext(context.Background(), stmt); err != nil || len(defs) == 0 {
		t.Errorf("TuneQueryContext after the panic = %v, %v", defs, err)
	}
}
