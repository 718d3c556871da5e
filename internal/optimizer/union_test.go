package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/value"
)

// unionFixture: a wide table where two highly selective equality
// disjuncts each have their own narrow index, neither covering — the
// regime where OR-ing RID sets beats both the heap scan (which must
// read every page) and any single seek (which cannot serve a
// disjunction at all).
func unionFixture(t testing.TB) (*engine.Database, Configuration) {
	t.Helper()
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("wide", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Int},
		{Name: "payload", Type: value.String, Width: 120},
		{Name: "more", Type: value.String, Width: 120},
	})); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
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
	ia, err := catalog.NewIndexDef(db.Schema(), "", "wide", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := catalog.NewIndexDef(db.Schema(), "", "wide", []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	return db, Configuration{ia, ib}
}

func TestIndexUnionChosenForOr(t *testing.T) {
	db, cfg := unionFixture(t)
	o := New(db)
	stmt := mustSelect(t, db, "SELECT payload FROM wide WHERE (a = 7 OR b = 13)")
	plan, err := o.Optimize(stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "IndexUnion(") {
		t.Fatalf("expected index union:\n%s", plan.Explain())
	}
	// Both arms report seek usage, so merging's Seek-Cost sees them.
	seeks := 0
	for _, u := range plan.Uses {
		if u.Mode == UsageSeek {
			seeks++
		}
	}
	if seeks != 2 {
		t.Errorf("union should report 2 seek usages, got %v", plan.Uses)
	}
	// It must beat the full scan the disjunction otherwise forces.
	scan, err := o.Optimize(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost >= scan.Cost {
		t.Errorf("union (%v) not cheaper than scan plan (%v)", plan.Cost, scan.Cost)
	}
}

func TestIndexUnionChosenForIn(t *testing.T) {
	db, cfg := unionFixture(t)
	o := New(db)
	stmt := mustSelect(t, db, "SELECT payload FROM wide WHERE a IN (7, 13, 21)")
	plan, err := o.Optimize(stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "IndexUnion(") {
		t.Fatalf("expected index union for IN list:\n%s", plan.Explain())
	}
	// One arm per IN member, all over the same index.
	if n := strings.Count(plan.Explain(), "IndexSeek("); n != 3 {
		t.Errorf("expected 3 union arms, got %d:\n%s", n, plan.Explain())
	}
}

func TestIndexUnionDisabled(t *testing.T) {
	db, cfg := unionFixture(t)
	o := New(db)
	o.DisableIndexUnion = true
	stmt := mustSelect(t, db, "SELECT payload FROM wide WHERE (a = 7 OR b = 13)")
	plan, err := o.Optimize(stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "IndexUnion(") {
		t.Errorf("union chosen despite being disabled:\n%s", plan.Explain())
	}
}

func TestIndexUnionNeedsEveryArm(t *testing.T) {
	db, cfg := unionFixture(t)
	o := New(db)
	// Only a is indexed: the b disjunct has no arm, so no union — a
	// partial union would miss rows.
	stmt := mustSelect(t, db, "SELECT payload FROM wide WHERE (a = 7 OR b = 13)")
	plan, err := o.Optimize(stmt, cfg[:1])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "IndexUnion(") {
		t.Errorf("union built with an unindexed disjunct:\n%s", plan.Explain())
	}
}

// armOrderFixture: six equality predicates where the two selective
// columns' indexes come LAST in configuration order. Regression for the
// arm-truncation bug: the pairing used to cap candidate arms at
// maxIntersectArms in enumeration order, so a cheap pair past position
// four was never paired.
func armOrderFixture(t testing.TB) (*engine.Database, Configuration) {
	t.Helper()
	cols := []catalog.Column{
		{Name: "u0", Type: value.Int},
		{Name: "u1", Type: value.Int},
		{Name: "u2", Type: value.Int},
		{Name: "u3", Type: value.Int},
		{Name: "s1", Type: value.Int},
		{Name: "s2", Type: value.Int},
		{Name: "payload", Type: value.String, Width: 120},
	}
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("wide", cols)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 30000; i++ {
		if err := db.Insert("wide", value.Row{
			value.NewInt(rng.Int63n(4)),
			value.NewInt(rng.Int63n(4)),
			value.NewInt(rng.Int63n(4)),
			value.NewInt(rng.Int63n(4)),
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
			value.NewString("p"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.AnalyzeAll()
	var cfg Configuration
	for _, c := range []string{"u0", "u1", "u2", "u3", "s1", "s2"} {
		def, err := catalog.NewIndexDef(db.Schema(), "", "wide", []string{c})
		if err != nil {
			t.Fatal(err)
		}
		cfg = append(cfg, def)
	}
	return db, cfg
}

func TestIntersectionPairsMostSelectiveArms(t *testing.T) {
	db, cfg := armOrderFixture(t)
	o := New(db)
	stmt := mustSelect(t, db,
		"SELECT payload FROM wide WHERE u0 = 1 AND u1 = 2 AND u2 = 3 AND u3 = 0 AND s1 = 77 AND s2 = 191")
	plan, err := o.Optimize(stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	explain := plan.Explain()
	if !strings.Contains(explain, "IndexIntersect(") {
		t.Fatalf("expected an intersection of the selective arms:\n%s", explain)
	}
	if !strings.Contains(explain, "ix_wide_s1") || !strings.Contains(explain, "ix_wide_s2") {
		t.Errorf("intersection skipped the selective pair enumerated past the arm cap:\n%s", explain)
	}
}

// TestIntersectionRowEstimateMonotonic pins the floor-final fix in
// intersectPath: the row-count flooring that protects the cost
// formulas must not leak into the cardinality estimate, so an
// intersection's estimated rows can never exceed either arm's own
// estimate — even when the conjunction selects less than one row.
func TestIntersectionRowEstimateMonotonic(t *testing.T) {
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("wide", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Int},
		{Name: "payload", Type: value.String, Width: 120},
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30000; i++ {
		if err := db.Insert("wide", value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i)),
			value.NewString("p"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.AnalyzeAll()
	cfg := Configuration{
		mustIndex(t, db, "wide", "a"),
		mustIndex(t, db, "wide", "b"),
	}
	o := New(db)
	stmt := mustSelect(t, db, "SELECT payload FROM wide WHERE a = 5 AND b = 5")
	pq, err := o.PrepareQuery(stmt)
	if err != nil {
		t.Fatal(err)
	}
	ti := pq.tables[0]
	p := new(planner)
	p.begin(pq, cfg, false)
	paths := p.enumeratePaths(0)
	minSeek := ti.rowCount
	var inter *accessPath
	for i := range paths {
		switch paths[i].kind {
		case indexSeek:
			if paths[i].rows < minSeek {
				minSeek = paths[i].rows
			}
		case indexIntersect:
			inter = &paths[i]
		}
	}
	if inter == nil {
		t.Fatal("no intersection path enumerated")
	}
	if inter.rows > minSeek {
		t.Errorf("intersection estimates %v rows, more than its cheapest arm's %v", inter.rows, minSeek)
	}
	if inter.rows >= 1 {
		t.Errorf("sub-row conjunction floored up: estimated %v rows", inter.rows)
	}
}
