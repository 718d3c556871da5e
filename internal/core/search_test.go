package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// searchFixture is a database + workload + optimizer with a known
// overlap structure: four indexes on one fact table, two of which
// share a prefix, plus one index on a second table.
type searchFixture struct {
	db      *engine.Database
	opt     *optimizer.Optimizer
	w       *sql.Workload
	pw      *optimizer.PreparedWorkload
	initial *Configuration
	base    float64
	seek    *SeekCosts
}

func newSearchFixture(t testing.TB) *searchFixture {
	t.Helper()
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("fact", []catalog.Column{
		{Name: "d", Type: value.Date},
		{Name: "k", Type: value.Int},
		{Name: "m1", Type: value.Float},
		{Name: "m2", Type: value.Float},
		{Name: "m3", Type: value.Float},
		{Name: "tag", Type: value.String, Width: 6},
		{Name: "pad", Type: value.String, Width: 60},
	})); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(catalog.MustNewTable("dim", []catalog.Column{
		{Name: "k", Type: value.Int},
		{Name: "name", Type: value.String, Width: 12},
	})); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	tags := []string{"red", "green", "blue", "black"}
	for i := 0; i < 200; i++ {
		db.Insert("dim", value.Row{value.NewInt(int64(i)), value.NewString("name")})
	}
	for i := 0; i < 15000; i++ {
		db.Insert("fact", value.Row{
			value.NewDate(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(200)),
			value.NewFloat(rng.Float64()),
			value.NewFloat(rng.Float64()),
			value.NewFloat(rng.Float64()),
			value.NewString(tags[rng.Intn(4)]),
			value.NewString("padding"),
		})
	}
	db.AnalyzeAll()

	w := &sql.Workload{}
	for _, src := range []string{
		"SELECT d, m1 FROM fact WHERE d BETWEEN DATE(100) AND DATE(110)",
		"SELECT d, m2 FROM fact WHERE d BETWEEN DATE(200) AND DATE(215)",
		"SELECT k, m3 FROM fact WHERE k = 17",
		"SELECT tag, m1 FROM fact WHERE tag = 'red'",
		"SELECT name, m1 FROM fact, dim WHERE fact.k = dim.k AND dim.k = 3",
	} {
		stmt, err := sql.ParseSelect(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := stmt.Resolve(db.Schema()); err != nil {
			t.Fatal(err)
		}
		w.Add(stmt, 1)
	}

	defs := []catalog.IndexDef{
		def("fact", "d", "m1"),
		def("fact", "d", "m2"),
		def("fact", "k", "m3"),
		def("fact", "tag", "m1"),
		def("dim", "k", "name"),
	}
	initial := NewConfiguration(defs)
	opt := optimizer.New(db)
	pw, err := opt.PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	base, err := opt.WorkloadCostPrepared(pw, optimizer.Configuration(defs))
	if err != nil {
		t.Fatal(err)
	}
	seek, err := ComputeSeekCostsPrepared(opt, pw, initial)
	if err != nil {
		t.Fatal(err)
	}
	return &searchFixture{db: db, opt: opt, w: w, pw: pw, initial: initial, base: base, seek: seek}
}

func (f *searchFixture) checker(slack float64) *OptimizerChecker {
	return NewOptimizerChecker(f.opt, f.w, f.base, slack)
}

func TestSeekCostsAttribution(t *testing.T) {
	f := newSearchFixture(t)
	// The (d, m1) index serves Q1 with a range seek: its seek cost must
	// be positive. The dim index serves the join.
	if got := f.seek.SeekCost(def("fact", "d", "m1").Key()); got <= 0 {
		t.Errorf("Seek-Cost(d,m1) = %v, want > 0", got)
	}
	if got := f.seek.SeekCost(def("fact", "nope").Key()); got != 0 {
		t.Errorf("unknown index seek cost = %v", got)
	}
	var nilSeek *SeekCosts
	if nilSeek.SeekCost("x") != 0 {
		t.Error("nil SeekCosts must return 0")
	}
}

func TestMergePairCostPrefersHigherSeekCost(t *testing.T) {
	f := newSearchFixture(t)
	a := f.initial.Indexes[0] // (d, m1)
	b := f.initial.Indexes[2] // (k, m3)
	mp := &MergePairCost{Seek: f.seek}
	m, err := mp.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sa := f.seek.SeekCost(a.Key())
	sb := f.seek.SeekCost(b.Key())
	wantLeading := a
	if sb > sa {
		wantLeading = b
	}
	if !m.Def.HasPrefix(wantLeading.Def) {
		t.Errorf("leading prefix should be the higher seek-cost parent (%v vs %v): got %v", sa, sb, m.Def.Columns)
	}
	// Reversed preference flips the choice.
	rev := &MergePairCost{Seek: f.seek, ReversePreference: true}
	m2, err := rev.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Def.Key() == m2.Def.Key() && sa != sb {
		t.Error("ReversePreference had no effect")
	}
}

func TestMergePairSyntactic(t *testing.T) {
	f := newSearchFixture(t)
	freq := LeadingColumnFrequencies(f.w)
	if freq["fact.d"] <= 0 {
		t.Fatalf("expected frequency for fact.d, got %v", freq)
	}
	mp := &MergePairSyntactic{Freq: freq}
	a := f.initial.Indexes[0] // leading d
	b := f.initial.Indexes[3] // leading tag
	m, err := mp.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// d appears in more clauses than tag (two range queries + select).
	if m.Def.Columns[0] != "d" {
		t.Errorf("syntactic leading = %v, want d first (freqs d=%v tag=%v)", m.Def.Columns, freq["fact.d"], freq["fact.tag"])
	}
}

func TestMergePairExhaustiveReturnsValidMerge(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairExhaustive{Server: f.opt, W: f.w, Base: f.initial, MaxCols: 6}
	a := f.initial.Indexes[0]
	b := f.initial.Indexes[1]
	m, err := mp.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Definition 1: column union, no extras.
	union := map[string]bool{"d": true, "m1": true, "m2": true}
	if len(m.Def.Columns) != len(union) {
		t.Fatalf("columns: %v", m.Def.Columns)
	}
	for _, c := range m.Def.Columns {
		if !union[c] {
			t.Errorf("unexpected column %q", c)
		}
	}
	// Cross-table pair must error.
	if _, err := mp.Merge(a, f.initial.Indexes[4]); err == nil {
		t.Error("cross-table exhaustive merge accepted")
	}
}

// TestMergePairExhaustiveUnreferencedTable: a pair on a table no query
// references has no query to price its orders on; every order costs 0
// and the first one is kept.
func TestMergePairExhaustiveUnreferencedTable(t *testing.T) {
	f := newSearchFixture(t)
	if err := f.db.CreateTable(catalog.MustNewTable("aux", []catalog.Column{
		{Name: "x", Type: value.Int},
		{Name: "y", Type: value.Int},
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		f.db.Insert("aux", value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))})
	}
	f.db.AnalyzeAll()
	base := NewConfiguration(append(f.initial.Defs(), def("aux", "x"), def("aux", "y", "x")))
	mp := &MergePairExhaustive{Server: f.opt, W: f.w, Base: base, MaxCols: 6}
	m, err := mp.Merge(base.Indexes[5], base.Indexes[6])
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(m.Def.Columns, ","); m.Def.Table != "aux" || got != "x,y" {
		t.Fatalf("merged %s(%s), want aux(x,y)", m.Def.Table, got)
	}
}

func TestGreedyRespectsCostBound(t *testing.T) {
	f := newSearchFixture(t)
	for _, slack := range []float64{0.05, 0.10, 0.25} {
		check := f.checker(slack)
		res, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, check, f.db, GreedyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		final, err := f.opt.WorkloadCostPrepared(f.pw, optimizer.Configuration(res.Final.Defs()))
		if err != nil {
			t.Fatal(err)
		}
		if final > check.U*(1+1e-9) {
			t.Errorf("slack %.2f: final cost %v exceeds bound %v", slack, final, check.U)
		}
		if res.FinalBytes > res.InitialBytes {
			t.Errorf("slack %.2f: storage grew", slack)
		}
		if err := ValidateMinimalMerged(f.initial, res.Final); err != nil {
			t.Errorf("slack %.2f: %v", slack, err)
		}
	}
}

func TestGreedyMonotoneInConstraint(t *testing.T) {
	f := newSearchFixture(t)
	loose, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.50), f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.01), f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loose.FinalBytes > tight.FinalBytes {
		t.Errorf("looser constraint saved less storage: %d vs %d", loose.FinalBytes, tight.FinalBytes)
	}
}

func TestGreedyStepsTraceConsistent(t *testing.T) {
	f := newSearchFixture(t)
	res, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.30), f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no merges happened; fixture should allow at least one")
	}
	for i, s := range res.Steps {
		if s.BytesAfter > s.BytesBefore {
			t.Errorf("step %d grew storage: %d -> %d", i, s.BytesBefore, s.BytesAfter)
		}
	}
	if res.Final.Len() != f.initial.Len()-len(res.Steps) {
		// Each step removes exactly one index unless it collapsed a
		// duplicate, which removes one more; allow <=.
		if res.Final.Len() > f.initial.Len()-len(res.Steps) {
			t.Errorf("final %d indexes, %d steps from %d", res.Final.Len(), len(res.Steps), f.initial.Len())
		}
	}
}

func TestExhaustiveDominatesGreedy(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairCost{Seek: f.seek}
	g, err := GreedyContext(context.Background(), f.initial, mp, f.checker(0.15), f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExhaustiveContext(context.Background(), f.initial, mp, f.checker(0.15), f.db, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.FinalBytes > g.FinalBytes {
		t.Errorf("exhaustive (%d bytes) worse than greedy (%d bytes)", e.FinalBytes, g.FinalBytes)
	}
	if e.ConfigsExplored < g.ConfigsExplored {
		t.Errorf("exhaustive explored fewer configs (%d) than greedy (%d)", e.ConfigsExplored, g.ConfigsExplored)
	}
	if err := ValidateMinimalMerged(f.initial, e.Final); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveMaxConfigsGuard(t *testing.T) {
	f := newSearchFixture(t)
	_, err := ExhaustiveContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.5), f.db, ExhaustiveOptions{MaxConfigs: 1})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("runaway guard did not trip: %v", err)
	}
}

func TestNoCostChecker(t *testing.T) {
	f := newSearchFixture(t)
	check := &NoCostChecker{F: 0.60, P: 0.25, Tables: f.db}
	a := f.initial.Indexes[0]    // (d, m1): width 16
	b := f.initial.Indexes[1]    // (d, m2): width 16
	m, err := MergeOrdered(a, b) // (d, m1, m2): width 24
	if err != nil {
		t.Fatal(err)
	}
	// Growth 24 vs 16 = +50% > 25% ⇒ reject.
	ok, err := check.Accepts(context.Background(), nil, m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("50% growth accepted at p=25%")
	}
	// Loosen p: accept.
	loose := &NoCostChecker{F: 0.60, P: 1.0, Tables: f.db}
	ok, err = loose.Accepts(context.Background(), nil, m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("valid merge rejected at p=100%")
	}
	// f threshold: a merge wider than 60% of the table row width is
	// rejected. fact row width = 8*2+8*3+6+60 = 106; 60% = 63.6.
	wide1 := NewIndex(def("fact", "d", "k", "m1", "m2", "m3", "pad"))
	wide2 := NewIndex(def("fact", "tag"))
	wm, err := MergeOrdered(wide1, wide2) // width 106 > 63.6
	if err != nil {
		t.Fatal(err)
	}
	ok, err = loose.Accepts(context.Background(), nil, wm, wide1, wide2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("over-wide merge accepted at f=60%")
	}
}

func TestOptimizerCheckerCaching(t *testing.T) {
	f := newSearchFixture(t)
	check := f.checker(0.10)
	cfg := f.initial.Clone()
	if _, err := check.WorkloadCostContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	before := f.opt.InvocationCount()
	// Same configuration again: every per-query cost is cached.
	if _, err := check.WorkloadCostContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if f.opt.InvocationCount() != before {
		t.Errorf("cache miss: %d extra optimizer calls", f.opt.InvocationCount()-before)
	}
	// A config differing only on `dim` must not re-cost fact-only queries.
	dimIdx := f.initial.Indexes[4]
	other := NewIndex(def("dim", "name", "k"))
	next := cfg.ReplacePair(dimIdx, dimIdx, other) // replace dim index
	before = f.opt.InvocationCount()
	if _, err := check.WorkloadCostContext(context.Background(), next); err != nil {
		t.Fatal(err)
	}
	extra := f.opt.InvocationCount() - before
	if extra > 1 {
		t.Errorf("changing the dim index re-costed %d queries; only the join query references dim", extra)
	}
}

func TestExternalCostModel(t *testing.T) {
	f := newSearchFixture(t)
	ext := &ExternalCostModel{Meta: f.db, W: f.w}
	withIdx := ext.WorkloadCost(f.initial)
	empty := ext.WorkloadCost(&Configuration{})
	if withIdx <= 0 || empty <= 0 {
		t.Fatalf("non-positive external costs: %v, %v", withIdx, empty)
	}
	if withIdx >= empty {
		t.Errorf("indexes should reduce external cost: %v vs %v", withIdx, empty)
	}
	if ext.BaselineCost() != 0 {
		t.Errorf("bare model's baseline = %v, want 0", ext.BaselineCost())
	}
	cal := NewExternalCostModel(f.db, f.w, f.initial, 0.10)
	if cal.BaselineCost() != withIdx {
		t.Errorf("baseline = %v, want %v", cal.BaselineCost(), withIdx)
	}
}

func TestPrefilteredChecker(t *testing.T) {
	f := newSearchFixture(t)
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0.10)
	pre := &PrefilteredChecker{External: ext, Inner: f.checker(0.10)}
	res, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, pre, f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The result still honors the optimizer bound.
	final, err := f.opt.WorkloadCostPrepared(f.pw, optimizer.Configuration(res.Final.Defs()))
	if err != nil {
		t.Fatal(err)
	}
	if final > pre.Inner.U*(1+1e-9) {
		t.Errorf("prefiltered run broke the bound: %v > %v", final, pre.Inner.U)
	}
}

func TestCostMinimalDual(t *testing.T) {
	f := newSearchFixture(t)
	coster := f.checker(0) // used only as a WorkloadCoster here
	// Budget halfway between fully merged and initial.
	budget := f.initial.Bytes(f.db) * 3 / 4
	res, err := CostMinimalContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, coster, f.db, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.MetBudget && res.FinalBytes > budget {
		t.Errorf("claims budget met but %d > %d", res.FinalBytes, budget)
	}
	if res.FinalBytes > res.InitialBytes {
		t.Error("dual search grew storage")
	}
	if res.FinalCost <= 0 {
		t.Errorf("final cost %v not positive", res.FinalCost)
	}
	// Note: FinalCost may legitimately drop below InitialCost — a
	// merged index can cover a query whose plan previously paid RID
	// lookups (e.g. (k,m3)+(d,m1) covering the join query's slice).
	// A zero budget forces merging everything mergeable.
	res0, err := CostMinimalContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, coster, f.db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res0.MetBudget {
		t.Error("zero budget cannot be met")
	}
	if res0.FinalBytes > res.FinalBytes {
		t.Error("tighter budget ended with more storage")
	}
}

// TestCostMinimalReportsItsCostings: the dual reports the workload
// costings it made — the initial configuration's and one per candidate
// — and the optimizer calls its coster issued for them, as a delta: a
// second run over the coster's warm cells makes the same costings and
// no call.
func TestCostMinimalReportsItsCostings(t *testing.T) {
	f := newSearchFixture(t)
	coster := f.checker(0)
	budget := f.initial.Bytes(f.db) / 2
	var calls int64
	for run := 0; run < 2; run++ {
		before := coster.OptimizerCalls()
		res, err := CostMinimalContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, coster, f.db, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.ConfigsExplored == 0 {
			t.Fatal("the dual explored no candidate; the test has no teeth")
		}
		if res.CostEvaluations != res.ConfigsExplored+1 {
			t.Errorf("run %d: cost evaluations %d, want %d (explored + the initial)",
				run, res.CostEvaluations, res.ConfigsExplored+1)
		}
		if got := coster.OptimizerCalls() - before; res.OptimizerCalls != got {
			t.Errorf("run %d: optimizer calls %d, the coster issued %d", run, res.OptimizerCalls, got)
		}
		if run == 0 {
			calls = res.OptimizerCalls
		}
	}
	if calls == 0 {
		t.Error("a cold coster's run reports no optimizer call")
	}
}
