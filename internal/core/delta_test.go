package core

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/faults"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// deltaRig is a workload with everything the delta tests price it
// with: the reference optimizer, the prepared form, an initial
// configuration and its Seek-Costs.
type deltaRig struct {
	db      *engine.Database
	opt     *optimizer.Optimizer
	w       *sql.Workload
	pw      *optimizer.PreparedWorkload
	initial *Configuration
	seek    *SeekCosts
	base    float64
}

func fixtureRig(t testing.TB) *deltaRig {
	f := newSearchFixture(t)
	return &deltaRig{db: f.db, opt: f.opt, w: f.w, pw: f.pw, initial: f.initial, seek: f.seek, base: f.base}
}

// tpcdRigIndexes is what advisor.BuildInitialConfiguration(w, 16, seed
// 1) tunes for tpcdRig's workload, written out: the advisor costs its
// candidates on this package's EvalEach, so a test inside the package
// cannot import it.
var tpcdRigIndexes = []struct {
	table string
	cols  []string
}{
	{"lineitem", []string{"l_extendedprice", "l_returnflag"}},
	{"lineitem", []string{"l_shipdate", "l_orderkey", "l_commitdate", "l_linenumber", "l_quantity", "l_tax"}},
	{"lineitem", []string{"l_shipdate", "l_comment", "l_linestatus", "l_partkey"}},
	{"orders", []string{"o_orderdate", "o_clerk", "o_custkey"}},
	{"lineitem", []string{"l_quantity", "l_tax", "l_linenumber", "l_discount", "l_shipdate"}},
	{"lineitem", []string{"l_suppkey", "l_receiptdate", "l_discount", "l_comment", "l_extendedprice"}},
	{"lineitem", []string{"l_shipdate", "l_orderkey", "l_partkey"}},
	{"orders", []string{"o_custkey", "o_orderpriority"}},
	{"partsupp", []string{"ps_supplycost", "ps_availqty", "ps_partkey"}},
	{"lineitem", []string{"l_extendedprice", "l_linenumber", "l_orderkey", "l_partkey"}},
	{"orders", []string{"o_orderstatus", "o_orderkey", "o_clerk", "o_custkey"}},
	{"lineitem", []string{"l_discount", "l_extendedprice", "l_quantity", "l_suppkey"}},
	{"lineitem", []string{"l_comment", "l_partkey", "l_shipinstruct", "l_linestatus"}},
	{"lineitem", []string{"l_tax", "l_suppkey", "l_linestatus", "l_comment", "l_quantity"}},
	{"lineitem", []string{"l_shipinstruct", "l_suppkey"}},
	{"lineitem", []string{"l_comment", "l_discount", "l_extendedprice", "l_suppkey"}},
}

// tpcdRig is a generated TPC-D workload of 60 queries over 16 tuned
// indexes: multi-table joins, so that an index is on many queries'
// tables and relevant to few of them.
func tpcdRig(t testing.TB) *deltaRig {
	t.Helper()
	db, err := datagen.BuildTPCD(datagen.ScaledTPCD(0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Queries: 60, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(db)
	var defs []catalog.IndexDef
	for _, ix := range tpcdRigIndexes {
		def, err := catalog.NewIndexDef(db.Schema(), "", ix.table, ix.cols)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, def)
	}
	pw, err := opt.PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	initial := NewConfiguration(defs)
	base, err := opt.WorkloadCostPrepared(pw, optimizer.Configuration(defs))
	if err != nil {
		t.Fatal(err)
	}
	seek, err := ComputeSeekCostsPrepared(opt, pw, initial)
	if err != nil {
		t.Fatal(err)
	}
	return &deltaRig{db: db, opt: opt, w: w, pw: pw, initial: initial, seek: seek, base: base}
}

func (r *deltaRig) checker(slack float64) *OptimizerChecker {
	c := NewOptimizerChecker(r.opt, r.w, r.base, slack)
	c.Prepared = r.pw
	return c
}

// exact is the reference: the whole workload under the whole
// configuration, no cache, no relevance.
func (r *deltaRig) exact(t testing.TB, cfg *Configuration) float64 {
	t.Helper()
	v, err := r.opt.WorkloadCostPrepared(r.pw, optimizer.Configuration(cfg.Defs()))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// touched counts the queries a, b or m can matter to, by the contract's
// own statement of relevance rather than the checker's memo.
func (r *deltaRig) touched(ixs ...*Index) int {
	n := 0
	for _, pq := range r.pw.Queries {
		hit := false
		for _, ix := range ixs {
			hit = hit || pq.IndexRelevant(ix.Def.Table, ix.Def.Columns)
		}
		if hit {
			n++
		}
	}
	return n
}

// exactRecorder sits between a search and an OptimizerChecker. Every
// check is first held to the reference: at U = the exact total the
// checker must accept and one ulp below it must reject, which pins its
// total to the reference's bits; and it must have looked up exactly the
// queries the merge can touch when the candidate is one merge from the
// base, every query otherwise.
type exactRecorder struct {
	t     *testing.T
	rig   *deltaRig
	inner *OptimizerChecker
	base  *SearchBase

	delta, full, collapsed int
}

func (r *exactRecorder) Description() string   { return r.inner.Description() }
func (r *exactRecorder) Evaluations() int64    { return r.inner.Evaluations() }
func (r *exactRecorder) OptimizerCalls() int64 { return r.inner.OptimizerCalls() }

func (r *exactRecorder) SetBase(cfg *Configuration) {
	r.base = NewSearchBase(cfg)
	r.inner.SetBase(cfg)
}

func (r *exactRecorder) Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	r.t.Helper()
	u := r.inner.U
	defer func() { r.inner.U = u }()
	exact := r.rig.exact(r.t, cfg)

	lookups0 := lookupsOf(r.inner)
	r.inner.mu.Lock()
	priced := r.inner.base != nil && r.inner.base.costs != nil
	r.inner.mu.Unlock()
	r.inner.U = exact
	ok, err := r.inner.Accepts(ctx, cfg, m, a, b)
	if err != nil {
		return false, err
	}
	want := len(r.rig.w.Queries)
	if r.base != nil && r.base.Derives(cfg, m, a, b) {
		want = r.rig.touched(a, b, m)
		r.delta++
		if r.base.Cfg.Len()-cfg.Len() == 2 {
			r.collapsed++
		}
		if !priced {
			want += len(r.rig.w.Queries) // the check priced the base first
		}
	} else {
		r.full++
	}
	if lookups := int(lookupsOf(r.inner) - lookups0); lookups != want {
		r.t.Errorf("check of %v looked up %d queries, want %d", cfg.Signature(), lookups, want)
	}
	if !ok {
		r.t.Errorf("check of %v rejected at U = its exact cost %v", cfg.Signature(), exact)
	}
	r.inner.U = math.Nextafter(exact, 0)
	if ok, err := r.inner.Accepts(ctx, cfg, m, a, b); err != nil || ok {
		r.t.Errorf("check of %v accepted one ulp below its exact cost %v (err %v)", cfg.Signature(), exact, err)
	}
	r.inner.U = u
	ok, err = r.inner.Accepts(ctx, cfg, m, a, b)
	if err == nil && ok != (exact <= u) {
		r.t.Errorf("verdict %v for exact cost %v against U %v", ok, exact, u)
	}
	return ok, err
}

// lookupsOf counts the per-query cost lookups a checker has made.
func lookupsOf(c *OptimizerChecker) int64 {
	hits, misses, _ := c.CacheStats()
	return hits + misses
}

// TestDeltaMatchesFullGreedy walks Greedy over the search fixture and a
// generated TPC-D workload, holding every check to the reference.
func TestDeltaMatchesFullGreedy(t *testing.T) {
	for name, rig := range map[string]*deltaRig{"fixture": fixtureRig(t), "tpcd": tpcdRig(t)} {
		rec := &exactRecorder{t: t, rig: rig, inner: rig.checker(0.30)}
		res, err := Greedy(rig.initial, &MergePairCost{Seek: rig.seek}, rec, rig.db)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) == 0 || rec.delta == 0 {
			t.Errorf("%s: %d steps, %d delta checks: nothing was exercised", name, len(res.Steps), rec.delta)
		}
		if rec.full != 0 {
			t.Errorf("%s: %d of Greedy's checks were priced in full", name, rec.full)
		}
		if got := rig.exact(t, res.Final); got > rec.inner.U {
			t.Errorf("%s: final cost %v exceeds U %v", name, got, rec.inner.U)
		}
	}
}

// TestDeltaDuplicateCollapse checks a candidate whose merged index
// already exists in the base: ReplacePair folds the two into a fresh
// *Index and the configuration shrinks by two.
func TestDeltaDuplicateCollapse(t *testing.T) {
	rig := fixtureRig(t)
	a, b := rig.initial.Indexes[0], rig.initial.Indexes[1] // (d, m1), (d, m2)
	m, err := MergeOrdered(a, b)
	if err != nil {
		t.Fatal(err)
	}
	base := &Configuration{Indexes: append([]*Index{NewIndex(m.Def)}, rig.initial.Indexes...)}
	cand := base.ReplacePair(a, b, m)
	if cand.Len() != base.Len()-2 {
		t.Fatalf("candidate has %d indexes, base %d: no collapse", cand.Len(), base.Len())
	}
	rec := &exactRecorder{t: t, rig: rig, inner: rig.checker(0.30)}
	rec.SetBase(base)
	// Price the base through a first candidate, then the collapse.
	c, d := rig.initial.Indexes[2], rig.initial.Indexes[3]
	other, err := MergeOrdered(c, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rec.Accepts(ctx, base.ReplacePair(c, d, other), other, c, d); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Accepts(ctx, cand, m, a, b); err != nil {
		t.Fatal(err)
	}
	if rec.collapsed != 1 {
		t.Error("the collapsing candidate was not priced as a delta")
	}
}

// TestDeltaExhaustiveStaleSiblings runs Exhaustive, whose later
// siblings are checked after a subtree moved the base: they are priced
// in full and still match the reference.
func TestDeltaExhaustiveStaleSiblings(t *testing.T) {
	rig := fixtureRig(t)
	rec := &exactRecorder{t: t, rig: rig, inner: rig.checker(0.30)}
	res, err := Exhaustive(rig.initial, &MergePairCost{Seek: rig.seek}, rec, rig.db, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.delta == 0 || rec.full == 0 {
		t.Errorf("%d delta and %d full checks: want both", rec.delta, rec.full)
	}
	plain, err := Exhaustive(rig.initial, &MergePairCost{Seek: rig.seek}, noBaseChecker{rig.checker(0.30)}, rig.db, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runsEqual(t, plain, res)
}

// noBaseChecker hides the search's base from the checker it wraps, so
// that every candidate is priced in full.
type noBaseChecker struct{ ConstraintChecker }

func (noBaseChecker) SetBase(*Configuration) {}

// TestDeltaSearchIdentities: the search result does not depend on
// whether the checker is handed a base, how many candidates a wave
// checks at once, or who prepared the workload.
func TestDeltaSearchIdentities(t *testing.T) {
	rig := tpcdRig(t)
	mp := &MergePairCost{Seek: rig.seek}
	want, err := Greedy(rig.initial, mp, noBaseChecker{rig.checker(0.10)}, rig.db)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Steps) == 0 {
		t.Fatal("no merges happened; the rig should allow some")
	}
	ctx := context.Background()
	var serial *SearchResult
	var serialBits uint64
	for _, tc := range []struct {
		name     string
		prepared *optimizer.PreparedWorkload
		par      int
	}{
		{"supplied", rig.pw, 1},
		{"supplied, waves of 4", rig.pw, 4},
		{"prepared by the checker on first use", nil, 1},
	} {
		check := rig.checker(0.10)
		check.Prepared, check.Parallelism = tc.prepared, tc.par
		got, err := GreedyWithOptions(rig.initial, mp, check, rig.db, GreedyOptions{Parallelism: tc.par})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runsEqual(t, want, got)
		cost, err := check.WorkloadCostContext(ctx, got.Final)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if serial == nil {
			serial, serialBits = got, math.Float64bits(cost)
		}
		if math.Float64bits(cost) != serialBits {
			t.Errorf("%s: final cost %v, with a supplied workload %v", tc.name, cost, math.Float64frombits(serialBits))
		}
		if tc.par == 1 && got.OptimizerCalls != serial.OptimizerCalls {
			t.Errorf("%s: %d optimizer calls, with a supplied workload %d", tc.name, got.OptimizerCalls, serial.OptimizerCalls)
		}
	}

	// A prepared workload of another length than W is some other
	// workload's: every evaluation refuses it, naming both lengths.
	bad := rig.checker(0.10)
	nq := len(rig.pw.Queries)
	bad.Prepared = &optimizer.PreparedWorkload{W: rig.w, Queries: rig.pw.Queries[:nq-1]}
	_, err = Greedy(rig.initial, mp, bad, rig.db)
	for _, n := range []int{nq - 1, nq} {
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("mismatched Prepared: err = %v, want one naming %d and %d queries", err, nq-1, nq)
		}
	}
	if _, err := bad.WorkloadCostContext(ctx, rig.initial); err == nil {
		t.Error("mismatched Prepared: WorkloadCostContext priced it")
	}
}

// TestDeltaFailedCheckLeavesNoState fails the optimizer in the middle
// of pricing the base and again in the middle of a candidate, and holds
// the retry after each to the reference: a failed check records
// neither a base vector nor an accepted one.
func TestDeltaFailedCheckLeavesNoState(t *testing.T) {
	rig := tpcdRig(t)
	defer faults.Reset()
	rec := &exactRecorder{t: t, rig: rig, inner: rig.checker(0.30)}
	check := rec.inner
	ctx := context.Background()
	rec.SetBase(rig.initial)
	pairs := rig.initial.PairsByTable()
	cand := func(i int) (*Configuration, *Index, *Index, *Index) {
		a, b := pairs[i][0], pairs[i][1]
		m, err := (&MergePairCost{Seek: rig.seek}).Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return rig.initial.ReplacePair(a, b, m), m, a, b
	}

	// The base is priced by the first check: fail its third query.
	faults.Install(faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError, After: 2, Count: 1})
	cfg, m, a, b := cand(0)
	if _, err := check.Accepts(ctx, cfg, m, a, b); err == nil {
		t.Fatal("a failed optimizer call did not fail the check")
	}
	faults.Reset()
	if check.base.costs != nil || len(check.accepted) != 0 {
		t.Fatal("a check that failed while pricing the base left state behind")
	}
	if _, err := rec.Accepts(ctx, cfg, m, a, b); err != nil {
		t.Fatal(err)
	}

	// The base is priced now: fail the first miss of another candidate.
	baseCosts := append([]float64(nil), check.base.costs...)
	for i := len(pairs) - 1; i > 0; i-- {
		if cfg, m, a, b = cand(i); rig.touched(a, b, m) > 0 {
			break
		}
	}
	faults.Install(faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError, Count: 1})
	if _, err := check.Accepts(ctx, cfg, m, a, b); err == nil {
		t.Fatal("the candidate needed no optimizer call")
	}
	faults.Reset()
	if check.accepted[cfg] != nil {
		t.Fatal("a failed check left an accepted vector behind")
	}
	for qi, v := range check.base.costs {
		if math.Float64bits(v) != math.Float64bits(baseCosts[qi]) {
			t.Fatalf("a failed check changed the base's cost of query %d", qi)
		}
	}
	if _, err := rec.Accepts(ctx, cfg, m, a, b); err != nil {
		t.Fatal(err)
	}
	if rec.delta != 2 || rec.full != 0 {
		t.Errorf("%d delta and %d full checks, want the 2 retries as deltas", rec.delta, rec.full)
	}
}

// TestPrefilterForwardsBase: a prefiltered run whose external model
// vetoes nothing is the plain run, delta costing included.
func TestPrefilterForwardsBase(t *testing.T) {
	rig := tpcdRig(t)
	mp := &MergePairCost{Seek: rig.seek}
	plain, err := Greedy(rig.initial, mp, rig.checker(0.10), rig.db)
	if err != nil {
		t.Fatal(err)
	}
	// Uncalibrated (no SetBaseline), the external model passes everything.
	pre := &PrefilteredChecker{External: &ExternalCostModel{Meta: rig.db, W: rig.w}, Inner: rig.checker(0.10), SlackPct: 0.10}
	got, err := Greedy(rig.initial, mp, pre, rig.db)
	if err != nil {
		t.Fatal(err)
	}
	if pre.PrefilterRejections() != 0 {
		t.Fatalf("the external model vetoed %d candidates", pre.PrefilterRejections())
	}
	runsEqual(t, plain, got)
	if got.OptimizerCalls != plain.OptimizerCalls {
		t.Errorf("prefiltered run issued %d optimizer calls, plain %d", got.OptimizerCalls, plain.OptimizerCalls)
	}
	full := rig.checker(0.10)
	if _, err := Greedy(rig.initial, mp, noBaseChecker{full}, rig.db); err != nil {
		t.Fatal(err)
	}
	if pl, fl := lookupsOf(pre.Inner), lookupsOf(full); pl >= fl {
		t.Errorf("prefiltered run looked up %d query costs, a run without a base %d", pl, fl)
	}
}

// doubledUnits folds every query of the rig with a copy of itself, the
// way a compressed workload folds queries that differ in constants:
// unit i holds positions i and i+n of the doubled prepared workload.
// weight 0 weighs each member by its frequency (a registration), any
// other value weighs it by 1 and scales the cell on the way out (a
// window snapshot).
func (r *deltaRig) doubledUnits(scale float64) *Pricer {
	n := len(r.pw.Queries)
	pw2 := &optimizer.PreparedWorkload{Queries: append(append([]*optimizer.PreparedQuery(nil), r.pw.Queries...), r.pw.Queries...)}
	units := make([]Unit, n)
	for i, q := range r.w.Queries {
		units[i] = Unit{Members: []int{i, i + n}, Weights: []float64{q.Freq, q.Freq}, Scale: 1, Prefix: "t" + strconv.Itoa(i) + "\x1d"}
		if scale != 0 {
			units[i].Weights, units[i].Scale = []float64{1, 1}, scale
			units[i].Prefix = "f" + strconv.Itoa(i) + "e0\x1d"
		}
	}
	return NewPricer("doubled", r.opt, pw2, units, costcache.New(0))
}

// TestDeltaCachedCheckAllocatesNothing: a base-derived check whose
// affected units are all cached allocates nothing when it rejects, and
// only the vector the search may adopt when it accepts — whatever the
// units are.
func TestDeltaCachedCheckAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rig := tpcdRig(t)
	pair := rig.initial.PairsByTable()[0]
	a, b := pair[0], pair[1]
	m, err := (&MergePairCost{Seek: rig.seek}).Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rig.initial.ReplacePair(a, b, m)
	ctx := context.Background()
	for name, check := range map[string]*OptimizerChecker{
		"singleton units":                 rig.checker(0.30),
		"template units, registered keys": rig.doubledUnits(0).NewChecker(0, 0),
		"template units, window keys":     rig.doubledUnits(0.5).NewChecker(0, 0),
	} {
		// Cache the candidate: at U = 0 a check with misses is rejected
		// on its lower bound and fills nothing.
		if _, err := check.WorkloadCostContext(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		check.SetBase(rig.initial)
		for _, tc := range []struct {
			u      float64
			accept bool
			allocs float64
		}{{0, false, 0}, {math.Inf(1), true, 1}} {
			check.U = tc.u
			got := testing.AllocsPerRun(50, func() {
				if ok, err := check.Accepts(ctx, cfg, m, a, b); err != nil || ok != tc.accept {
					t.Fatalf("%s: Accepts = %v, %v at U = %v", name, ok, err, tc.u)
				}
			})
			if got != tc.allocs {
				t.Errorf("%s: a cached check with verdict %v allocates %v objects, want %v", name, tc.accept, got, tc.allocs)
			}
		}
		if check.PrunedChecks() != 0 {
			t.Errorf("%s: %d cached checks were pruned", name, check.PrunedChecks())
		}
	}
}
