package wscale

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"indexmerge/internal/core"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// testRig bundles one lab with a duplicated, disjunction-bearing
// workload compressed and prepared for decomposed costing.
type testRig struct {
	lab *experiments.Lab
	w   *sql.Workload
	c   *Compressed
	pw  *optimizer.PreparedWorkload
	p   *Prepared
	cfg *core.Configuration
}

func newTestRig(t *testing.T, duplication int) *testRig {
	t.Helper()
	return newSizedRig(t, 10, duplication, 8)
}

// newSizedRig is newTestRig over a workload of the given number of base
// queries and an initial configuration of up to n indexes.
func newSizedRig(t *testing.T, queries, duplication, n int) *testRig {
	t.Helper()
	lab, err := experiments.NewSynthetic2Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Disjunctions exercise the union access paths (whose arms are
	// exempt from the seek-lead prefilter and must still land in the
	// relevance test); Duplication exercises template folding.
	w, err := workload.Generate(lab.DB, workload.Options{
		Class: workload.Complex, Disjunctions: true,
		Queries: queries, Duplication: duplication, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := Compress(w)
	pw, err := lab.Opt.PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(c, pw, lab.Opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := lab.InitialConfiguration(w, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) < 4 {
		t.Fatalf("initial configuration too small: %d indexes", len(defs))
	}
	return &testRig{lab: lab, w: w, c: c, pw: pw, p: p, cfg: core.NewConfiguration(defs)}
}

// TestCompressClusters checks the clustering invariants: members share
// their template's fingerprint, every workload entry lands in exactly
// one template, frequencies sum, and duplication actually compresses.
func TestCompressClusters(t *testing.T) {
	r := newTestRig(t, 60)
	c := r.c
	if len(c.Templates) == 0 {
		t.Fatal("no templates")
	}
	if len(c.Templates) >= c.Statements() {
		t.Fatalf("duplication did not compress: %d templates for %d statements",
			len(c.Templates), c.Statements())
	}
	seen := make(map[int]bool)
	var freq float64
	for _, tpl := range c.Templates {
		if len(tpl.Members) == 0 {
			t.Fatalf("template %q has no members", tpl.Fingerprint)
		}
		for _, mi := range tpl.Members {
			if seen[mi] {
				t.Fatalf("query %d in two templates", mi)
			}
			seen[mi] = true
			if fp := c.W.Queries[mi].Stmt.Fingerprint(); fp != tpl.Fingerprint {
				t.Fatalf("member %d fingerprint %q != template %q", mi, fp, tpl.Fingerprint)
			}
		}
		freq += tpl.Freq
	}
	if len(seen) != c.Statements() {
		t.Fatalf("%d of %d statements clustered", len(seen), c.Statements())
	}
	if math.Abs(freq-c.TotalFreq()) > 1e-9 {
		t.Fatalf("template freq sum %v != workload total %v", freq, c.TotalFreq())
	}
	if c.DedupRatio() <= 1 {
		t.Fatalf("dedup ratio %v not > 1 on duplicated workload", c.DedupRatio())
	}
}

// relevantTo reports whether the index can contribute an access path to
// the template's queries, by the contract's own statement of relevance
// (asked, as the engine asks it, of the first member) rather than the
// engine's memo.
func (r *testRig) relevantTo(ti int, ix *core.Index) bool {
	return r.pw.Queries[r.c.Templates[ti].Members[0]].IndexRelevant(ix.Def.Table, ix.Def.Columns)
}

// TestAtomCostExactness is the subsystem's load-bearing invariant: a
// member's cost under its template's atomic configuration must equal —
// as float bits, not within a tolerance — its cost under the full
// configuration, and the engine's total must be the sum of exactly
// those costs. Checked across shrinking configurations, since the
// search only ever removes indexes from the initial one.
func TestAtomCostExactness(t *testing.T) {
	r := newTestRig(t, 40)
	full := r.cfg.Indexes
	variants := [][]*core.Index{
		full,
		full[:len(full)/2],
		nil, // empty configuration
	}
	// Every other index: exercises atoms that drop interior members.
	var alt []*core.Index
	for i, ix := range full {
		if i%2 == 0 {
			alt = append(alt, ix)
		}
	}
	variants = append(variants, alt)
	for vi, ixs := range variants {
		cfg := &core.Configuration{Indexes: ixs}
		fullDefs := optimizer.Configuration(cfg.Defs())
		total := 0.0
		for ti, tpl := range r.c.Templates {
			// The atom: the relevant indexes in sorted-key order.
			var atom []*core.Index
			for _, ix := range ixs {
				if r.relevantTo(ti, ix) {
					atom = append(atom, ix)
				}
			}
			sort.Slice(atom, func(i, j int) bool { return atom[i].Key() < atom[j].Key() })
			atomCfg := optimizer.Configuration((&core.Configuration{Indexes: atom}).Defs())
			cell := 0.0
			for _, mi := range tpl.Members {
				atomCost, err := r.lab.Opt.CostPrepared(r.pw.Queries[mi], atomCfg)
				if err != nil {
					t.Fatalf("variant %d template %d member %d: atom: %v", vi, ti, mi, err)
				}
				fullCost, err := r.lab.Opt.CostPrepared(r.pw.Queries[mi], fullDefs)
				if err != nil {
					t.Fatalf("variant %d template %d member %d: full: %v", vi, ti, mi, err)
				}
				if math.Float64bits(atomCost) != math.Float64bits(fullCost) {
					t.Errorf("variant %d template %d member %d: atom cost %v != full cost %v (atom %d of %d indexes)",
						vi, ti, mi, atomCost, fullCost, len(atom), len(ixs))
				}
				cell += atomCost * r.w.Queries[mi].Freq
			}
			total += cell
		}
		got, err := r.p.WorkloadCostContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(total) {
			t.Errorf("variant %d: the engine prices %v, the members under their atoms sum to %v", vi, got, total)
		}
	}
}

// TestWorkloadCostMatchesUncompressed compares the decomposed total
// against optimizer.WorkloadCostPrepared. Summation order differs
// (template order vs workload order) so equality is within a relative
// tolerance, not bit-exact.
func TestWorkloadCostMatchesUncompressed(t *testing.T) {
	r := newTestRig(t, 40)
	for _, ixs := range [][]*core.Index{r.cfg.Indexes, r.cfg.Indexes[:3], nil} {
		cfg := &core.Configuration{Indexes: ixs}
		got, err := r.p.WorkloadCostContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.lab.Opt.WorkloadCostPrepared(r.pw, optimizer.Configuration(cfg.Defs()))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%d indexes: decomposed cost %v != prepared cost %v", len(ixs), got, want)
		}
	}
	// The second sweep over the same configurations must be pure table
	// hits: no new optimizer calls.
	calls := r.p.OptimizerCalls()
	for _, ixs := range [][]*core.Index{r.cfg.Indexes, r.cfg.Indexes[:3], nil} {
		if _, err := r.p.WorkloadCostContext(context.Background(), &core.Configuration{Indexes: ixs}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.p.OptimizerCalls(); got != calls {
		t.Errorf("repeat costing issued %d optimizer calls; want 0", got-calls)
	}
	hits, _, _ := r.p.TableStats()
	if hits == 0 {
		t.Error("no cost-table hits after repeat costing")
	}
}

// TestOneEngineSharesTheTable: a registration's form holds one engine,
// shared by every goroutine that prices with it. Under concurrent use
// its totals are, bit for bit, the ones a fresh form's engine computes
// alone, and its table holds template cells only: at most one per
// (template, configuration).
func TestOneEngineSharesTheTable(t *testing.T) {
	r := newTestRig(t, 40)
	ctx := context.Background()
	configs := []*core.Configuration{r.cfg, {Indexes: r.cfg.Indexes[:3]}, {}}
	want := make([]float64, len(configs))
	for i, cfg := range configs {
		fresh, err := Prepare(r.c, r.pw, r.lab.Opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = fresh.WorkloadCostContext(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, cfg := range configs {
				if got, err := NewChecker(r.p, 0, 0).WorkloadCostContext(ctx, cfg); err != nil || math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d, config %d: the form's engine prices %v (%v), want %v", g, i, got, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if n := r.p.TableLen(); n == 0 || n > len(configs)*len(r.c.Templates) {
		t.Errorf("table holds %d cells; want template cells only (at most %d)", n, len(configs)*len(r.c.Templates))
	}
	if len(r.c.Templates) >= len(r.w.Queries) {
		t.Fatalf("%d templates for %d queries; the rig does not compress", len(r.c.Templates), len(r.w.Queries))
	}
}

// TestCheckerDeltaMatchesFull drives the delta path through every
// candidate merge of the initial configuration and proves its total is
// bit-identical to the full decomposed costing: with U set to the
// candidate's exact cost the delta check must accept, and with U one
// ulp below it must reject.
func TestCheckerDeltaMatchesFull(t *testing.T) {
	r := newTestRig(t, 30)
	seek, err := core.ComputeSeekCostsPrepared(r.lab.Opt, r.pw, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp := &core.MergePairCost{Seek: seek}
	chk := NewChecker(r.p, 0, 0)
	chk.SetBase(r.cfg)
	// Price the base, so that each check below looks up its delta alone.
	chk.U = math.Inf(1)
	if _, err := chk.Accepts(context.Background(), r.cfg, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, pair := range r.cfg.PairsByTable() {
		a, b := pair[0], pair[1]
		m, err := mp.Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		next := r.cfg.ReplacePair(a, b, m)
		exact, err := r.p.WorkloadCostContext(context.Background(), next)
		if err != nil {
			t.Fatal(err)
		}
		touched := 0
		for ti := range r.c.Templates {
			if r.relevantTo(ti, a) || r.relevantTo(ti, b) || r.relevantTo(ti, m) {
				touched++
			}
		}
		lookups := r.lookups()

		chk.U = exact
		ok, err := chk.Accepts(context.Background(), next, m, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("merge %s+%s: rejected at U == exact cost %v (delta total differs from full)", a.Key(), b.Key(), exact)
		}
		chk.U = math.Nextafter(exact, 0)
		ok, err = chk.Accepts(context.Background(), next, m, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("merge %s+%s: accepted at U just below exact cost %v", a.Key(), b.Key(), exact)
		}
		if got := r.lookups() - lookups; got != int64(2*touched) || touched == len(r.c.Templates) {
			t.Fatalf("merge %s+%s: two checks looked up %d templates, want the %d of %d the merge can touch, twice",
				a.Key(), b.Key(), got, touched, len(r.c.Templates))
		}
	}
}

// lookups counts the cost-table lookups made so far.
func (r *testRig) lookups() int64 {
	hits, misses, _ := r.p.TableStats()
	return hits + misses
}

// TestCheckerPrunesWithoutCosting: once the base is costed, its atoms
// bound every candidate's atoms from below, so with U far beneath the
// base cost a candidate must be rejected by the bound alone — no
// optimizer calls.
func TestCheckerPrunesWithoutCosting(t *testing.T) {
	r := newTestRig(t, 30)
	base, err := r.p.WorkloadCostContext(context.Background(), r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	seek, err := core.ComputeSeekCostsPrepared(r.lab.Opt, r.pw, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp := &core.MergePairCost{Seek: seek}
	chk := NewChecker(r.p, base/2, 0)
	chk.SetBase(r.cfg)

	pair := r.cfg.PairsByTable()[0]
	a, b := pair[0], pair[1]
	m, err := mp.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	next := r.cfg.ReplacePair(a, b, m)
	calls := r.p.OptimizerCalls()
	ok, err := chk.Accepts(context.Background(), next, m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("accepted a candidate with U at half the base cost")
	}
	if chk.PrunedChecks() != 1 {
		t.Fatalf("PrunedChecks = %d, want 1", chk.PrunedChecks())
	}
	if got := r.p.OptimizerCalls(); got != calls {
		t.Errorf("pruned check issued %d optimizer calls; want 0", got-calls)
	}
}

// TestCheckerStaleBaseFallsBack: a candidate that is not one merge away
// from the current base (Exhaustive's later sibling batches after a
// subtree re-based the checker) must be priced in full, and still
// correctly.
func TestCheckerStaleBaseFallsBack(t *testing.T) {
	r := newTestRig(t, 30)
	seek, err := core.ComputeSeekCostsPrepared(r.lab.Opt, r.pw, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp := &core.MergePairCost{Seek: seek}
	pairs := r.cfg.PairsByTable()
	if len(pairs) < 2 {
		t.Skip("not enough merge pairs")
	}
	// Candidate built against r.cfg...
	a, b := pairs[0][0], pairs[0][1]
	m, err := mp.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	next := r.cfg.ReplacePair(a, b, m)
	// ...but the checker was re-based to a different configuration.
	other := r.cfg.ReplacePair(pairs[1][0], pairs[1][1], mustMerge(t, mp, pairs[1][0], pairs[1][1]))
	exact, err := r.p.WorkloadCostContext(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(r.p, 0, 0)
	chk.SetBase(other)
	chk.U = exact
	// Price the stale base first: the lookups counted are the check's own.
	if _, err := chk.Accepts(context.Background(), other, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	lookups := r.lookups()
	ok, err := chk.Accepts(context.Background(), next, m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("stale-base full costing rejected at U == exact cost")
	}
	if got := r.lookups() - lookups; got != int64(len(r.c.Templates)) {
		t.Errorf("the check looked up %d templates, want all %d (stale base must fall back)", got, len(r.c.Templates))
	}
}

func mustMerge(t *testing.T, mp core.MergePair, a, b *core.Index) *core.Index {
	t.Helper()
	m, err := mp.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckerGreedyMatchesOptimizerChecker runs the same greedy search
// under the uncompressed OptimizerChecker and the decomposed Checker:
// on a workload with duplicated templates both must arrive at the same
// final configuration (or provably equal cost), with the compressed run
// issuing strictly fewer optimizer calls.
func TestCheckerGreedyMatchesOptimizerChecker(t *testing.T) {
	r := newTestRig(t, 40)
	seek, err := core.ComputeSeekCostsPrepared(r.lab.Opt, r.pw, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseCost, err := r.lab.Opt.WorkloadCostPrepared(r.pw, optimizer.Configuration(r.cfg.Defs()))
	if err != nil {
		t.Fatal(err)
	}
	slack := 0.15

	plain := core.NewOptimizerChecker(r.lab.Opt, r.w, baseCost, slack)
	plain.Prepared = r.pw
	resPlain, err := core.GreedyContext(context.Background(), r.cfg, &core.MergePairCost{Seek: seek}, plain, r.lab.DB, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	compBase, err := r.p.WorkloadCostContext(context.Background(), r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewChecker(r.p, compBase, slack)
	resComp, err := core.GreedyContext(context.Background(), r.cfg, &core.MergePairCost{Seek: seek}, comp, r.lab.DB, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if resPlain.Final.Signature() != resComp.Final.Signature() {
		// Last-ulp differences in the two checkers' totals can flip a
		// borderline acceptance; the runs then still must agree on cost.
		pc, err := r.lab.Opt.WorkloadCostPrepared(r.pw, optimizer.Configuration(resPlain.Final.Defs()))
		if err != nil {
			t.Fatal(err)
		}
		cc, err := r.lab.Opt.WorkloadCostPrepared(r.pw, optimizer.Configuration(resComp.Final.Defs()))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pc-cc) > 1e-9*math.Max(1, math.Abs(pc)) {
			t.Errorf("final configurations diverge:\n plain %s (cost %v)\n compressed %s (cost %v)",
				resPlain.Final.Signature(), pc, resComp.Final.Signature(), cc)
		}
	}
	// Both checkers price only the queries a merge can touch; what the
	// compressed one adds — folded duplicates, pruned checks — can only
	// save calls, and on a workload with neither the two are equal.
	if comp.OptimizerCalls() > plain.OptimizerCalls() {
		t.Errorf("compressed search issued %d optimizer calls, uncompressed %d",
			comp.OptimizerCalls(), plain.OptimizerCalls())
	}
	t.Logf("greedy parity: %d vs %d optimizer calls (%.1fx), %d templates for %d statements",
		comp.OptimizerCalls(), plain.OptimizerCalls(),
		float64(plain.OptimizerCalls())/math.Max(1, float64(comp.OptimizerCalls())),
		len(r.c.Templates), r.c.Statements())
}

// TestDistinctWorkloadSameWorkEitherWay: a distinct workload is a
// compressed workload with dedup ratio 1. Priced as singleton units and
// as template units, each on a cold store of its own, Greedy takes the
// same steps for the same work: the same optimizer calls, the same store
// lookups and, within a tenth, the same number of allocations (checked
// without the race detector only). On a log-like workload the template
// units can only save calls.
func TestDistinctWorkloadSameWorkEitherWay(t *testing.T) {
	const slack = 0.10
	type run struct {
		res          *core.SearchResult
		hits, misses int64
		mallocs      uint64
	}
	search := func(r *testRig, chk *core.OptimizerChecker) run {
		t.Helper()
		// The compressed model's contract: the initial configuration is
		// priced through the checker first, which makes the first base
		// of the search all hits.
		base, err := chk.WorkloadCostContext(context.Background(), r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		chk.U = base * (1 + slack)
		seek, err := core.ComputeSeekCostsPrepared(r.lab.Opt, r.pw, r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		hits0, misses0, _ := chk.CacheStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := core.GreedyContext(context.Background(), r.cfg, &core.MergePairCost{Seek: seek}, chk, r.lab.DB, core.GreedyOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses, _ := chk.CacheStats()
		return run{res, hits - hits0, misses - misses0, after.Mallocs - before.Mallocs}
	}
	both := func(r *testRig) (singleton, template run) {
		plain := core.NewOptimizerChecker(r.lab.Opt, r.w, 0, 0)
		plain.Prepared = r.pw
		return search(r, plain), search(r, NewChecker(r.p, 0, 0))
	}

	r := newSizedRig(t, 120, 0, 20)
	if len(r.c.Templates) != len(r.w.Queries) {
		t.Fatalf("%d templates for %d statements: the workload is not distinct", len(r.c.Templates), len(r.w.Queries))
	}
	s, c := both(r)
	if len(s.res.Steps) == 0 {
		t.Fatal("no merges happened; the rig should allow some")
	}
	if s.res.Final.Signature() != c.res.Final.Signature() || !reflect.DeepEqual(s.res.Steps, c.res.Steps) ||
		s.res.CostEvaluations != c.res.CostEvaluations {
		t.Errorf("the searches diverged:\n singleton %s in %d steps, %d checks\n template  %s in %d steps, %d checks",
			s.res.Final.Signature(), len(s.res.Steps), s.res.CostEvaluations,
			c.res.Final.Signature(), len(c.res.Steps), c.res.CostEvaluations)
	}
	if s.res.OptimizerCalls != c.res.OptimizerCalls || s.hits != c.hits || s.misses != c.misses {
		t.Errorf("singleton units: %d optimizer calls, %d hits, %d misses; template units: %d, %d, %d",
			s.res.OptimizerCalls, s.hits, s.misses, c.res.OptimizerCalls, c.hits, c.misses)
	}
	// The race detector drops sync.Pool puts at random, which moves the
	// malloc counts by more than the tenth compared here.
	if lo, hi := min(s.mallocs, c.mallocs), max(s.mallocs, c.mallocs); !raceEnabled && float64(hi) > 1.10*float64(lo) {
		t.Errorf("singleton units allocated %d objects across the search, template units %d", s.mallocs, c.mallocs)
	}
	t.Logf("distinct: %d steps, %d checks, %d calls, %d+%d lookups, %d / %d mallocs, %v / %v",
		len(s.res.Steps), s.res.CostEvaluations, s.res.OptimizerCalls, s.hits, s.misses, s.mallocs, c.mallocs, s.res.Elapsed, c.res.Elapsed)

	r = newSizedRig(t, 120, 2000, 20)
	s, c = both(r)
	if s.res.Final.Signature() != c.res.Final.Signature() {
		// Last-ulp differences in the two totals can flip a borderline
		// acceptance; the runs then still must agree on cost.
		sc, err := r.lab.Opt.WorkloadCostPrepared(r.pw, optimizer.Configuration(s.res.Final.Defs()))
		if err != nil {
			t.Fatal(err)
		}
		cc, err := r.lab.Opt.WorkloadCostPrepared(r.pw, optimizer.Configuration(c.res.Final.Defs()))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sc-cc) > 1e-9*math.Max(1, math.Abs(sc)) {
			t.Errorf("final configurations diverge:\n singleton %s (cost %v)\n template  %s (cost %v)",
				s.res.Final.Signature(), sc, c.res.Final.Signature(), cc)
		}
	}
	if c.res.OptimizerCalls > s.res.OptimizerCalls {
		t.Errorf("template units issued %d optimizer calls, singleton units %d", c.res.OptimizerCalls, s.res.OptimizerCalls)
	}
	t.Logf("log-like (%d statements, %d templates): %d vs %d calls, %d vs %d lookups, %d vs %d mallocs, %v vs %v",
		len(r.w.Queries), len(r.c.Templates), s.res.OptimizerCalls, c.res.OptimizerCalls,
		s.hits+s.misses, c.hits+c.misses, s.mallocs, c.mallocs, s.res.Elapsed, c.res.Elapsed)
}
