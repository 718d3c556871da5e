// Identity tests for prepared-workload planning. One planner serves
// every entry point, so these compare what can still differ: a
// descriptor prepared per call against one prepared once and shared, the
// cost-only pass against the cost of the plan built from the same pass,
// and the relevant-index prefilter on against off — costs as float bits,
// not within a tolerance. That plans did not change from one commit to
// the next is TestPlanGolden's job.
package indexmerge

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/workload"
)

func identityLabs(t *testing.T) []*experiments.Lab {
	t.Helper()
	labs, err := experiments.StandardLabs(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return labs
}

// identityConfigs builds representative configurations: no indexes,
// and a per-query-tuned initial configuration (§4.2.3) whose wide
// covering indexes exercise seeks, scans and intersections.
func identityConfigs(t *testing.T, lab *experiments.Lab) []optimizer.Configuration {
	t.Helper()
	defs, err := lab.InitialConfiguration(lab.Complex, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) == 0 {
		t.Fatal("no initial indexes recommended")
	}
	return []optimizer.Configuration{nil, optimizer.Configuration(defs), optimizer.Configuration(defs[:1+len(defs)/2])}
}

func sameUses(a, b []optimizer.IndexUse) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Mode != b[i].Mode || a[i].Index.Key() != b[i].Index.Key() {
			return false
		}
	}
	return true
}

// TestPreparedMatchesOptimize checks, on every (database, workload
// class, configuration, ablation) combination: Optimize (which prepares
// per call) against OptimizePrepared, CostPrepared against the built
// plan's cost, and — the one guard that prefiltering changes no plan —
// every ablation's plan with the relevant-index prefilter off against
// the same ablation with it on.
func TestPreparedMatchesOptimize(t *testing.T) {
	for _, lab := range identityLabs(t) {
		cfgs := identityConfigs(t, lab)
		// A dedicated disjunction-bearing workload exercises the union
		// access paths, whose arms are exempt from the prefilter.
		disjunct, err := workload.Generate(lab.DB, workload.Options{
			Class: workload.Complex, Disjunctions: true, Queries: 12, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		workloads := map[string]*Workload{"complex": lab.Complex, "projection": lab.Projection, "disjunct": disjunct}
		for wname, w := range workloads {
			pw, err := optimizer.PrepareWorkload(w, lab.DB)
			if err != nil {
				t.Fatalf("%s/%s: prepare: %v", lab.Name, wname, err)
			}
			for _, v := range []struct {
				name             string
				noInter, noUnion bool
			}{{"base", false, false}, {"nointersect", true, false}, {"nounion", false, true}} {
				opt, unfiltered := optimizer.New(lab.DB), optimizer.New(lab.DB)
				opt.DisableIndexIntersection, unfiltered.DisableIndexIntersection = v.noInter, v.noInter
				opt.DisableIndexUnion, unfiltered.DisableIndexUnion = v.noUnion, v.noUnion
				unfiltered.DisableRelevantIndexFilter = true
				for ci, cfg := range cfgs {
					for qi, q := range w.Queries {
						tag := fmt.Sprintf("%s/%s/%s cfg=%d q=%d", lab.Name, wname, v.name, ci, qi+1)
						planP, err := opt.OptimizePrepared(pw.Queries[qi], cfg)
						if err != nil {
							t.Fatalf("%s: OptimizePrepared: %v", tag, err)
						}
						samePlan := func(what string, other *optimizer.Plan, err error) {
							t.Helper()
							if err != nil {
								t.Fatalf("%s: %s: %v", tag, what, err)
							}
							if math.Float64bits(other.Cost) != math.Float64bits(planP.Cost) ||
								other.Explain() != planP.Explain() || !sameUses(other.Uses, planP.Uses) {
								t.Errorf("%s: %s differs from OptimizePrepared:\n%s(cost %v, uses %v)\n-- OptimizePrepared:\n%s(cost %v, uses %v)",
									tag, what, other.Explain(), other.Cost, other.Uses, planP.Explain(), planP.Cost, planP.Uses)
							}
						}
						plan, err := opt.Optimize(q.Stmt, cfg)
						samePlan("Optimize", plan, err)
						plan, err = unfiltered.OptimizePrepared(pw.Queries[qi], cfg)
						samePlan("prefilter off", plan, err)
						for _, o := range []*optimizer.Optimizer{opt, unfiltered} {
							cost, err := o.CostPrepared(pw.Queries[qi], cfg)
							if err != nil {
								t.Fatalf("%s: CostPrepared: %v", tag, err)
							}
							if math.Float64bits(cost) != math.Float64bits(planP.Cost) {
								t.Errorf("%s: CostPrepared %v != plan cost %v", tag, cost, planP.Cost)
							}
						}
					}
				}
			}
		}
	}
}

// TestCostPreparedConcurrentSharedWorkload shares one PreparedWorkload
// across goroutines costing different configurations — the exact
// sharing pattern of parallel candidate costing. Run under -race it
// proves descriptors are read-only; the cost comparison proves results
// do not depend on interleaving.
func TestCostPreparedConcurrentSharedWorkload(t *testing.T) {
	lab, err := experiments.NewSynthetic2Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := lab.InitialConfiguration(lab.Complex, 8)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := lab.Opt.PrepareWorkload(lab.Complex)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []optimizer.Configuration
	for i := 1; i <= len(defs); i++ {
		cfgs = append(cfgs, optimizer.Configuration(defs[:i]))
	}

	want := make([][]float64, len(cfgs))
	for ci, cfg := range cfgs {
		want[ci] = make([]float64, pw.Len())
		for qi := range pw.Queries {
			want[ci][qi], err = lab.Opt.CostPrepared(pw.Queries[qi], cfg)
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for ci, cfg := range cfgs {
					for qi := range pw.Queries {
						got, err := lab.Opt.CostPrepared(pw.Queries[qi], cfg)
						if err != nil {
							errs[g] = err
							return
						}
						if math.Float64bits(got) != math.Float64bits(want[ci][qi]) {
							errs[g] = fmt.Errorf("cfg %d q %d: concurrent cost %v != serial %v", ci, qi+1, got, want[ci][qi])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFacadePreparedFastPathGuard fails the build if any costing in a
// facade merge bypasses the prepared fast path: after a full merge,
// every optimizer invocation must have been a prepared one.
func TestFacadePreparedFastPathGuard(t *testing.T) {
	lab, err := experiments.NewSynthetic1Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := lab.InitialConfiguration(lab.Complex, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(lab.DB, lab.Complex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.10}); err != nil {
		t.Fatal(err)
	}
	opt := m.Optimizer()
	if opt.InvocationCount() == 0 {
		t.Fatal("merge performed no optimizer invocations")
	}
	if opt.PreparedCallCount() != opt.InvocationCount() {
		t.Fatalf("prepared fast path bypassed: %d of %d invocations were prepared",
			opt.PreparedCallCount(), opt.InvocationCount())
	}
}

// TestPreparedStaleness: descriptors bake in selectivities and
// cardinalities, so rebuilding statistics must invalidate them —
// erroring on direct use, and transparently re-preparing through the
// facade's version-checked accessor.
func TestPreparedStaleness(t *testing.T) {
	lab, err := experiments.NewSynthetic1Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := lab.Opt.PrepareWorkload(lab.Complex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Opt.CostPrepared(pw.Queries[0], nil); err != nil {
		t.Fatalf("fresh descriptor: %v", err)
	}

	m, err := NewMerger(lab.DB, lab.Complex)
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.PreparedWorkload()
	if err != nil {
		t.Fatal(err)
	}

	lab.DB.AnalyzeAll()

	if _, err := lab.Opt.CostPrepared(pw.Queries[0], nil); err == nil {
		t.Fatal("stale descriptor costed without error after Analyze")
	}
	after, err := m.PreparedWorkload()
	if err != nil {
		t.Fatalf("facade re-prepare: %v", err)
	}
	if after == before {
		t.Fatal("facade served the stale prepared workload after Analyze")
	}
	if _, err := lab.Opt.CostPrepared(after.Queries[0], nil); err != nil {
		t.Fatalf("re-prepared descriptor: %v", err)
	}
}

// TestCostPreparedAllocations asserts the hot path's allocation
// behavior: candidate costing through CostPrepared must allocate at
// least 5× less than unprepared Optimize-based costing, and stay under
// a small absolute per-query bound (the pooled scratch makes the
// steady state allocation-free for simple queries).
func TestCostPreparedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; allocation counts are not meaningful")
	}
	lab, err := experiments.NewSynthetic2Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := lab.InitialConfiguration(lab.Complex, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := optimizer.Configuration(defs)
	pw, err := lab.Opt.PrepareWorkload(lab.Complex)
	if err != nil {
		t.Fatal(err)
	}
	queries := float64(pw.Len())

	prepared := testing.AllocsPerRun(20, func() {
		for qi := range pw.Queries {
			if _, err := lab.Opt.CostPrepared(pw.Queries[qi], cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	unprepared := testing.AllocsPerRun(20, func() {
		for _, q := range lab.Complex.Queries {
			if _, err := lab.Opt.Cost(q.Stmt, cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("allocs per workload costing: prepared %.1f, unprepared %.1f (%.0f queries)", prepared, unprepared, queries)
	if prepared > 2*queries {
		t.Errorf("prepared costing allocates %.1f per workload (> %.0f = 2/query)", prepared, 2*queries)
	}
	if unprepared < 5*prepared {
		t.Errorf("allocation reduction below 5x: prepared %.1f, unprepared %.1f", prepared, unprepared)
	}

	// Union costing must hold the same bound: its arm scratch is pooled
	// alongside the rest of the cost-only state.
	disjunct, err := workload.Generate(lab.DB, workload.Options{
		Class: workload.Complex, Disjunctions: true, Queries: 12, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pwd, err := lab.Opt.PrepareWorkload(disjunct)
	if err != nil {
		t.Fatal(err)
	}
	preparedDisjunct := testing.AllocsPerRun(20, func() {
		for qi := range pwd.Queries {
			if _, err := lab.Opt.CostPrepared(pwd.Queries[qi], cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("allocs per disjunction workload costing: prepared %.1f (%d queries)", preparedDisjunct, pwd.Len())
	if preparedDisjunct > 2*float64(pwd.Len()) {
		t.Errorf("prepared disjunction costing allocates %.1f per workload (> %d = 2/query)", preparedDisjunct, 2*pwd.Len())
	}
}
