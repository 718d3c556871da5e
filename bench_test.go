// Benchmarks regenerating every table and figure in the paper's
// evaluation (§4) plus the introduction's numbers. Each benchmark runs
// the corresponding experiment end to end and reports the headline
// quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same series the paper does. Shapes, not absolute numbers,
// are the reproduction target (see EXPERIMENTS.md).
package indexmerge

import (
	"runtime"
	"testing"

	"indexmerge/internal/core"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/workload"
	"indexmerge/internal/wscale"
)

// benchLabs builds the three databases at a bench-friendly scale.
func benchLabs(b *testing.B) []*experiments.Lab {
	b.Helper()
	labs, err := experiments.StandardLabs(experiments.LabOptions{Scale: 0.5, WorkloadQueries: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return labs
}

func benchTPCD(b *testing.B) *experiments.Lab {
	b.Helper()
	lab, err := experiments.NewTPCDLab(experiments.LabOptions{Scale: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return lab
}

// BenchmarkIntroQ1Q3 regenerates the introduction's motivating example:
// merging the TPC-D Q1 and Q3 covering indexes (paper: storage −38%,
// maintenance −22%, query cost +3%).
func BenchmarkIntroQ1Q3(b *testing.B) {
	lab := benchTPCD(b)
	var res *experiments.IntroQ1Q3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunIntroQ1Q3(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.StorageReduction(), "storage-saved-%")
	b.ReportMetric(100*res.MaintenanceReduction(), "maint-saved-%")
	b.ReportMetric(100*res.QueryCostIncrease(), "qcost-increase-%")
}

// BenchmarkIntroTPCD17 regenerates the 17-query study (paper: 5× data
// → 2.3× data at ≈5% cost increase).
func BenchmarkIntroTPCD17(b *testing.B) {
	lab := benchTPCD(b)
	var res *experiments.IntroTPCD17Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunIntroTPCD17(lab, 0.10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TunedRatio, "tuned-x-data")
	b.ReportMetric(res.MergedRatio, "merged-x-data")
	b.ReportMetric(100*res.CostIncrease, "cost-increase-%")
}

// BenchmarkFigure5 regenerates Figure 5 (quality of Greedy): storage
// reduction for Exhaustive, Greedy-Cost-Opt and Greedy-Cost-None at
// N=5, 10% cost constraint, complex workload, all three databases.
func BenchmarkFigure5(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.SearchComparisonRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSearchComparison(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ex, gco, gcn float64
	for _, r := range rows {
		ex += 100 * r.ExhaustiveReduction / float64(len(rows))
		gco += 100 * r.GreedyOptReduction / float64(len(rows))
		gcn += 100 * r.GreedyNoneReduction / float64(len(rows))
	}
	b.ReportMetric(ex, "exhaustive-%")
	b.ReportMetric(gco, "greedy-opt-%")
	b.ReportMetric(gcn, "greedy-none-%")
}

// BenchmarkFigure6 regenerates Figure 6 (running time of Greedy as a
// fraction of Exhaustive) from the same runs as Figure 5.
func BenchmarkFigure6(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.SearchComparisonRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSearchComparison(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			b.Fatal(err)
		}
	}
	var gcoPct float64
	var evalRatio float64
	n := 0.0
	for _, r := range rows {
		if r.ExhaustiveTime > 0 {
			gcoPct += 100 * float64(r.GreedyOptTime) / float64(r.ExhaustiveTime)
			n++
		}
		if r.ExhaustiveEvals > 0 {
			evalRatio += 100 * float64(r.GreedyOptEvals) / float64(r.ExhaustiveEvals)
		}
	}
	if n > 0 {
		b.ReportMetric(gcoPct/n, "greedy-time-%of-exhaustive")
		b.ReportMetric(evalRatio/n, "greedy-evals-%of-exhaustive")
	}
}

// BenchmarkFigure7 regenerates Figure 7 (MergePair procedures):
// storage reduction under Greedy-Cost-Opt with MergePair-Exhaustive,
// MergePair-Cost and MergePair-Syntactic.
func BenchmarkFigure7(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.MergePairComparisonRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunMergePairComparison(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ex, cost, syn float64
	for _, r := range rows {
		ex += 100 * r.ExhaustiveReduction / float64(len(rows))
		cost += 100 * r.CostReduction / float64(len(rows))
		syn += 100 * r.SyntacticReduction / float64(len(rows))
	}
	b.ReportMetric(ex, "mp-exhaustive-%")
	b.ReportMetric(cost, "mp-cost-%")
	b.ReportMetric(syn, "mp-syntactic-%")
}

// BenchmarkFigure8 regenerates Figure 8 (reduction in index
// maintenance cost): 1% batch inserts into the two largest tables
// under initial vs merged configurations, cost constraint 20%,
// N ∈ {5, 10, 15} (the paper sweeps to 30; the bench keeps the sweep
// short — cmd/experiments runs the full one).
func BenchmarkFigure8(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.MaintenanceRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunMaintenanceComparison(labs, []int{5, 10, 15}, experiments.Fig8Constraint)
		if err != nil {
			b.Fatal(err)
		}
	}
	var red float64
	for _, r := range rows {
		red += 100 * r.Reduction() / float64(len(rows))
	}
	b.ReportMetric(red, "maint-saved-%")
}

// BenchmarkGreedyCosting compares serial and parallel candidate
// costing in the Greedy search on a ≥20-index Synthetic2 configuration
// (the parallelism tentpole). Sub-benchmark ns/op gives the speedup;
// on a multicore machine the parallel variant should run ≥2× faster
// while — asserted here — producing the identical final configuration.
// A fresh checker (and so a cold what-if cache) is used per iteration
// to keep the comparison fair.
func BenchmarkGreedyCosting(b *testing.B) {
	lab, err := experiments.NewSynthetic2Lab(experiments.LabOptions{Scale: 0.5, WorkloadQueries: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defs, err := lab.InitialConfiguration(lab.Complex, 20)
	if err != nil {
		b.Fatal(err)
	}
	if len(defs) < 20 {
		b.Fatalf("only %d initial indexes; need ≥20", len(defs))
	}
	initial := core.NewConfiguration(defs)
	base, err := lab.WorkloadCost(lab.Complex, defs)
	if err != nil {
		b.Fatal(err)
	}
	pw, err := lab.Opt.PrepareWorkload(lab.Complex)
	if err != nil {
		b.Fatal(err)
	}
	seek, err := core.ComputeSeekCostsPrepared(lab.Opt, pw, initial)
	if err != nil {
		b.Fatal(err)
	}
	mp := &core.MergePairCost{Seek: seek}

	run := func(b *testing.B, parallelism int) *core.SearchResult {
		var res *core.SearchResult
		for i := 0; i < b.N; i++ {
			check := core.NewOptimizerChecker(lab.Opt, lab.Complex, base, 0.10)
			check.Parallelism, check.Prepared = parallelism, pw
			res, err = core.GreedyWithOptions(initial, mp, check, lab.DB, core.GreedyOptions{Parallelism: parallelism})
			if err != nil {
				b.Fatal(err)
			}
		}
		return res
	}

	var serialSig, parallelSig string
	b.Run("serial", func(b *testing.B) {
		res := run(b, 1)
		serialSig = res.Final.Signature()
		b.ReportMetric(float64(res.OptimizerCalls), "opt-calls")
	})
	b.Run("parallel", func(b *testing.B) {
		res := run(b, runtime.GOMAXPROCS(0))
		parallelSig = res.Final.Signature()
		b.ReportMetric(float64(res.OptimizerCalls), "opt-calls")
	})
	if serialSig != "" && parallelSig != "" && serialSig != parallelSig {
		b.Fatalf("parallel final configuration differs from serial:\n serial   %s\n parallel %s", serialSig, parallelSig)
	}
}

// noBase hides a checker's SetBase from the search, so that every
// candidate is priced in full.
type noBase struct{ core.ConstraintChecker }

func (noBase) SetBase(*core.Configuration) {}

// BenchmarkGreedyDistinct is the per-layer bench of delta costing: the
// Greedy search over 300 generated TPC-D queries from 40 tuned indexes
// at a 10% constraint, priced query by query and template by template,
// each iteration on a cold store. optcalls/op and lookups/op are exact.
// Either fails unless the search reaches the configuration of a run
// whose checker is never handed a base.
func BenchmarkGreedyDistinct(b *testing.B) {
	lab := benchTPCD(b)
	w, err := workload.Generate(lab.DB, workload.Options{Class: workload.Complex, Queries: 300, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	defs, err := lab.InitialConfiguration(w, 40)
	if err != nil {
		b.Fatal(err)
	}
	initial := core.NewConfiguration(defs)
	pw, err := lab.Opt.PrepareWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	base, err := lab.Opt.WorkloadCostPrepared(pw, optimizer.Configuration(defs))
	if err != nil {
		b.Fatal(err)
	}
	seek, err := core.ComputeSeekCostsPrepared(lab.Opt, pw, initial)
	if err != nil {
		b.Fatal(err)
	}
	comp := wscale.Compress(w)
	units := []struct {
		name    string
		checker func() *core.OptimizerChecker
	}{
		{"units=queries", func() *core.OptimizerChecker {
			check := core.NewOptimizerChecker(lab.Opt, w, base, 0.10)
			check.Prepared = pw
			return check
		}},
		{"units=templates", func() *core.OptimizerChecker {
			p, err := wscale.Prepare(comp, pw, lab.Opt, 0)
			if err != nil {
				b.Fatal(err)
			}
			return wscale.NewChecker(p, base, 0.10)
		}},
	}
	search := func(check *core.OptimizerChecker, delta bool) (*core.SearchResult, int64) {
		var c core.ConstraintChecker = check
		if !delta {
			c = noBase{check}
		}
		res, err := core.Greedy(initial, &core.MergePairCost{Seek: seek}, c, lab.DB)
		if err != nil {
			b.Fatal(err)
		}
		hits, misses, _ := check.CacheStats()
		return res, hits + misses
	}
	full, fullLookups := search(units[0].checker(), false)

	for _, u := range units {
		b.Run(u.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *core.SearchResult
			var lookups int64
			for i := 0; i < b.N; i++ {
				res, lookups = search(u.checker(), true)
			}
			b.ReportMetric(float64(res.OptimizerCalls), "optcalls/op")
			b.ReportMetric(float64(lookups), "lookups/op")
			if res.Final.Signature() != full.Final.Signature() {
				b.Fatalf("delta costing reached a different configuration:\n delta %s\n full  %s", res.Final.Signature(), full.Final.Signature())
			}
			if len(res.Steps) == 0 || lookups >= fullLookups {
				b.Fatalf("delta costing saved nothing: %d steps, %d lookups against %d in full", len(res.Steps), lookups, fullLookups)
			}
		})
	}
}

// BenchmarkAblationPrefixChoice measures MergePair-Cost's leading-
// prefix heuristic against its reversal (DESIGN.md ablation).
func BenchmarkAblationPrefixChoice(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.AblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunAblationPrefixChoice(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			b.Fatal(err)
		}
	}
	var base, variant float64
	for _, r := range rows {
		base += 100 * r.BaselineReduction / float64(len(rows))
		variant += 100 * r.VariantReduction / float64(len(rows))
	}
	b.ReportMetric(base, "seek-leading-%")
	b.ReportMetric(variant, "reversed-%")
}

// BenchmarkAblationGreedyOrder measures the greedy inner-loop ranking
// choice: storage-reduction-descending (paper) vs width-growth-ascending.
func BenchmarkAblationGreedyOrder(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.AblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunAblationGreedyOrder(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			b.Fatal(err)
		}
	}
	var base, variant float64
	for _, r := range rows {
		base += 100 * r.BaselineReduction / float64(len(rows))
		variant += 100 * r.VariantReduction / float64(len(rows))
	}
	b.ReportMetric(base, "by-storage-%")
	b.ReportMetric(variant, "by-growth-%")
}

// BenchmarkAblationPrefilter measures the §3.5.3 external-cost
// pre-filter: optimizer invocations with and without it.
func BenchmarkAblationPrefilter(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.AblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunAblationPrefilter(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			b.Fatal(err)
		}
	}
	var baseCalls, varCalls float64
	for _, r := range rows {
		baseCalls += float64(r.BaselineExtra)
		varCalls += float64(r.VariantExtra)
	}
	b.ReportMetric(baseCalls, "opt-calls-nofilter")
	b.ReportMetric(varCalls, "opt-calls-prefilter")
}

// BenchmarkCostMinimalDual measures the extension: the Cost-Minimal
// dual's storage/cost frontier at a 60% budget.
func BenchmarkCostMinimalDual(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.DualRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunCostMinimal(labs[:1], 10, []float64{0.6})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(100*r.StorageFrac, "storage-%of-initial")
		b.ReportMetric(100*r.CostIncrease, "cost-increase-%")
	}
}

// BenchmarkWorkloadCompression measures §3.5.3 workload compression:
// optimizer calls and merge quality, full workload vs top-10 queries.
func BenchmarkWorkloadCompression(b *testing.B) {
	labs := benchLabs(b)
	var rows []experiments.CompressionRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunWorkloadCompression(labs, experiments.Fig5N, 10, experiments.Fig5Constraint)
		if err != nil {
			b.Fatal(err)
		}
	}
	var fullCalls, smallCalls, fullRed, smallRed float64
	for _, r := range rows {
		fullCalls += float64(r.FullCalls)
		smallCalls += float64(r.CompressedCalls)
		fullRed += 100 * r.FullReduction / float64(len(rows))
		smallRed += 100 * r.CompressedReduction / float64(len(rows))
	}
	b.ReportMetric(fullCalls, "opt-calls-full")
	b.ReportMetric(smallCalls, "opt-calls-topk")
	b.ReportMetric(fullRed, "saved-full-%")
	b.ReportMetric(smallRed, "saved-topk-%")
}
