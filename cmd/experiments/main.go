// Command experiments regenerates every table and figure from the
// paper's evaluation (§4) and the introduction's motivating numbers,
// printing the same rows/series the paper reports.
//
// Usage:
//
//	experiments [-scale 1.0] [-queries 30] [-seed 1] [-only fig5,fig7] [-skip ablations]
//
// Figures use the paper's parameters by default: N=5 with a 10% cost
// constraint for Figures 5-7; N in {5,10,15,20,25,30} with a 20%
// constraint and 1% batch inserts for Figure 8.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"indexmerge/internal/experiments"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args as the command line and writes every enabled table
// and figure to out.
func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "database scale factor (1.0 = default sizes)")
	queries := fs.Int("queries", 30, "queries per generated workload")
	seed := fs.Int64("seed", 1, "random seed for data and workloads")
	only := fs.String("only", "", "comma-separated subset: intro,fig5,fig6,fig7,fig8,ablations,compression,dual")
	projection := fs.Bool("projection", false, "use the projection-only workload class for Figures 5-7")
	fig8ns := fs.String("fig8n", "5,10,15,20,25,30", "comma-separated initial index counts for Figure 8")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, so Parse returns nil

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	fmt.Fprintf(out, "Index Merging (ICDE 1999) — experiment harness (scale=%.2f, queries=%d, seed=%d)\n\n", *scale, *queries, *seed)
	labs, err := experiments.StandardLabs(experiments.LabOptions{Scale: *scale, WorkloadQueries: *queries, Seed: *seed})
	if err != nil {
		return err
	}

	if enabled("intro") {
		tpcd := labs[0]
		q13, err := experiments.RunIntroQ1Q3(tpcd)
		if err != nil {
			return err
		}
		experiments.RenderIntroQ1Q3(out, q13)
		fmt.Fprintln(out)
		t17, err := experiments.RunIntroTPCD17(tpcd, 0.10)
		if err != nil {
			return err
		}
		experiments.RenderIntroTPCD17(out, t17)
		fmt.Fprintln(out)
	}

	if enabled("fig5") || enabled("fig6") {
		rows, err := experiments.RunSearchComparisonOpt(labs, experiments.FigureOptions{N: experiments.Fig5N, Constraint: experiments.Fig5Constraint, Projection: *projection})
		if err != nil {
			return err
		}
		experiments.RenderSearchComparison(out, rows)
		fmt.Fprintln(out)
	}

	if enabled("fig7") {
		rows, err := experiments.RunMergePairComparisonOpt(labs, experiments.FigureOptions{N: experiments.Fig5N, Constraint: experiments.Fig5Constraint, Projection: *projection})
		if err != nil {
			return err
		}
		experiments.RenderMergePairComparison(out, rows)
		fmt.Fprintln(out)
	}

	if enabled("fig8") {
		var ns []int
		for _, s := range strings.Split(*fig8ns, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err == nil && n > 0 {
				ns = append(ns, n)
			}
		}
		rows, err := experiments.RunMaintenanceComparison(labs, ns, experiments.Fig8Constraint)
		if err != nil {
			return err
		}
		experiments.RenderMaintenanceComparison(out, rows)
		fmt.Fprintln(out)
	}

	if enabled("ablations") {
		prefix, err := experiments.RunAblationPrefixChoice(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			return err
		}
		experiments.RenderAblation(out, "Ablation — MergePair-Cost prefix choice (baseline: higher Seek-Cost leads; variant: reversed)", prefix)
		fmt.Fprintln(out)

		order, err := experiments.RunAblationGreedyOrder(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			return err
		}
		experiments.RenderAblation(out, "Ablation — Greedy inner-loop order (baseline: storage reduction desc; variant: width growth asc)", order)
		fmt.Fprintln(out)

		pre, err := experiments.RunAblationPrefilter(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			return err
		}
		experiments.RenderAblation(out, "Ablation — external-cost pre-filter (extra = optimizer invocations)", pre)
		fmt.Fprintln(out)

		inter, err := experiments.RunAblationIntersection(labs, experiments.Fig5N, experiments.Fig5Constraint)
		if err != nil {
			return err
		}
		experiments.RenderAblation(out, "Ablation — index-intersection access paths (baseline: on; variant: off)", inter)
		fmt.Fprintln(out)
	}

	if enabled("compression") {
		rows, err := experiments.RunWorkloadCompression(labs, experiments.Fig5N, 10, experiments.Fig5Constraint)
		if err != nil {
			return err
		}
		experiments.RenderCompression(out, rows)
		fmt.Fprintln(out)
	}

	if enabled("dual") {
		rows, err := experiments.RunCostMinimal(labs, 10, []float64{0.8, 0.6, 0.4})
		if err != nil {
			return err
		}
		experiments.RenderCostMinimal(out, rows)
		fmt.Fprintln(out)
	}
	return nil
}
