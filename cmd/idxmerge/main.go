// Command idxmerge runs index merging against one of the built-in
// experimental databases and a workload, mirroring the client utility
// the paper implemented against SQL Server 7.0 (§4.1).
//
// Usage:
//
//	idxmerge -db tpcd [-workload queries.sql] [-n 10] [-constraint 0.10]
//	         [-mergepair cost|syntactic|exhaustive] [-search greedy|exhaustive]
//	         [-costmodel opt|nocost|prefilter|compressed] [-explain] [-json]
//
// Without -workload, a complex workload is generated (RAGS-style).
// The initial configuration comes from tuning random queries until -n
// indexes accumulate; -n 0 tunes the whole workload, query by query (one
// representative per template under -costmodel compressed). A negative
// -n is refused.
//
// With -json, the final result is printed to stdout as the same JSON
// structure the idxmerged service serves for its jobs, and search
// progress snapshots stream to stderr as JSON lines. Ctrl-C (SIGINT)
// or SIGTERM cancels the search cleanly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"indexmerge"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/faults"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/server"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

func main() {
	dbName := flag.String("db", "tpcd", "database: tpcd | synthetic1 | synthetic2")
	scale := flag.Float64("scale", 1.0, "database scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	workloadPath := flag.String("workload", "", "workload file (one SELECT per line); default: generated complex workload")
	queries := flag.Int("queries", 30, "generated workload size when -workload is not given")
	duplication := flag.Int("duplication", 0, "append this many zipf-skewed constant-varied duplicates to the generated workload (log-like workloads for -costmodel compressed)")
	disjunctions := flag.Bool("disjunctions", false, "add OR/IN predicates to generated queries")
	n := flag.Int("n", 10, "initial configuration size (0 = tune every workload query)")
	constraint := flag.Float64("constraint", 0.10, "cost constraint (fractional workload cost increase bound; 0 selects the default of 10 %)")
	mergePair := flag.String("mergepair", "cost", "merge procedure: cost | syntactic | exhaustive")
	search := flag.String("search", "greedy", "search strategy: greedy | exhaustive")
	costModel := flag.String("costmodel", "opt", "cost evaluation: opt | nocost | prefilter | compressed (opt and compressed select the units of one pricing engine: a unit per query or per template of constant-varied duplicates; both exact)")
	explain := flag.Bool("explain", false, "print per-query plans under the final configuration")
	dualBudget := flag.Float64("dual", 0, "solve the Cost-Minimal dual instead: storage budget as a fraction of the initial configuration (e.g. 0.5)")
	parallel := flag.Int("parallel", 1, "concurrent candidate costings per search step (0 = GOMAXPROCS); results are identical for any value")
	jsonOut := flag.Bool("json", false, "emit the result as JSON on stdout (the idxmerged job-result schema) and progress JSON lines on stderr")
	resilient := flag.Bool("resilient", false, "retry transient costing faults and degrade to the analytic model on persistent optimizer failure (results carry a degraded flag)")
	workers := flag.String("workers", "", "comma-separated what-if worker base URLs (idxmergew processes serving the same -db/-scale/-seed database); cache-missed costings are batched to the pool; results are byte-identical at any worker count")
	faultRules := flag.String("faults", "", "deterministic fault-injection rules, semicolon-separated (chaos testing; see internal/faults)")
	flag.Parse()

	if *faultRules != "" {
		rules, err := faults.ParseRules(*faultRules)
		if err != nil {
			fatal(err)
		}
		faults.Install(rules...)
		fmt.Fprintf(os.Stderr, "idxmerge: fault injection armed (%d rules)\n", len(rules))
	}

	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	// The service's option table is the only one: a value idxmerged would
	// answer 400 to ends the run here, before the database is built.
	opts, err := server.BuildMergeOptions(server.JobOptions{
		Constraint: *constraint, MergePair: *mergePair, Search: *search, CostModel: *costModel,
		Parallelism: *parallel, DualBudgetFrac: *dualBudget,
		Resilience: &server.ResilienceSpec{Disable: !*resilient},
	})
	if err == nil {
		err = indexmerge.CheckInitialN(*n)
	}
	if err != nil {
		fatal(err)
	}

	// Ctrl-C / SIGTERM cancels the search cleanly mid-step.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	human := func(format string, args ...any) {
		if !*jsonOut {
			fmt.Printf(format, args...)
		}
	}

	db, err := datagen.BuildNamed(*dbName, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	w, err := loadWorkload(db, *workloadPath, *queries, *seed, *duplication, *disjunctions)
	if err != nil {
		fatal(err)
	}
	human("database %s: %d tables, %.1f MB data; workload: %d queries\n",
		*dbName, len(db.Schema().Tables()), float64(db.DataBytes())/(1<<20), w.Len())

	m, err := indexmerge.NewMerger(db, w)
	if err != nil {
		fatal(err)
	}
	if opts.CostModel == indexmerge.CompressedOptimizerCost {
		cw, err := m.CompressedWorkload()
		if err != nil {
			fatal(err)
		}
		human("%s\n", cw.C)
	}

	// Bind the worker pool before searching so incompatible workers
	// (wrong database, wrong parse) fail loudly here rather than
	// silently falling back mid-run. Failures after this point degrade
	// to local costing.
	var binding *indexmerge.WorkerBinding
	if *workers != "" {
		pool := indexmerge.NewWorkerPool(strings.Split(*workers, ","))
		binding, err = pool.Bind(ctx, "cli", db.Fingerprint(), w)
		if err != nil {
			fatal(fmt.Errorf("bind worker pool: %w", err))
		}
		human("worker pool: %d workers bound\n", pool.Size())
	}

	defs, err := m.InitialConfiguration(ctx, *n, *seed, opts)
	if err != nil {
		fatal(err)
	}
	human("\ninitial configuration (%d indexes):\n", len(defs))
	for _, d := range defs {
		human("  %s  (%.2f MB est.)\n", d, float64(db.EstimateIndexBytes(d))/(1<<20))
	}

	if *dualBudget > 0 {
		budget := int64(float64(db.ConfigurationBytes(defs)) * *dualBudget)
		res, err := m.MergeDualContext(ctx, defs, budget)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(server.NewDualResultPayload(res))
			return
		}
		fmt.Printf("\ncost-minimal dual result (budget %.0f%% of initial):\n%s",
			*dualBudget*100, res.Report())
		return
	}

	opts.Workers = binding
	if *jsonOut {
		// Stream progress snapshots as JSON lines on stderr — the same
		// struct idxmerged serves while a job runs.
		enc := json.NewEncoder(os.Stderr)
		opts.Progress = func(p indexmerge.SearchProgress) {
			_ = enc.Encode(server.NewProgressPayload(p))
		}
	}

	res, err := m.MergeDefsContext(ctx, defs, opts)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		emitJSON(server.NewMergeResultPayload(res))
	} else {
		fmt.Printf("\nmerge result (%s / %s / %s, constraint %.0f%%):\n%s",
			*mergePair, *search, *costModel, *constraint*100, res.Report())
		if res.Degraded {
			fmt.Printf("WARNING: degraded result — optimizer costing failed persistently; "+
				"decisions fell back to the analytic cost model (retries=%d, degraded_checks=%d)\n",
				res.Retries, res.DegradedChecks)
		}
	}

	if *explain && !*jsonOut {
		fmt.Println("\nper-query plans under the final configuration:")
		cfg := optimizer.Configuration(res.Final.Defs())
		pw, err := m.PreparedWorkload()
		if err != nil {
			fatal(err)
		}
		for i, q := range w.Queries {
			plan, err := m.Optimizer().OptimizePrepared(pw.Queries[i], cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("-- Q%d: %s\n%s\n", i+1, q.Stmt, plan.Explain())
		}
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func loadWorkload(db *engine.Database, path string, queries int, seed int64, duplication int, disjunctions bool) (*sql.Workload, error) {
	if path == "" {
		return workload.Generate(db, workload.Options{
			Class: workload.Complex, Queries: queries, Seed: seed + 11,
			Duplication: duplication, Disjunctions: disjunctions,
		})
	}
	if path == "tpcd17" {
		return datagen.TPCDWorkload(db.Schema())
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sql.ParseWorkload(f, db.Schema())
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "idxmerge: canceled")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "idxmerge:", err)
	os.Exit(1)
}
