// Command oracle runs the differential correctness harness: for each
// selected database it generates a workload, computes reference
// answers with the naive evaluator, runs the merge search, and diffs
// executed plans against the reference under the empty, initial,
// visited, final and pair-merged configurations, checking the
// metamorphic invariants along the way.
//
// Usage:
//
//	oracle [-db tpcd,synthetic2] [-scale 0.1] [-seed 1] [-queries 12]
//	       [-n 8] [-visited 5] [-json] [-repro-dir DIR]
//
// The exit status is 0 only if every sweep is clean. With -repro-dir,
// each violation is minimized and written there as a replayable
// .repro file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"indexmerge/internal/datagen"
	"indexmerge/internal/oracle"
	"indexmerge/internal/workload"
)

func main() {
	dbList := flag.String("db", "tpcd,synthetic2", "comma-separated databases: tpcd | synthetic1 | synthetic2")
	scale := flag.Float64("scale", 0.1, "database scale factor")
	seed := flag.Int64("seed", 1, "random seed (workload generation, initial configuration, sampling)")
	queries := flag.Int("queries", 12, "generated workload size per database")
	n := flag.Int("n", 8, "initial configuration size")
	visited := flag.Int("visited", 5, "max visited search configurations to execute differentially")
	jsonOut := flag.Bool("json", false, "emit the reports as a JSON array on stdout")
	reproDir := flag.String("repro-dir", "", "write a minimized .repro file per violation into this directory")
	flag.Parse()

	var reports []*oracle.Report
	failed := false
	for _, name := range strings.Split(*dbList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		rep, err := sweepOne(name, *scale, *seed, *queries, *n, *visited, *reproDir, *jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracle: %s: %v\n", name, err)
			os.Exit(2)
		}
		reports = append(reports, rep)
		if !rep.Ok() {
			failed = true
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "oracle: %v\n", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func sweepOne(name string, scale float64, seed int64, queries, n, visited int, reproDir string, jsonOut bool) (*oracle.Report, error) {
	db, err := datagen.BuildNamed(name, scale, seed)
	if err != nil {
		return nil, err
	}
	// Disjunctions on: the sweep exercises the IndexUnion access paths
	// alongside conjunctive plans.
	w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Disjunctions: true, Queries: queries, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate workload: %w", err)
	}
	rep, err := oracle.Sweep(name, db, w, oracle.SweepOptions{
		Seed:           seed,
		InitialIndexes: n,
		MaxVisited:     visited,
	})
	if err != nil {
		return nil, err
	}
	if !jsonOut {
		fmt.Printf("%-12s queries=%d configs=%d checks=%d visited=%d merge-steps=%d violations=%d\n",
			name, rep.Queries, rep.Configs, rep.Checks, rep.VisitedSampled, rep.MergeSteps, len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	if reproDir != "" && len(rep.Violations) > 0 {
		if err := writeRepros(name, scale, seed, reproDir, rep.Violations); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeRepros minimizes each violation's configuration and writes one
// replayable repro file per violation.
func writeRepros(dbName string, scale float64, seed int64, dir string, vs []oracle.Violation) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, v := range vs {
		r := oracle.NewRepro(dbName, scale, seed, v)
		min, err := oracle.Minimize(r)
		if err != nil {
			// Minimization is best effort; keep the unminimized repro.
			min = r
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.repro", dbName, v.Kind, i))
		if err := os.WriteFile(path, min.Marshal(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "oracle: wrote %s\n", path)
	}
	return nil
}
