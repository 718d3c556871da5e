// Command benchjson runs the index-union execution microbenchmark —
// one OR query through the IndexUnion plan and through the scan the
// optimizer falls back to without union paths — and writes the result
// as machine-readable JSON (BENCH_optimizer.json at the repository root
// is a checked-in run).
//
// With -workload, it instead runs the large-workload compression
// benchmark (BENCH_workload.json): a zipf-duplicated multi-thousand-
// statement workload merged once under the plain per-query
// OptimizerChecker and once under the wscale template/atom cost-table
// checker. Both variants must reach the same final configuration (or
// provably equal cost) — the compression is exact — and the report
// records the wall-clock speedup.
//
// With -distrib, it runs the distributed costing benchmark
// (BENCH_distrib.json): the same 10k-statement greedy merge under the
// per-query prepared checker, once single-process and once with its
// cache-miss waves sharded over a pool of in-process what-if workers,
// with a simulated per-optimizer-call round trip injected at the
// optimizer costing point (internal/faults ModeLatency) so the win of
// overlapping worker streams is measurable on a single-CPU host. Both
// runs must reach the identical final configuration — distribution
// must leave no trace in results.
//
// With -overload, it runs the multi-tenant isolation benchmark
// (BENCH_overload.json): one in-process idxmerged with per-tenant
// quotas and a global memory budget serves a quiet tenant's
// synchronous costing while a noisy tenant storms ingest, re-tunes
// and cross-tenant requests. The report records the quiet tenant's
// P50/P99 latency with and without the neighbor, the noisy traffic's
// shed rate, and the peak accounted memory against the budget; any
// cross-tenant request that is not rejected fails the run.
//
// Usage:
//
//	benchjson [-seed 1] [-o BENCH_optimizer.json]
//	benchjson -workload [-statements 10000] [-o BENCH_workload.json]
//	benchjson -distrib [-distrib-workers 4] [-rtt 200us] [-o BENCH_distrib.json]
//	benchjson -overload [-requests 200] [-o BENCH_overload.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/distrib"
	"indexmerge/internal/engine"
	"indexmerge/internal/exec"
	"indexmerge/internal/experiments"
	"indexmerge/internal/faults"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
	"indexmerge/internal/workload"
	"indexmerge/internal/wscale"
)

// envInfo records where a checked-in benchmark ran, so numbers are
// interpretable later (satellite: every BENCH_*.json carries it).
type envInfo struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	CostWorkers int    `json:"cost_workers"`
}

func captureEnv(costWorkers int) envInfo {
	return envInfo{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CostWorkers: costWorkers,
	}
}

// unionResult is the union-vs-single-index execution microbenchmark:
// the same OR query run through the IndexUnion plan and through the
// best plan available without union paths (a full scan — a single
// index cannot serve a disjunction).
type unionResult struct {
	Rows          int     `json:"rows"`
	Query         string  `json:"query"`
	UnionNsPerOp  int64   `json:"union_ns_per_op"`
	UnionPlanCost float64 `json:"union_plan_cost"`
	ScanNsPerOp   int64   `json:"scan_ns_per_op"`
	ScanPlanCost  float64 `json:"scan_plan_cost"`
	ResultRows    int     `json:"result_rows"`
	NsRatio       float64 `json:"ns_ratio"`
}

func main() {
	scale := flag.Float64("scale", 0.5, "database scale factor for -workload and -distrib")
	seed := flag.Int64("seed", 1, "random seed for data and workloads")
	out := flag.String("o", "", "output file (default stdout)")
	workloadMode := flag.Bool("workload", false, "run the large-workload compression benchmark instead")
	statements := flag.Int("statements", 10000, "total statement count (weighted) for -workload and -distrib")
	initialN := flag.Int("initial", 30, "initial configuration size for -workload and -distrib")
	distribMode := flag.Bool("distrib", false, "run the distributed costing benchmark instead")
	distribWorkers := flag.Int("distrib-workers", 4, "what-if worker count for -distrib")
	rtt := flag.Duration("rtt", 200*time.Microsecond, "simulated per-optimizer-call round trip for -distrib")
	overloadMode := flag.Bool("overload", false, "run the multi-tenant noisy-neighbor benchmark instead")
	requests := flag.Int("requests", 200, "quiet-tenant request count per phase for -overload")
	flag.Parse()

	if *workloadMode {
		rep, err := runWorkloadBench(*scale, *seed, *statements, *initialN)
		if err != nil {
			fatal(err)
		}
		writeReport(rep, *out)
		return
	}
	if *distribMode {
		rep, err := runDistribBench(*scale, *seed, *statements, *initialN, *distribWorkers, *rtt)
		if err != nil {
			fatal(err)
		}
		writeReport(rep, *out)
		return
	}
	if *overloadMode {
		rep, err := runOverloadBench(*seed, *requests)
		if err != nil {
			fatal(err)
		}
		writeReport(rep, *out)
		return
	}

	report := struct {
		Benchmark  string      `json:"benchmark"`
		Env        envInfo     `json:"env"`
		Seed       int64       `json:"seed"`
		IndexUnion unionResult `json:"index_union"`
	}{Benchmark: "index-union execution", Env: captureEnv(0), Seed: *seed}

	ur, err := runUnionCase(*seed)
	if err != nil {
		fatal(fmt.Errorf("index-union: %w", err))
	}
	report.IndexUnion = ur

	writeReport(report, *out)
}

// writeReport marshals a report to the output file (or stdout).
func writeReport(report any, out string) {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// workloadVariant is one timed end-to-end merge over the large
// workload: base costing plus the full greedy search (and, for the
// compressed variant, template clustering and cost-table construction —
// everything a cold run pays).
type workloadVariant struct {
	Seconds        float64 `json:"seconds"`
	OptimizerCalls int64   `json:"optimizer_calls"`
	CostEvals      int64   `json:"cost_evaluations"`
	FinalIndexes   int     `json:"final_indexes"`
	signature      string
	finalDefs      []catalog.IndexDef
}

// workloadReport is the -workload benchmark result
// (BENCH_workload.json is a checked-in run).
type workloadReport struct {
	Benchmark           string          `json:"benchmark"`
	Env                 envInfo         `json:"env"`
	Scale               float64         `json:"scale"`
	Seed                int64           `json:"seed"`
	Statements          int             `json:"statements"` // weighted (log size)
	Entries             int             `json:"entries"`    // distinct after exact-text folding
	Templates           int             `json:"templates"`
	DedupRatio          float64         `json:"dedup_ratio"`
	InitialIndexes      int             `json:"initial_indexes"`
	Uncompressed        workloadVariant `json:"uncompressed"`
	Compressed          workloadVariant `json:"compressed"`
	Speedup             float64         `json:"speedup"`
	OptimizerCallRatio  float64         `json:"optimizer_call_ratio"`
	CostTableHits       int64           `json:"cost_table_hits"`
	CostTableMisses     int64           `json:"cost_table_misses"`
	PrunedChecks        int64           `json:"pruned_checks"`
	StorageReductionPct float64         `json:"storage_reduction_pct"`
}

// runWorkloadBench merges a zipf-duplicated workload of ~statements
// total statements once per costing variant and verifies they agree.
func runWorkloadBench(scale float64, seed int64, statements, initialN int) (workloadReport, error) {
	const baseQueries = 25
	lab, err := experiments.NewSynthetic2Lab(experiments.LabOptions{
		Scale: scale, WorkloadQueries: baseQueries, Seed: seed,
	})
	if err != nil {
		return workloadReport{}, err
	}
	dup := statements - baseQueries
	if dup < 0 {
		dup = 0
	}
	w, err := workload.Generate(lab.DB, workload.Options{
		Class: workload.Complex, Disjunctions: true,
		Queries: baseQueries, Duplication: dup, Seed: seed + 11,
	})
	if err != nil {
		return workloadReport{}, err
	}
	defs, err := lab.InitialConfiguration(w, initialN)
	if err != nil {
		return workloadReport{}, err
	}
	initial := core.NewConfiguration(defs)
	pw, err := lab.Opt.PrepareWorkload(w)
	if err != nil {
		return workloadReport{}, err
	}
	seek, err := core.ComputeSeekCostsPrepared(lab.Opt, pw, initial)
	if err != nil {
		return workloadReport{}, err
	}
	const slack = 0.10

	// Uncompressed: the per-query prepared checker — every constraint
	// check re-costs all distinct statements.
	startU := time.Now()
	baseU, err := lab.Opt.WorkloadCostPrepared(pw, optimizer.Configuration(defs))
	if err != nil {
		return workloadReport{}, err
	}
	plain := core.NewOptimizerChecker(lab.Opt, w, baseU, slack)
	plain.Prepared = pw
	resU, err := core.GreedyWithOptions(initial, &core.MergePairCost{Seek: seek}, plain, lab.DB, core.GreedyOptions{})
	if err != nil {
		return workloadReport{}, err
	}
	uncomp := workloadVariant{
		Seconds:        time.Since(startU).Seconds(),
		OptimizerCalls: resU.OptimizerCalls,
		CostEvals:      resU.CostEvaluations,
		FinalIndexes:   resU.Final.Len(),
		signature:      resU.Final.Signature(),
		finalDefs:      resU.Final.Defs(),
	}

	// Compressed: cluster into templates, build the (template, atom)
	// cost table, search with delta evaluation and lower-bound pruning.
	// Clustering and table construction are inside the timed region — a
	// cold run pays them too.
	startC := time.Now()
	c := wscale.Compress(w)
	p, err := wscale.Prepare(c, pw, lab.Opt, 0)
	if err != nil {
		return workloadReport{}, err
	}
	baseC, err := p.WorkloadCostContext(context.Background(), initial)
	if err != nil {
		return workloadReport{}, err
	}
	chk := wscale.NewChecker(p, baseC, slack)
	resC, err := core.GreedyWithOptions(initial, &core.MergePairCost{Seek: seek}, chk, lab.DB, core.GreedyOptions{})
	if err != nil {
		return workloadReport{}, err
	}
	comp := workloadVariant{
		Seconds:        time.Since(startC).Seconds(),
		OptimizerCalls: resC.OptimizerCalls,
		CostEvals:      resC.CostEvaluations,
		FinalIndexes:   resC.Final.Len(),
		signature:      resC.Final.Signature(),
		finalDefs:      resC.Final.Defs(),
	}

	// Parity: identical final configuration, or (when a last-ulp total
	// flips a borderline acceptance) provably equal workload cost.
	if uncomp.signature != comp.signature {
		cu, err := lab.Opt.WorkloadCostPrepared(pw, optimizer.Configuration(uncomp.finalDefs))
		if err != nil {
			return workloadReport{}, err
		}
		cc, err := lab.Opt.WorkloadCostPrepared(pw, optimizer.Configuration(comp.finalDefs))
		if err != nil {
			return workloadReport{}, err
		}
		if math.Abs(cu-cc) > 1e-9*math.Max(1, math.Abs(cu)) {
			return workloadReport{}, fmt.Errorf("compressed final configuration diverged: %s (cost %v) vs %s (cost %v)",
				uncomp.signature, cu, comp.signature, cc)
		}
	}

	hits, misses, _ := p.TableStats()
	rep := workloadReport{
		Benchmark:           "template-compressed merge over a zipf-duplicated workload",
		Env:                 captureEnv(0),
		Scale:               scale,
		Seed:                seed,
		Statements:          int(c.TotalFreq()),
		Entries:             c.Statements(),
		Templates:           len(c.Templates),
		DedupRatio:          round2(c.DedupRatio()),
		InitialIndexes:      len(defs),
		Uncompressed:        uncomp,
		Compressed:          comp,
		CostTableHits:       hits,
		CostTableMisses:     misses,
		PrunedChecks:        chk.PrunedChecks(),
		StorageReductionPct: round2(100 * resC.StorageReduction()),
	}
	if comp.Seconds > 0 {
		rep.Speedup = round2(uncomp.Seconds / comp.Seconds)
	}
	if comp.OptimizerCalls > 0 {
		rep.OptimizerCallRatio = round2(float64(uncomp.OptimizerCalls) / float64(comp.OptimizerCalls))
	}
	return rep, nil
}

// distribVariant is one timed end-to-end merge of the distributed
// benchmark: table construction, baseline costing and the full greedy
// search, all under the injected per-optimizer-call round trip.
type distribVariant struct {
	Seconds         float64 `json:"seconds"`
	OptimizerCalls  int64   `json:"optimizer_calls"`
	CostEvals       int64   `json:"cost_evaluations"`
	FinalIndexes    int     `json:"final_indexes"`
	RemoteBatches   int64   `json:"remote_batches"`
	RemoteItems     int64   `json:"remote_items"`
	RemoteFallbacks int64   `json:"remote_fallbacks"`
	signature       string
	finalBytes      int64
}

// distribReport is the -distrib benchmark result (BENCH_distrib.json
// is a checked-in run).
type distribReport struct {
	Benchmark          string         `json:"benchmark"`
	Env                envInfo        `json:"env"`
	Scale              float64        `json:"scale"`
	Seed               int64          `json:"seed"`
	Statements         int            `json:"statements"`
	Entries            int            `json:"entries"`
	Templates          int            `json:"templates"`
	InitialIndexes     int            `json:"initial_indexes"`
	Workers            int            `json:"workers"`
	SimulatedRTTMicros float64        `json:"simulated_rtt_micros"`
	Note               string         `json:"note"`
	SingleProcess      distribVariant `json:"single_process"`
	Distributed        distribVariant `json:"distributed"`
	Speedup            float64        `json:"speedup"`
	IdenticalFinal     bool           `json:"identical_final_configuration"`
}

// runDistribBench merges the 10k-statement workload under the
// per-query prepared checker once single-process and once over a pool
// of in-process what-if workers (forks of one frozen snapshot, served
// over loopback HTTP).
// A deterministic latency fault at the optimizer costing point
// simulates the round trip a real remote optimizer call pays; the
// distributed run overlaps those stalls across worker streams. The
// fault is armed only around the timed merges, and both runs must
// reach the identical final configuration.
func runDistribBench(scale float64, seed int64, statements, initialN, workers int, rtt time.Duration) (distribReport, error) {
	const baseQueries = 25
	lab, err := experiments.NewSynthetic2Lab(experiments.LabOptions{
		Scale: scale, WorkloadQueries: baseQueries, Seed: seed,
	})
	if err != nil {
		return distribReport{}, err
	}
	dup := statements - baseQueries
	if dup < 0 {
		dup = 0
	}
	w, err := workload.Generate(lab.DB, workload.Options{
		Class: workload.Complex, Disjunctions: true,
		Queries: baseQueries, Duplication: dup, Seed: seed + 11,
	})
	if err != nil {
		return distribReport{}, err
	}
	defs, err := lab.InitialConfiguration(w, initialN)
	if err != nil {
		return distribReport{}, err
	}
	initial := core.NewConfiguration(defs)
	pw, err := lab.Opt.PrepareWorkload(w)
	if err != nil {
		return distribReport{}, err
	}
	seek, err := core.ComputeSeekCostsPrepared(lab.Opt, pw, initial)
	if err != nil {
		return distribReport{}, err
	}
	c := wscale.Compress(w)
	const slack = 0.10

	// The baseline workload cost is computed once, untimed and without
	// the injected round trip: both variants start from the identical
	// float and the timed region is exactly the search.
	base, err := lab.Opt.WorkloadCostPrepared(pw, optimizer.Configuration(defs))
	if err != nil {
		return distribReport{}, err
	}

	// Worker fleet: forks of one frozen snapshot behind loopback HTTP,
	// the same worker cmd/idxmergew serves.
	snap := lab.DB.Snapshot()
	urls := make([]string, workers)
	servers := make([]*httptest.Server, workers)
	for i := range urls {
		servers[i] = httptest.NewServer(distrib.NewWorker(snap.Fork()).Handler())
		urls[i] = servers[i].URL
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	pool := distrib.NewPool(urls, distrib.Options{})
	binding, err := pool.Bind(context.Background(), "bench", lab.DB.Fingerprint(), w)
	if err != nil {
		return distribReport{}, err
	}

	// run executes one cold greedy search — fresh per-query what-if
	// cache — with the RTT fault armed for exactly that window. The
	// remote unit is a single query costing, so every cache-miss wave
	// shards cleanly across workers.
	run := func(batch core.BatchCostServer) (distribVariant, error) {
		faults.Install(faults.Rule{
			ID: "bench-rtt", Point: faults.OptimizerCost,
			Mode: faults.ModeLatency, Latency: rtt,
		})
		defer faults.Reset()
		start := time.Now()
		chk := core.NewOptimizerChecker(lab.Opt, w, base, slack)
		chk.Prepared = pw
		chk.Batch = batch
		res, err := core.GreedyWithOptions(initial, &core.MergePairCost{Seek: seek}, chk, lab.DB, core.GreedyOptions{})
		if err != nil {
			return distribVariant{}, err
		}
		sec := time.Since(start).Seconds()
		rb, ri, rf := chk.RemoteStats()
		return distribVariant{
			Seconds:         sec,
			OptimizerCalls:  res.OptimizerCalls,
			CostEvals:       res.CostEvaluations,
			FinalIndexes:    res.Final.Len(),
			RemoteBatches:   rb,
			RemoteItems:     ri,
			RemoteFallbacks: rf,
			signature:       res.Final.Signature(),
			finalBytes:      res.FinalBytes,
		}, nil
	}

	single, err := run(nil)
	if err != nil {
		return distribReport{}, fmt.Errorf("single-process run: %w", err)
	}
	dist, err := run(binding)
	if err != nil {
		return distribReport{}, fmt.Errorf("distributed run: %w", err)
	}

	// The acceptance contract: distribution must be invisible in
	// results. Identical signature, storage, and counter accounting.
	if single.signature != dist.signature || single.finalBytes != dist.finalBytes {
		return distribReport{}, fmt.Errorf("distributed final configuration diverged: %s (%d bytes) vs %s (%d bytes)",
			single.signature, single.finalBytes, dist.signature, dist.finalBytes)
	}
	if single.OptimizerCalls != dist.OptimizerCalls || single.CostEvals != dist.CostEvals {
		return distribReport{}, fmt.Errorf("distributed counters diverged: %d/%d optimizer calls, %d/%d cost evaluations",
			single.OptimizerCalls, dist.OptimizerCalls, single.CostEvals, dist.CostEvals)
	}
	if dist.RemoteFallbacks > 0 {
		return distribReport{}, fmt.Errorf("distributed run fell back locally %d times; benchmark would be mismeasured", dist.RemoteFallbacks)
	}

	rep := distribReport{
		Benchmark:          "distributed what-if costing over stateless snapshot workers",
		Env:                captureEnv(workers),
		Scale:              scale,
		Seed:               seed,
		Statements:         int(c.TotalFreq()),
		Entries:            c.Statements(),
		Templates:          len(c.Templates),
		InitialIndexes:     len(defs),
		Workers:            workers,
		SimulatedRTTMicros: float64(rtt.Microseconds()),
		Note: "workers are in-process HTTP servers over copy-on-write snapshot forks; the per-optimizer-call " +
			"round trip is injected deterministically (internal/faults ModeLatency) and paid wherever the call runs, " +
			"so on this single-CPU host the speedup measures overlapping worker streams, not CPU parallelism",
		SingleProcess:  single,
		Distributed:    dist,
		IdenticalFinal: true,
	}
	if dist.Seconds > 0 {
		rep.Speedup = round2(single.Seconds / dist.Seconds)
	}
	return rep, nil
}

// runUnionCase measures an OR query end to end under the IndexUnion
// plan and under the scan fallback the same optimizer picks with union
// paths disabled. Both runs must return the same number of rows; the
// ratio is the executed win of merging RID sets over reading the heap.
func runUnionCase(seed int64) (unionResult, error) {
	const rows = 30000
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("wide", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Int},
		{Name: "payload", Type: value.String, Width: 120},
		{Name: "more", Type: value.String, Width: 120},
	})); err != nil {
		return unionResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		if err := db.Insert("wide", value.Row{
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
			value.NewString("p"),
			value.NewString("q"),
		}); err != nil {
			return unionResult{}, err
		}
	}
	db.AnalyzeAll()
	ia, err := catalog.NewIndexDef(db.Schema(), "", "wide", []string{"a"})
	if err != nil {
		return unionResult{}, err
	}
	ib, err := catalog.NewIndexDef(db.Schema(), "", "wide", []string{"b"})
	if err != nil {
		return unionResult{}, err
	}
	defs := []catalog.IndexDef{ia, ib}
	if err := db.Materialize(defs); err != nil {
		return unionResult{}, err
	}
	cfg := optimizer.Configuration(defs)

	const query = "SELECT payload FROM wide WHERE (a = 7 OR b = 13)"
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		return unionResult{}, err
	}
	if err := stmt.Resolve(db.Schema()); err != nil {
		return unionResult{}, err
	}

	o := optimizer.New(db)
	unionPlan, err := o.Optimize(stmt, cfg)
	if err != nil {
		return unionResult{}, err
	}
	o.DisableIndexUnion = true
	scanPlan, err := o.Optimize(stmt, cfg)
	if err != nil {
		return unionResult{}, err
	}

	measure := func(plan *optimizer.Plan) (int64, int, error) {
		var got *exec.Result
		var runErr error
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, runErr = exec.Run(db, plan)
				if runErr != nil {
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			return 0, 0, runErr
		}
		return br.NsPerOp(), len(got.Rows), nil
	}
	unionNs, unionRows, err := measure(unionPlan)
	if err != nil {
		return unionResult{}, err
	}
	scanNs, scanRows, err := measure(scanPlan)
	if err != nil {
		return unionResult{}, err
	}
	if unionRows != scanRows {
		return unionResult{}, fmt.Errorf("union plan returned %d rows, scan plan %d", unionRows, scanRows)
	}
	ur := unionResult{
		Rows:          rows,
		Query:         query,
		UnionNsPerOp:  unionNs,
		UnionPlanCost: unionPlan.Cost,
		ScanNsPerOp:   scanNs,
		ScanPlanCost:  scanPlan.Cost,
		ResultRows:    unionRows,
	}
	if unionNs > 0 {
		ur.NsRatio = round2(float64(scanNs) / float64(unionNs))
	}
	return ur, nil
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
