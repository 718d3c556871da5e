package main

import (
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

// shortSizes runs every code path of every workload in well under a
// second per round. Its numbers mean nothing.
var shortSizes = sizes{
	KernelLoops: 600,
	Batch: map[string]batchSpec{
		"log-compressed": {
			DB: "synthetic2", Scale: 0.02, Templates: 10, Disjunctions: true, Statements: 300, Variants: 4,
			InitialN: 8, Constraint: 0.10, Compressed: true, Operations: 2,
			CostRequests: 8, CostSubsets: 4, SubsetSize: 3,
		},
		"distinct-opt": {
			DB: "tpcd", Scale: 0.05, Templates: 24, Statements: 24,
			InitialN: 8, Constraint: 0.10, Operations: 2,
			CostRequests: 8, CostSubsets: 4, SubsetSize: 3,
		},
	},
	Daemon: map[string]daemonSpec{
		"daemon-jobs": {
			DB: "synthetic1", Scale: 0.02, Templates: 10, Disjunctions: true, Cycles: 2, Constraint: 0.10,
			Statements: 120, InitialN: 6,
			CostRequests: 4, CostSubsets: 4, SubsetSize: 3, RefIndexes: 8,
		},
		"continuous-drift": {
			DB: "synthetic2", Scale: 0.02, Templates: 12, Disjunctions: true, Cycles: 2, Constraint: 0.10,
			Batches: 2, BatchStatements: 60, ActiveTemplates: 8, Slide: 2,
			CostRequests: 4, CostSubsets: 4, SubsetSize: 3, RefIndexes: 8,
		},
	},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func shortRun(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	res, err := run(options{
		workload: name, seed: seed, traced: traced, sizes: shortSizes,
		scratch: t.TempDir(), traceDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s traced=%v: %d of %d operations failed", name, traced, res.Failed, res.Attempted)
	}
	return res
}

// Every workload emits every metric the manifest names, with its unit,
// passes its output checks, and repeats its exact counters.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	mf, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, res *result, want []manifestMetric, nonZero bool) {
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics emitted, manifest names %d", name, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: metric %s has unit %q, manifest says %q", name, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (nonZero && got.Value <= 0):
				t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
			}
		}
	}
	for _, w := range mf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			check(w.Name, shortRun(t, w.Name, 1, false), mf.EndToEnd, true)
			// Two seeds: what the reference round gives is the same on both.
			first, second := shortRun(t, w.Name, 1, true), shortRun(t, w.Name, 2, true)
			check(w.Name+" traced", first, mf.PerLayer, false)
			for _, m := range perLayer {
				if m.Exact && first.Metrics[m.Name] != second.Metrics[m.Name] {
					t.Errorf("exact counter %s differs between two runs: %v, %v",
						m.Name, first.Metrics[m.Name].Value, second.Metrics[m.Name].Value)
				}
			}
		})
	}
}

// The manifest and the program must name the same workloads and
// metrics, within the limits the driver enforces.
func TestMetricsMatchManifest(t *testing.T) {
	mf, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.EndToEnd) > 16 || len(mf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(mf.EndToEnd), len(mf.PerLayer))
	}
	same := func(kind string, have []metric, want []manifestMetric) {
		if len(have) != len(want) {
			t.Fatalf("%s: program has %d metrics, manifest %d", kind, len(have), len(want))
		}
		for i, m := range want {
			if have[i].Name != m.Name || have[i].Unit != m.Unit {
				t.Errorf("%s %d: program has %s (%s), manifest %s (%s)", kind, i, have[i].Name, have[i].Unit, m.Name, m.Unit)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s is better %q", kind, m.Name, m.Better)
			}
			if m.Bound != have[i].Bound || m.Bound > 0.25 {
				t.Errorf("%s: %s has bound %v in the manifest, %v in the program", kind, m.Name, m.Bound, have[i].Bound)
			}
		}
	}
	same("end_to_end", endToEnd, mf.EndToEnd)
	same("per_layer", perLayer, mf.PerLayer)
	if m := mf.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", m)
	}
	names := workloadNames()
	if len(mf.Workloads) != len(names) {
		t.Fatalf("manifest has %d workloads, program %d", len(mf.Workloads), len(names))
	}
	for _, w := range mf.Workloads {
		_, batch := fullSizes.Batch[w.Name]
		_, daemon := fullSizes.Daemon[w.Name]
		if !batch && !daemon {
			t.Errorf("manifest workload %s is not one the program runs", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestTimingNeedsSevenSamples(t *testing.T) {
	rec := newRecorder(0)
	for i := 0; i < minSamples-1; i++ {
		rec.duration("advise_s", 1)
	}
	if _, err := (metric{Name: "advise_s", Unit: "s"}).value(rec, true); err == nil {
		t.Errorf("a median of %d samples was reported", minSamples-1)
	}
	rec.duration("advise_s", 1)
	if v, err := (metric{Name: "advise_s", Unit: "s"}).value(rec, true); err != nil || v != 1 {
		t.Errorf("median of %d samples = %v, %v", minSamples, v, err)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	_ = tr.do("root", func() error {
		_ = tr.do("child", func() error { return nil })
		_ = tr.do("child", func() error { return nil })
		return nil
	})
	s := tr.spans
	if len(s) != 3 || s[1].Parent != 0 || s[2].Parent != 0 || s[0].Parent != -1 {
		t.Fatalf("spans %+v", s)
	}
	self := tr.selfTimes(0)
	root := (s[0].EndUS - s[0].StartUS) - (s[1].EndUS - s[1].StartUS) - (s[2].EndUS - s[2].StartUS)
	if got := self["root"][0]; math.Abs(got-root) > 1e-6 {
		t.Errorf("root self time %v, want %v", got, root)
	}
	if len(self["child"]) != 1 {
		t.Errorf("child self times %v, want one entry for the operation", self["child"])
	}
}

func TestEndRoundScalesAndAverages(t *testing.T) {
	rec := newRecorder(0)
	rec.kernel = []float64{2 * kernelNominal.Seconds() * 1e3} // the machine runs at half the nominal speed
	rec.seconds("advise_s", 1e9)
	rec.seconds("advise_s", 3e9)
	rec.latency("cost_req_p50_us", 2e3)
	rec.latency("cost_req_p50_us", 4e3)
	rec.rate("ingest_stmts_per_s", 100, 1e9)
	rec.sample("live_heap_mb", 7)
	rec.endRound()
	if got := rec.timed["advise_s"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("durations became %v, want their scaled mean 1", got)
	}
	if got := rec.raw["advise_s"]; len(got) != 1 || got[0] != 2 {
		t.Errorf("unscaled durations became %v, want their mean 2", got)
	}
	if got := rec.timed["cost_req_p50_us"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("latencies became %v, want both, scaled", got)
	}
	if got := rec.timed["ingest_stmts_per_s"][0]; got != 200 {
		t.Errorf("rate scaled to %v, want 200", got)
	}
	if got := rec.timed["live_heap_mb"][0]; got != 7 {
		t.Errorf("size scaled to %v, want 7", got)
	}
}
