// Command benchmark is the repository's performance benchmark: four
// workloads, each dominated by a different layer, a handful of
// end-to-end metrics that repeat from run to run, and per-layer numbers
// from a separate traced run. README.md explains the choices.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics; --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones. Everything
// else goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Round 0 of a run is the reference round. Its inputs are drawn from
// referenceSeed whatever --seed says, so what depends only on the
// inputs — the quality of the recommendation, every counter, the bytes
// an operation allocates — is the same number on every run of the same
// code and is compared exactly. Its timings are dropped: the first
// round of a process grows the heap and is 20-40% slower than later
// ones. Rounds 1.. draw their inputs from --seed and give the timings;
// minRounds always run.
const (
	referenceSeed = 0
	minRounds     = 1 + minSamples
)

// workload is one of the benchmark's input mixes. A round sets the
// system up from nothing, drives a fixed amount of work, drawn from
// seed, through it and checks the outputs.
type workload interface {
	round(ctx context.Context, seed int64, round int, rec *recorder) error
}

type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the contract in BENCHMARK.json's driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "input seed (1 is the development seed, 2 the held-out one)")
	seconds := flag.Int("seconds", 30, "measure for about this long; at least 8 rounds are always run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	agree := flag.Bool("agree", false, "run every workload (or the one named) on ten seeds, twice, and compare the two sets")
	flag.Parse()

	// One core. Everything measured is serial — the search, the
	// daemon's one worker, the closed-loop client — and a second core
	// would only carry the concurrent garbage collector. On shared
	// machines that core comes and goes: with a neighbour busy on it,
	// set-up was 20% and an advisory operation 13% slower at two cores,
	// while the calibration kernel, which collects before it starts, did
	// not notice.
	runtime.GOMAXPROCS(1)
	if *agree {
		agreed, err := runAgree(*name, *seconds)
		if err != nil {
			fatal(err)
		}
		if !agreed {
			os.Exit(1)
		}
		return
	}
	res, err := run(options{
		workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *trace != 0, sizes: fullSizes, scratch: filepath.Join(".bench_build", "run"),
		traceDir: filepath.Join("benchmark", "out"),
	})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

type options struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	sizes    sizes
	scratch  string // journals are written below this directory
	traceDir string // a traced run leaves trace-<workload>.json here
}

func currentEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     os.Getenv("BENCH_COMMIT"),
	}
}

// run measures one workload and returns the result object.
func run(o options) (*result, error) {
	env := currentEnvironment()
	fmt.Fprintf(os.Stderr, "benchmark: workload %s seed %d trace %v; %s GOMAXPROCS %d of %d CPUs commit %q\n",
		o.workload, o.seed, o.traced, env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.Commit)

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.scratch, "bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	w, err := o.sizes.workload(o.workload, o.seed, tr, scratch)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	total := newRecorder(o.sizes.KernelLoops)
	begin := time.Now()
	var longest time.Duration
	rounds := 0
	for ; rounds < minRounds || time.Since(begin)+longest <= o.budget; rounds++ {
		reference := rounds == 0
		seed := o.seed
		if reference {
			seed = referenceSeed
		}
		rec := newRecorder(o.sizes.KernelLoops)
		mark := tr.mark()
		start := time.Now()
		if err := w.round(ctx, seed, rounds, rec); err != nil {
			return nil, fmt.Errorf("round %d: %w", rounds, err)
		}
		if d := time.Since(start); d > longest && !reference {
			longest = d
		}
		if tr != nil {
			for name, us := range tr.selfTimes(mark) {
				for _, v := range us {
					rec.duration("self."+name, v)
				}
			}
		}
		rec.endRound()
		total.merge(rec, reference)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d rounds (the first is the reference round) in %.1fs; calibration kernel median %.2f ms, durations scaled to %.2f ms\n",
		rounds, time.Since(begin).Seconds(), median(total.timed["calibration.kernel_ms"]), kernelNominal.Seconds()*1e3)
	for _, f := range total.failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}

	defs := endToEnd
	if o.traced {
		defs = perLayer
		deriveLayers(total)
	}
	res := &result{Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, err := m.value(total, !o.traced)
		if err != nil {
			return nil, err
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	res.Correct = total.failed == 0 && total.attempted > 0
	if o.traced {
		self := map[string]float64{}
		for name, v := range total.timed {
			if span, ok := strings.CutPrefix(name, "self."); ok {
				self[span] = median(v)
			}
		}
		if err := tr.write(o.traceDir, traceFile{Workload: o.workload, Seed: o.seed, Env: env, SelfUS: self}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for n := range fullSizes.Batch {
		names = append(names, n)
	}
	for n := range fullSizes.Daemon {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
