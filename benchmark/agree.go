package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// manifest is the part of BENCHMARK.json the agreement check reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them, which is what the
// acceptance rule for this benchmark is stated in.
func quartiles(values []float64) (q1, q3 float64) {
	d := sortedCopy(values)
	at := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(3)
}

// agreeSeeds is the number of seeds in a set, as in the acceptance
// procedure.
const agreeSeeds = 10

// minCoverage is the least share, in percent, of an unrolled batch
// operation that its layer spans must cover.
const minCoverage = 95

// runAgree repeats the acceptance procedure: every workload on seeds
// 1..agreeSeeds, as two sets in opposite workload order, plus one traced
// run per workload and set. Two things are compared against each
// end-to-end metric's bound. Across the seeds of a set, which is what
// the acceptance procedure looks at and mixes the inputs' variation
// with the machine's: the quartile spread of each set and by how much
// the second set's median is worse. And seed by seed, which leaves the
// machine's alone: the median and the quartile spread of the ten
// differences between the two runs of one seed. Exact metrics and the
// exact per-layer counters of the traced runs must not differ at all,
// the layer spans must cover the unrolled batch operation, and the
// calibration kernel must not be slower beside a daemon.
// A run that fails its output checks is an error.
func runAgree(only string, seconds int) (agreed bool, err error) {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	var names []string
	for _, w := range mf.Workloads {
		if only == "" || only == w.Name {
			names = append(names, w.Name)
		}
	}
	invoke := func(name string, seed, trace int) (map[string]metricValue, error) {
		out, err := exec.Command(exe, "--workload", name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace)).Output()
		var res result
		if err == nil {
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			err = json.Unmarshal(lines[len(lines)-1], &res)
		}
		if err == nil && !res.Correct {
			err = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		}
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
		}
		return res.Metrics, nil
	}

	// values[set][workload][metric] holds one value per seed,
	// layers[set][workload] the traced run's metrics.
	var values [2]map[string]map[string][]float64
	var layers [2]map[string]map[string]metricValue
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		layers[set] = map[string]map[string]metricValue{}
		order := slices.Clone(names)
		if set == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			values[set][name] = map[string][]float64{}
			for seed := 1; seed <= agreeSeeds; seed++ {
				metrics, err := invoke(name, seed, 0)
				if err != nil {
					return false, err
				}
				for m, v := range metrics {
					values[set][name][m] = append(values[set][name][m], v.Value)
				}
			}
			if layers[set][name], err = invoke(name, 1, 1); err != nil {
				return false, err
			}
		}
	}

	exact := map[string]bool{}
	for _, m := range endToEnd {
		exact[m.Name] = m.Exact
	}
	env := currentEnvironment()
	fmt.Printf("agreement of two sets of %d seeds, %d s per run; %s, runs at GOMAXPROCS 1 of %d CPUs, commit %q\n",
		agreeSeeds, seconds, env.GoVersion, env.NumCPU, env.Commit)
	fmt.Printf("across the seeds of a set: median 1, median 2, by how much 2 is worse, quartile spread of each set\n")
	fmt.Printf("seed by seed: median and quartile spread of (run 2 - run 1) / run 1, worse counted positive\n\n")
	fmt.Printf("%-17s %-22s %-8s %12s %12s %8s %8s %8s %8s %8s %7s\n",
		"workload", "metric", "unit", "median 1", "median 2", "worse %", "spread 1", "spread 2", "pairs %", "noise %", "bound %")
	bad := 0
	for _, name := range names {
		for _, m := range mf.EndToEnd {
			sets := [2][]float64{values[0][name][m.Name], values[1][name][m.Name]}
			if len(sets[0]) != agreeSeeds || len(sets[1]) != agreeSeeds {
				fmt.Printf("%-17s %-22s missing\n", name, m.Name)
				bad++
				continue
			}
			sign := 100.0
			if m.Better == "higher" {
				sign = -100
			}
			first, second := median(sets[0]), median(sets[1])
			worse := sign * (second - first) / first
			var spread [2]float64
			for i, v := range sets {
				q1, q3 := quartiles(v)
				spread[i] = 100 * (q3 - q1) / median(v)
			}
			pairs := make([]float64, agreeSeeds)
			same := true
			for i := range pairs {
				pairs[i] = sign * (sets[1][i] - sets[0][i]) / sets[0][i]
				same = same && sets[0][i] == sets[1][i]
			}
			q1, q3 := quartiles(pairs)
			verdict := ""
			switch bound := 100 * m.Bound; {
			case exact[m.Name] && !same:
				verdict = "  DIFFERS"
			case spread[0] > bound || spread[1] > bound:
				verdict = "  SPREAD OVER BOUND"
			case worse > bound || median(pairs) > bound:
				verdict = "  SECOND SET WORSE"
			case q3-q1 > bound:
				verdict = "  NOISE OVER BOUND"
			}
			if verdict != "" {
				bad++
			}
			fmt.Printf("%-17s %-22s %-8s %12.6g %12.6g %8.2f %8.2f %8.2f %8.2f %8.2f %7.1f%s\n",
				name, m.Name, m.Unit, first, second, worse, spread[0], spread[1], median(pairs), q3-q1, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("\nexact per-layer counters of the traced runs (seed 1), set 1 against set 2\n")
	for _, name := range names {
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			first, second := layers[0][name][m.Name].Value, layers[1][name][m.Name].Value
			verdict := ""
			if first != second {
				verdict = "  DIFFERS"
				bad++
			}
			fmt.Printf("%-17s %-28s %18.10g %18.10g%s\n", name, m.Name, first, second, verdict)
		}
	}
	// The per-layer shares of a batch operation are read from the layer
	// spans' self times, so those must account for the operation.
	fmt.Printf("\nshare of the unrolled batch operation inside layer spans, traced runs; at least %d%%\n", minCoverage)
	for _, name := range names {
		if _, batch := fullSizes.Batch[name]; !batch {
			continue
		}
		for set := range layers {
			covered := layers[set][name]["trace.coverage_pct"].Value
			verdict := ""
			if covered < minCoverage {
				verdict = "  SPANS DO NOT COVER THE OPERATION"
				bad++
			}
			fmt.Printf("%-17s set %d %8.2f%%%s\n", name, set+1, covered, verdict)
		}
	}
	fmt.Printf("\ncalibration kernel beside the idle daemon against without it, traced runs; at most %d%% slower\n", besideDaemonMax)
	for _, name := range names {
		for set := range layers {
			beside := layers[set][name]["calibration.beside_daemon_pct"].Value
			verdict := ""
			if beside > besideDaemonMax {
				verdict = "  KERNEL SLOWER BESIDE DAEMON"
				bad++
			}
			fmt.Printf("%-17s set %d %8.2f%%%s\n", name, set+1, beside, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d disagreements\n", bad)
		return false, nil
	}
	fmt.Printf("\nthe two sets agree\n")
	return true, nil
}
