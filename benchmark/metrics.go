package main

import (
	"fmt"
	"os"
)

// metric names one reported number and how it is taken from a run.
// BENCHMARK.json carries the same names, units and directions, and the
// bounds of the end-to-end ones; TestMetricsMatchManifest keeps the
// two lists equal.
type metric struct {
	Name, Unit string
	// Bound is the share of its median by which an end-to-end metric
	// may get worse before a change counts as a regression.
	Bound float64
	// Reference metrics are means over the reference round of values
	// its inputs determine; Exact ones of them must be the same number
	// on every run. The others are quantiles of timed samples.
	Reference, Exact bool
	// From is the sample series when it is not Name; Scale multiplies
	// the reported value (0 = 1); Quantile defaults to the median.
	From     string
	Scale    float64
	Quantile float64
}

// endToEnd lists what a user of the system sees. Every workload
// reports every one.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "advise_s", Unit: "s", Bound: 0.25},
	{Name: "advise_alloc_mb", Unit: "MB", Bound: 0.03, Reference: true},
	{Name: "cost_req_p50_us", Unit: "us", Bound: 0.25},
	{Name: "ingest_stmts_per_s", Unit: "stmts/s", Bound: 0.25},
	{Name: "restart_ready_s", Unit: "s", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Bound: 0.05},
	{Name: "storage_reduction_pct", Unit: "%", Bound: 0.001, Exact: true},
}

// perLayer lists the numbers of single layers, named module.metric. A
// workload that does not reach a layer reports 0 for it.
var perLayer = []metric{
	{Name: "sql.parse_us_per_stmt", Unit: "us"},
	{Name: "sql.fingerprint_us_per_stmt", Unit: "us"},

	{Name: "wscale.compress_ms", Unit: "ms", From: "self.wscale.compress", Scale: 1e-3},
	{Name: "wscale.prepare_ms", Unit: "ms", From: "self.wscale.prepare", Scale: 1e-3},
	{Name: "wscale.templates", Unit: "count", Exact: true},
	{Name: "wscale.dedup_ratio", Unit: "ratio", Exact: true},
	{Name: "wscale.table_hits", Unit: "count", Exact: true},
	{Name: "wscale.table_misses", Unit: "count", Exact: true},
	{Name: "wscale.table_hit_ratio", Unit: "ratio", Exact: true},
	{Name: "wscale.pruned_checks", Unit: "count", Exact: true},
	{Name: "wscale.window_ingest_us_per_stmt", Unit: "us"},
	{Name: "wscale.window_age_us", Unit: "us"},
	{Name: "wscale.window_snapshot_us", Unit: "us"},
	{Name: "wscale.prepare_windowed_ms", Unit: "ms"},
	{Name: "wscale.window_bytes", Unit: "bytes", Exact: true},

	{Name: "optimizer.prepare_us_per_query", Unit: "us"},
	{Name: "optimizer.cost_prepared_ns_per_call", Unit: "ns"},
	{Name: "optimizer.cost_prepared_allocs_per_call", Unit: "count"},
	{Name: "optimizer.optimize_us_per_query", Unit: "us"},
	{Name: "optimizer.calls", Unit: "count", Exact: true},

	{Name: "core.seekcost_ms", Unit: "ms", From: "self.core.seekcost", Scale: 1e-3},
	{Name: "core.greedy_ms", Unit: "ms", From: "self.core.greedy", Scale: 1e-3},
	{Name: "core.iterations", Unit: "count", Exact: true},
	{Name: "core.ms_per_iteration", Unit: "ms"},
	{Name: "core.constraint_checks", Unit: "count", Exact: true},
	{Name: "core.configs_explored", Unit: "count", Exact: true},
	{Name: "core.check_miss_us", Unit: "us"},
	{Name: "core.check_hit_us", Unit: "us"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Exact: true},
	{Name: "core.cost_increase_pct", Unit: "%", Exact: true},

	{Name: "advisor.initial_config_ms", Unit: "ms", From: "self.advisor.initial_config", Scale: 1e-3},

	{Name: "engine.build_ms", Unit: "ms"},
	{Name: "engine.analyze_ms", Unit: "ms"},
	{Name: "engine.snapshot_fork_us", Unit: "us"},
	{Name: "engine.data_mb", Unit: "MB", Exact: true},

	{Name: "server.http_floor_us", Unit: "us"},
	{Name: "server.session_create_ms", Unit: "ms"},
	{Name: "server.register_ms", Unit: "ms"},
	{Name: "server.job_queue_wait_ms", Unit: "ms"},
	{Name: "server.job_run_ms", Unit: "ms"},
	{Name: "server.job_poll_sleep_ms", Unit: "ms"},
	{Name: "server.job_overhead_ms", Unit: "ms"},
	{Name: "server.cost_overhead_us", Unit: "us"},
	{Name: "server.cost_req_p99_us", Unit: "us", From: "cost_req_p50_us", Quantile: 0.99},
	{Name: "server.cost_busy_p50_us", Unit: "us"},
	{Name: "server.cost_busy_p99_us", Unit: "us", From: "server.cost_busy_p50_us", Quantile: 0.99},
	{Name: "server.ingest_req_ms", Unit: "ms"},
	{Name: "server.journal_cost_us", Unit: "us"},
	{Name: "server.journal_bytes", Unit: "bytes"},
	{Name: "server.journal_records", Unit: "count", Exact: true},
	{Name: "server.replay_ms", Unit: "ms"},
	{Name: "server.metrics_scrape_us", Unit: "us"},
	{Name: "server.metrics_series", Unit: "count", Exact: true},

	{Name: "facade.payload_encode_us", Unit: "us", From: "self.facade.payload"},
	{Name: "trace.overhead_pct", Unit: "%"},
	{Name: "trace.coverage_pct", Unit: "%"},
	{Name: "calibration.kernel_ms", Unit: "ms"},
	{Name: "calibration.beside_daemon_pct", Unit: "%"},
}

// value reports the metric, printing the sample count and quartiles
// behind it and the median of the same samples before they were scaled
// to the nominal machine speed. A timing with fewer than minSamples
// samples is refused; required says whether having none at all is an
// error too.
func (m metric) value(rec *recorder, required bool) (float64, error) {
	if v, ok := rec.derived[m.Name]; ok {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %-8s derived\n", m.Name, v, m.Unit)
		return v, nil
	}
	from := m.From
	if from == "" {
		from = m.Name
	}
	samples := rec.timed[from]
	if m.Reference || m.Exact {
		samples = rec.reference[from]
	}
	if len(samples) == 0 {
		if required {
			return 0, fmt.Errorf("metric %s: no samples", m.Name)
		}
		return 0, nil
	}
	if m.Reference || m.Exact {
		v := mean(samples)
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %-8s mean of %d in the reference round\n", m.Name, v, m.Unit, len(samples))
		return v, nil
	}
	if len(samples) < minSamples {
		return 0, fmt.Errorf("metric %s: %d samples, fewer than %d", m.Name, len(samples), minSamples)
	}
	scale, q := m.Scale, m.Quantile
	if scale == 0 {
		scale = 1
	}
	if q == 0 {
		q = 0.5
	}
	s := sortedCopy(samples)
	v := quantile(s, q) * scale
	fmt.Fprintf(os.Stderr, "  %-40s %14.6g %-8s n=%d q1=%.6g q3=%.6g unscaled=%.6g\n",
		m.Name, v, m.Unit, len(s), quantile(s, 0.25)*scale, quantile(s, 0.75)*scale, quantile(sortedCopy(rec.raw[from]), q)*scale)
	return v, nil
}

// deriveLayers computes the per-layer metrics that are differences or
// ratios of others. A metric whose inputs the workload did not produce
// is left out and reports 0.
func deriveLayers(rec *recorder) {
	med := func(name string) (float64, bool) {
		v := rec.timed[name]
		return median(v), len(v) >= minSamples
	}
	if served, ok := med("cost_req_p50_us"); ok {
		if direct, ok := med("facade.cost_us"); ok {
			rec.derived["server.cost_overhead_us"] = served - direct
		}
	}
	for _, write := range []string{"server.ingest_req_ms", "server.register_ms"} {
		with, ok1 := med(write)
		without, ok2 := med("nojournal." + write)
		if ok1 && ok2 {
			rec.derived["server.journal_cost_us"] = (with - without) * 1e3
			break
		}
	}
	// A traced daemon run traces every other round, so each side has
	// half the rounds; three are the fewest a run can have.
	if traced, plain := rec.timed["traced_advise_s"], rec.timed["advise_s"]; len(traced) >= 3 && len(plain) >= 3 {
		rec.derived["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
		if root := rec.timed["self.advise"]; len(root) >= 3 {
			rec.derived["trace.coverage_pct"] = 100 * (1 - median(root)/(median(traced)*1e6))
		}
	}
}
