package server

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// histogram is a fixed-bucket latency histogram with Prometheus
// cumulative-bucket semantics. Safe for concurrent observation.
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf implied
	counts []int64   // len(bounds)+1
	sum    float64
	count  int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// write emits the histogram in Prometheus text exposition format.
func (h *histogram) write(w io.Writer, name string) {
	h.writeLabeled(w, name, "")
}

// writeLabeled emits the histogram with an extra label set (e.g.
// `route="GET /healthz"`) merged into every series.
func (h *histogram) writeLabeled(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count)
	}
}

// Metrics aggregates service-level observability counters, exposed in
// Prometheus text format on /metrics. Everything is hand-rolled — the
// container deliberately takes no dependencies.
type Metrics struct {
	mu       sync.Mutex
	requests map[[2]string]int64 // {route, code} -> count
	jobs     map[string]int64    // terminal state -> count
	shed     map[[2]string]int64 // {reason, tenant} -> requests shed by admission control

	jobsSubmitted atomic.Int64
	jobsRejected  atomic.Int64 // backpressure 429s

	optimizerCalls  atomic.Int64 // summed over finished jobs + sync costings
	costEvaluations atomic.Int64
	jobAllocs       atomic.Int64 // Mallocs deltas summed over finished jobs (approximate)

	// Continuous-mode counters: ingested batches/statements and the
	// control loop's applies, rollbacks and re-tune cycles.
	ingestBatches    atomic.Int64
	ingestStatements atomic.Int64
	contApplies      atomic.Int64
	contRollbacks    atomic.Int64
	contRetunes      atomic.Int64
	contRetuneSkips  atomic.Int64

	// Robustness counters (fault-injection, degraded mode, recovery).
	costingDegraded      atomic.Int64 // constraint decisions served by the external model
	costingPanics        atomic.Int64 // costing panics converted to typed errors
	degradedJobs         atomic.Int64 // jobs whose result carries Degraded
	handlerPanics        atomic.Int64 // HTTP handler panics recovered
	workerPanics         atomic.Int64 // job worker panics recovered (job -> failed)
	recoveredSessions    atomic.Int64 // sessions rebuilt from the journal at startup
	recoveredJobs        atomic.Int64 // job records restored from the journal
	recoveredInterrupted atomic.Int64 // recovered jobs that were non-terminal at crash

	// Tenancy / overload counters.
	requestsAbandoned   atomic.Int64 // sync costings stopped by client disconnect
	brownoutTransitions atomic.Int64 // brownout ladder stage changes

	searchSeconds *histogram
	routeSeconds  map[string]*histogram // per-endpoint latency, keyed by route pattern
}

// httpBounds are the latency buckets of the per-endpoint HTTP
// histograms.
var httpBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:      make(map[[2]string]int64),
		jobs:          make(map[string]int64),
		shed:          make(map[[2]string]int64),
		searchSeconds: newHistogram([]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}),
		routeSeconds:  make(map[string]*histogram),
	}
}

func (m *Metrics) observeRequest(route string, code int, seconds float64) {
	m.mu.Lock()
	m.requests[[2]string{route, strconv.Itoa(code)}]++
	rh := m.routeSeconds[route]
	if rh == nil {
		rh = newHistogram(httpBounds)
		m.routeSeconds[route] = rh
	}
	m.mu.Unlock()
	rh.observe(seconds)
}

func (m *Metrics) observeJobEnd(state JobState, seconds float64, optimizerCalls, costEvaluations int64) {
	m.mu.Lock()
	m.jobs[string(state)]++
	m.mu.Unlock()
	m.searchSeconds.observe(seconds)
	m.optimizerCalls.Add(optimizerCalls)
	m.costEvaluations.Add(costEvaluations)
}

// observeShed counts one admission-control rejection, labeled by the
// quota/brownout reason and the tenant label Server.observeShed chose.
func (m *Metrics) observeShed(reason, tenant string) {
	m.mu.Lock()
	m.shed[[2]string{reason, tenant}]++
	m.mu.Unlock()
}

// JobGauges is a point-in-time snapshot of non-terminal job states.
type JobGauges struct {
	Queued  int
	Running int
}

// Gauges is the point-in-time state a scrape reads from its owners:
// the job manager, the registry and the brownout ladder.
type Gauges struct {
	JobGauges
	Sessions          int
	SnapshotReuses    int64
	ResidentSnapshots int
	BrownoutStage     int
	AccountedBytes    int64
	MemoryBudget      int64
	Tenants           []TenantGauges // tenants with a live session or job
}

// TenantGauges is one tenant's share of a scrape.
type TenantGauges struct {
	Tenant   string
	Sessions int
	Jobs     int
	Bytes    int64 // accounted memory across the tenant's sessions
}

// sortedPairs returns m's keys in order, so the exposition is stable.
func sortedPairs(m map[[2]string]int64) [][2]string {
	keys := make([][2]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]string) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return keys
}

// Write emits every series. Gauges are gathered by the caller at
// scrape time (sessions and the job manager own that state). No series
// is labeled by session: a session's own counters are in its JSON
// (GET /v1/sessions/{name} and …/workloads).
func (m *Metrics) Write(w io.Writer, g Gauges) {
	fmt.Fprintln(w, "# TYPE idxmerged_http_requests_total counter")
	m.mu.Lock()
	for _, k := range sortedPairs(m.requests) {
		fmt.Fprintf(w, "idxmerged_http_requests_total{route=%q,code=%q} %d\n", k[0], k[1], m.requests[k])
	}
	jobKeys := make([]string, 0, len(m.jobs))
	for k := range m.jobs {
		jobKeys = append(jobKeys, k)
	}
	sort.Strings(jobKeys)
	fmt.Fprintln(w, "# TYPE idxmerged_jobs_total counter")
	for _, k := range jobKeys {
		fmt.Fprintf(w, "idxmerged_jobs_total{state=%q} %d\n", k, m.jobs[k])
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# TYPE idxmerged_jobs_submitted_total counter")
	fmt.Fprintf(w, "idxmerged_jobs_submitted_total %d\n", m.jobsSubmitted.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_jobs_rejected_total counter")
	fmt.Fprintf(w, "idxmerged_jobs_rejected_total %d\n", m.jobsRejected.Load())

	fmt.Fprintln(w, "# TYPE idxmerged_jobs_active gauge")
	fmt.Fprintf(w, "idxmerged_jobs_active{state=\"queued\"} %d\n", g.Queued)
	fmt.Fprintf(w, "idxmerged_jobs_active{state=\"running\"} %d\n", g.Running)

	fmt.Fprintln(w, "# TYPE idxmerged_optimizer_calls_total counter")
	fmt.Fprintf(w, "idxmerged_optimizer_calls_total %d\n", m.optimizerCalls.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_cost_evaluations_total counter")
	fmt.Fprintf(w, "idxmerged_cost_evaluations_total %d\n", m.costEvaluations.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_job_allocs_total counter")
	fmt.Fprintf(w, "idxmerged_job_allocs_total %d\n", m.jobAllocs.Load())

	fmt.Fprintln(w, "# TYPE idxmerged_costing_degraded_total counter")
	fmt.Fprintf(w, "idxmerged_costing_degraded_total %d\n", m.costingDegraded.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_costing_panics_recovered_total counter")
	fmt.Fprintf(w, "idxmerged_costing_panics_recovered_total %d\n", m.costingPanics.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_jobs_degraded_total counter")
	fmt.Fprintf(w, "idxmerged_jobs_degraded_total %d\n", m.degradedJobs.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_handler_panics_total counter")
	fmt.Fprintf(w, "idxmerged_handler_panics_total %d\n", m.handlerPanics.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_worker_panics_total counter")
	fmt.Fprintf(w, "idxmerged_worker_panics_total %d\n", m.workerPanics.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_recovered_sessions_total counter")
	fmt.Fprintf(w, "idxmerged_recovered_sessions_total %d\n", m.recoveredSessions.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_recovered_jobs_total counter")
	fmt.Fprintf(w, "idxmerged_recovered_jobs_total %d\n", m.recoveredJobs.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_recovered_interrupted_jobs_total counter")
	fmt.Fprintf(w, "idxmerged_recovered_interrupted_jobs_total %d\n", m.recoveredInterrupted.Load())

	fmt.Fprintln(w, "# TYPE idxmerged_sessions gauge")
	fmt.Fprintf(w, "idxmerged_sessions %d\n", g.Sessions)

	fmt.Fprintln(w, "# TYPE idxmerged_snapshot_reuses_total counter")
	fmt.Fprintf(w, "idxmerged_snapshot_reuses_total %d\n", g.SnapshotReuses)
	fmt.Fprintln(w, "# TYPE idxmerged_snapshots_resident gauge")
	fmt.Fprintf(w, "idxmerged_snapshots_resident %d\n", g.ResidentSnapshots)

	fmt.Fprintln(w, "# TYPE idxmerged_ingest_batches_total counter")
	fmt.Fprintf(w, "idxmerged_ingest_batches_total %d\n", m.ingestBatches.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_ingest_statements_total counter")
	fmt.Fprintf(w, "idxmerged_ingest_statements_total %d\n", m.ingestStatements.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_applies_total counter")
	fmt.Fprintf(w, "idxmerged_applies_total %d\n", m.contApplies.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_rollbacks_total counter")
	fmt.Fprintf(w, "idxmerged_rollbacks_total %d\n", m.contRollbacks.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_retunes_total counter")
	fmt.Fprintf(w, "idxmerged_retunes_total %d\n", m.contRetunes.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_retune_skips_total counter")
	fmt.Fprintf(w, "idxmerged_retune_skips_total %d\n", m.contRetuneSkips.Load())

	fmt.Fprintln(w, "# TYPE idxmerged_requests_abandoned_total counter")
	fmt.Fprintf(w, "idxmerged_requests_abandoned_total %d\n", m.requestsAbandoned.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_shed_total counter")
	m.mu.Lock()
	for _, k := range sortedPairs(m.shed) {
		fmt.Fprintf(w, "idxmerged_shed_total{reason=%q,tenant=%q} %d\n", k[0], k[1], m.shed[k])
	}
	m.mu.Unlock()
	fmt.Fprintln(w, "# TYPE idxmerged_brownout_transitions_total counter")
	fmt.Fprintf(w, "idxmerged_brownout_transitions_total %d\n", m.brownoutTransitions.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_brownout_stage gauge")
	fmt.Fprintf(w, "idxmerged_brownout_stage %d\n", g.BrownoutStage)
	fmt.Fprintln(w, "# TYPE idxmerged_accounted_bytes gauge")
	fmt.Fprintf(w, "idxmerged_accounted_bytes %d\n", g.AccountedBytes)
	fmt.Fprintln(w, "# TYPE idxmerged_memory_budget_bytes gauge")
	fmt.Fprintf(w, "idxmerged_memory_budget_bytes %d\n", g.MemoryBudget)
	// Each family's samples follow its own # TYPE line.
	for _, f := range []struct {
		name  string
		value func(TenantGauges) int64
	}{
		{"idxmerged_tenant_sessions", func(t TenantGauges) int64 { return int64(t.Sessions) }},
		{"idxmerged_tenant_jobs", func(t TenantGauges) int64 { return int64(t.Jobs) }},
		{"idxmerged_tenant_bytes", func(t TenantGauges) int64 { return t.Bytes }},
	} {
		fmt.Fprintf(w, "# TYPE %s gauge\n", f.name)
		for _, t := range g.Tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", f.name, t.Tenant, f.value(t))
		}
	}

	fmt.Fprintln(w, "# TYPE idxmerged_search_seconds histogram")
	m.searchSeconds.write(w, "idxmerged_search_seconds")
	fmt.Fprintln(w, "# TYPE idxmerged_http_route_seconds histogram")
	m.mu.Lock()
	routes := make([]string, 0, len(m.routeSeconds))
	for r := range m.routeSeconds {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	hists := make([]*histogram, len(routes))
	for i, r := range routes {
		hists[i] = m.routeSeconds[r]
	}
	m.mu.Unlock()
	for i, r := range routes {
		hists[i].writeLabeled(w, "idxmerged_http_route_seconds", fmt.Sprintf("route=%q", r))
	}
}
