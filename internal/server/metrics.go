package server

import (
	"fmt"
	"io"
	"sort"
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
	requests map[string]int64 // "route|code" -> count
	jobs     map[string]int64 // terminal state -> count
	shed     map[string]int64 // "reason|tenant" -> requests shed by admission control

	jobsSubmitted atomic.Int64
	jobsRejected  atomic.Int64 // backpressure 429s

	optimizerCalls  atomic.Int64 // summed over finished jobs + sync costings
	costEvaluations atomic.Int64
	jobAllocs       atomic.Int64 // Mallocs deltas summed over finished jobs (approximate)

	// Distributed-costing counters, summed over finished jobs: batches
	// and items served by the worker pool, and batches that fell back
	// to local costing.
	remoteBatches   atomic.Int64
	remoteItems     atomic.Int64
	remoteFallbacks atomic.Int64

	// Continuous-mode counters: ingested batches/statements and the
	// control loop's applies, rollbacks and re-tune cycles.
	ingestBatches    atomic.Int64
	ingestStatements atomic.Int64
	contApplies      atomic.Int64
	contRollbacks    atomic.Int64
	contRetunes      atomic.Int64
	contRetuneSkips  atomic.Int64

	// Robustness counters (fault-injection, degraded mode, recovery).
	costingRetries       atomic.Int64 // transient costing failures retried
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
	deadlineExceeded    atomic.Int64 // jobs terminated by their own deadline
	brownoutTransitions atomic.Int64 // brownout ladder stage changes

	searchSeconds *histogram
	httpSeconds   *histogram
	routeSeconds  map[string]*histogram // per-endpoint latency, keyed by route pattern
}

// httpBounds are the latency buckets shared by the aggregate and the
// per-endpoint HTTP histograms.
var httpBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:      make(map[string]int64),
		jobs:          make(map[string]int64),
		shed:          make(map[string]int64),
		searchSeconds: newHistogram([]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}),
		httpSeconds:   newHistogram(httpBounds),
		routeSeconds:  make(map[string]*histogram),
	}
}

func (m *Metrics) observeRequest(route string, code int, seconds float64) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", route, code)]++
	rh := m.routeSeconds[route]
	if rh == nil {
		rh = newHistogram(httpBounds)
		m.routeSeconds[route] = rh
	}
	m.mu.Unlock()
	m.httpSeconds.observe(seconds)
	rh.observe(seconds)
}

func (m *Metrics) observeJobEnd(state JobState, seconds float64, optimizerCalls, costEvaluations int64) {
	m.mu.Lock()
	m.jobs[string(state)]++
	m.mu.Unlock()
	if state == JobDeadlineExceeded {
		m.deadlineExceeded.Add(1)
	}
	m.searchSeconds.observe(seconds)
	m.optimizerCalls.Add(optimizerCalls)
	m.costEvaluations.Add(costEvaluations)
}

// observeShed counts one admission-control rejection, labeled by the
// quota/brownout reason and the tenant it hit.
func (m *Metrics) observeShed(reason, tenant string) {
	m.mu.Lock()
	m.shed[reason+"|"+tenant]++
	m.mu.Unlock()
}

// SessionGauges is a point-in-time per-session snapshot gathered at
// scrape time.
type SessionGauges struct {
	Name string
	// Summed over the session's registered workloads: template count, and
	// the cost tables' size and hit/miss totals over both cost models'
	// cells.
	Templates        int
	CostTableEntries int
	CostTableHits    int64
	CostTableMisses  int64
	// Breaker snapshots the session's costing circuit breaker.
	BreakerState       string
	BreakerTransitions int64
	// Continuous-loop gauges (zero for request/response sessions;
	// Continuous gates the per-session series).
	Continuous       bool
	WindowTemplates  int
	WindowMembers    int
	WindowWeight     float64
	WindowGeneration int64
	AppliedIndexes   int
	ObservedRatio    float64
	ContApplies      int64
	ContRollbacks    int64
}

// JobGauges is a point-in-time snapshot of non-terminal job states.
type JobGauges struct {
	Queued  int
	Running int
}

// TenantGauges is a point-in-time per-tenant snapshot gathered at
// scrape time.
type TenantGauges struct {
	Tenant     string
	Sessions   int
	Jobs       int
	Bytes      int64 // accounted memory across the tenant's sessions
	IngestShed int64 // statements rejected by the ingest rate limiter
}

// OverloadGauges snapshots the admission/brownout state for the
// metrics scrape (nil = the section is omitted).
type OverloadGauges struct {
	BrownoutStage  int
	AccountedBytes int64
	MemoryBudget   int64
	Tenants        []TenantGauges
}

// PoolGauges snapshots the distributed-costing worker pool for the
// metrics scrape (nil pool = the section is omitted).
type PoolGauges struct {
	Workers   int
	Healthy   int
	Batches   int64
	Items     int64
	RPCs      int64
	RPCErrors int64
	Hedges    int64
}

// Write emits every series. Gauges are gathered by the caller at
// scrape time (sessions, the job manager and the worker pool own that
// state).
func (m *Metrics) Write(w io.Writer, jg JobGauges, sessions []SessionGauges, pool *PoolGauges, og *OverloadGauges, snapshotReuses int64, residentSnapshots int) {
	fmt.Fprintln(w, "# TYPE idxmerged_http_requests_total counter")
	m.mu.Lock()
	reqKeys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Strings(reqKeys)
	for _, k := range reqKeys {
		route, code := k, ""
		for i := len(k) - 1; i >= 0; i-- {
			if k[i] == '|' {
				route, code = k[:i], k[i+1:]
				break
			}
		}
		fmt.Fprintf(w, "idxmerged_http_requests_total{route=%q,code=%q} %d\n", route, code, m.requests[k])
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
	fmt.Fprintf(w, "idxmerged_jobs_active{state=\"queued\"} %d\n", jg.Queued)
	fmt.Fprintf(w, "idxmerged_jobs_active{state=\"running\"} %d\n", jg.Running)

	fmt.Fprintln(w, "# TYPE idxmerged_optimizer_calls_total counter")
	fmt.Fprintf(w, "idxmerged_optimizer_calls_total %d\n", m.optimizerCalls.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_cost_evaluations_total counter")
	fmt.Fprintf(w, "idxmerged_cost_evaluations_total %d\n", m.costEvaluations.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_job_allocs_total counter")
	fmt.Fprintf(w, "idxmerged_job_allocs_total %d\n", m.jobAllocs.Load())

	fmt.Fprintln(w, "# TYPE idxmerged_costing_retries_total counter")
	fmt.Fprintf(w, "idxmerged_costing_retries_total %d\n", m.costingRetries.Load())
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
	fmt.Fprintf(w, "idxmerged_sessions %d\n", len(sessions))
	fmt.Fprintln(w, "# TYPE idxmerged_workload_templates gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_costtable_entries gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_costtable_hits_total counter")
	fmt.Fprintln(w, "# TYPE idxmerged_costtable_misses_total counter")
	fmt.Fprintln(w, "# TYPE idxmerged_breaker_state gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_breaker_transitions_total counter")
	fmt.Fprintln(w, "# TYPE idxmerged_window_templates gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_window_members gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_window_weight gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_window_generation gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_applied_indexes gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_observed_ratio gauge")
	fmt.Fprintln(w, "# TYPE idxmerged_session_applies_total counter")
	fmt.Fprintln(w, "# TYPE idxmerged_session_rollbacks_total counter")
	for _, s := range sessions {
		fmt.Fprintf(w, "idxmerged_workload_templates{session=%q} %d\n", s.Name, s.Templates)
		fmt.Fprintf(w, "idxmerged_costtable_entries{session=%q} %d\n", s.Name, s.CostTableEntries)
		fmt.Fprintf(w, "idxmerged_costtable_hits_total{session=%q} %d\n", s.Name, s.CostTableHits)
		fmt.Fprintf(w, "idxmerged_costtable_misses_total{session=%q} %d\n", s.Name, s.CostTableMisses)
		fmt.Fprintf(w, "idxmerged_breaker_state{session=%q,state=%q} 1\n", s.Name, s.BreakerState)
		fmt.Fprintf(w, "idxmerged_breaker_transitions_total{session=%q} %d\n", s.Name, s.BreakerTransitions)
		if s.Continuous {
			fmt.Fprintf(w, "idxmerged_window_templates{session=%q} %d\n", s.Name, s.WindowTemplates)
			fmt.Fprintf(w, "idxmerged_window_members{session=%q} %d\n", s.Name, s.WindowMembers)
			fmt.Fprintf(w, "idxmerged_window_weight{session=%q} %g\n", s.Name, s.WindowWeight)
			fmt.Fprintf(w, "idxmerged_window_generation{session=%q} %d\n", s.Name, s.WindowGeneration)
			fmt.Fprintf(w, "idxmerged_applied_indexes{session=%q} %d\n", s.Name, s.AppliedIndexes)
			fmt.Fprintf(w, "idxmerged_observed_ratio{session=%q} %g\n", s.Name, s.ObservedRatio)
			fmt.Fprintf(w, "idxmerged_session_applies_total{session=%q} %d\n", s.Name, s.ContApplies)
			fmt.Fprintf(w, "idxmerged_session_rollbacks_total{session=%q} %d\n", s.Name, s.ContRollbacks)
		}
	}

	fmt.Fprintln(w, "# TYPE idxmerged_snapshot_reuses_total counter")
	fmt.Fprintf(w, "idxmerged_snapshot_reuses_total %d\n", snapshotReuses)
	fmt.Fprintln(w, "# TYPE idxmerged_snapshots_resident gauge")
	fmt.Fprintf(w, "idxmerged_snapshots_resident %d\n", residentSnapshots)

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
	fmt.Fprintln(w, "# TYPE idxmerged_deadline_exceeded_total counter")
	fmt.Fprintf(w, "idxmerged_deadline_exceeded_total %d\n", m.deadlineExceeded.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_shed_total counter")
	m.mu.Lock()
	shedKeys := make([]string, 0, len(m.shed))
	for k := range m.shed {
		shedKeys = append(shedKeys, k)
	}
	sort.Strings(shedKeys)
	for _, k := range shedKeys {
		reason, tenant := k, ""
		for i := len(k) - 1; i >= 0; i-- {
			if k[i] == '|' {
				reason, tenant = k[:i], k[i+1:]
				break
			}
		}
		fmt.Fprintf(w, "idxmerged_shed_total{reason=%q,tenant=%q} %d\n", reason, tenant, m.shed[k])
	}
	m.mu.Unlock()
	fmt.Fprintln(w, "# TYPE idxmerged_brownout_transitions_total counter")
	fmt.Fprintf(w, "idxmerged_brownout_transitions_total %d\n", m.brownoutTransitions.Load())
	if og != nil {
		fmt.Fprintln(w, "# TYPE idxmerged_brownout_stage gauge")
		fmt.Fprintf(w, "idxmerged_brownout_stage %d\n", og.BrownoutStage)
		fmt.Fprintln(w, "# TYPE idxmerged_accounted_bytes gauge")
		fmt.Fprintf(w, "idxmerged_accounted_bytes %d\n", og.AccountedBytes)
		fmt.Fprintln(w, "# TYPE idxmerged_memory_budget_bytes gauge")
		fmt.Fprintf(w, "idxmerged_memory_budget_bytes %d\n", og.MemoryBudget)
		fmt.Fprintln(w, "# TYPE idxmerged_tenant_sessions gauge")
		fmt.Fprintln(w, "# TYPE idxmerged_tenant_jobs gauge")
		fmt.Fprintln(w, "# TYPE idxmerged_tenant_bytes gauge")
		fmt.Fprintln(w, "# TYPE idxmerged_tenant_ingest_shed_total counter")
		for _, t := range og.Tenants {
			fmt.Fprintf(w, "idxmerged_tenant_sessions{tenant=%q} %d\n", t.Tenant, t.Sessions)
			fmt.Fprintf(w, "idxmerged_tenant_jobs{tenant=%q} %d\n", t.Tenant, t.Jobs)
			fmt.Fprintf(w, "idxmerged_tenant_bytes{tenant=%q} %d\n", t.Tenant, t.Bytes)
			fmt.Fprintf(w, "idxmerged_tenant_ingest_shed_total{tenant=%q} %d\n", t.Tenant, t.IngestShed)
		}
	}

	fmt.Fprintln(w, "# TYPE idxmerged_remote_batches_total counter")
	fmt.Fprintf(w, "idxmerged_remote_batches_total %d\n", m.remoteBatches.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_remote_items_total counter")
	fmt.Fprintf(w, "idxmerged_remote_items_total %d\n", m.remoteItems.Load())
	fmt.Fprintln(w, "# TYPE idxmerged_remote_fallbacks_total counter")
	fmt.Fprintf(w, "idxmerged_remote_fallbacks_total %d\n", m.remoteFallbacks.Load())
	if pool != nil {
		fmt.Fprintln(w, "# TYPE idxmerged_pool_workers gauge")
		fmt.Fprintf(w, "idxmerged_pool_workers %d\n", pool.Workers)
		fmt.Fprintln(w, "# TYPE idxmerged_pool_workers_healthy gauge")
		fmt.Fprintf(w, "idxmerged_pool_workers_healthy %d\n", pool.Healthy)
		fmt.Fprintln(w, "# TYPE idxmerged_pool_batches_total counter")
		fmt.Fprintf(w, "idxmerged_pool_batches_total %d\n", pool.Batches)
		fmt.Fprintln(w, "# TYPE idxmerged_pool_items_total counter")
		fmt.Fprintf(w, "idxmerged_pool_items_total %d\n", pool.Items)
		fmt.Fprintln(w, "# TYPE idxmerged_pool_rpcs_total counter")
		fmt.Fprintf(w, "idxmerged_pool_rpcs_total %d\n", pool.RPCs)
		fmt.Fprintln(w, "# TYPE idxmerged_pool_rpc_errors_total counter")
		fmt.Fprintf(w, "idxmerged_pool_rpc_errors_total %d\n", pool.RPCErrors)
		fmt.Fprintln(w, "# TYPE idxmerged_pool_hedges_total counter")
		fmt.Fprintf(w, "idxmerged_pool_hedges_total %d\n", pool.Hedges)
	}

	fmt.Fprintln(w, "# TYPE idxmerged_search_seconds histogram")
	m.searchSeconds.write(w, "idxmerged_search_seconds")
	fmt.Fprintln(w, "# TYPE idxmerged_http_request_seconds histogram")
	m.httpSeconds.write(w, "idxmerged_http_request_seconds")
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
