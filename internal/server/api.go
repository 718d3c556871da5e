// Package server implements idxmerged, a long-running index-merging
// advisor service: an HTTP JSON API that manages named sessions
// (schema + generated data + analyzed statistics), registers
// workloads, answers synchronous what-if costing requests, and runs
// tune/merge searches as asynchronous, cancellable jobs on a bounded
// worker pool — the continuously-available counterpart of the batch
// cmd/idxmerge client, in the spirit of interactive what-if advisors
// and always-on index management services over live workloads.
package server

import (
	"time"

	"indexmerge"
	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
)

// IndexDefPayload is the wire form of an index definition.
type IndexDefPayload struct {
	Name    string   `json:"name,omitempty"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

// NewIndexDefPayloads converts catalog definitions to wire form.
func NewIndexDefPayloads(defs []catalog.IndexDef) []IndexDefPayload {
	out := make([]IndexDefPayload, len(defs))
	for i, d := range defs {
		out[i] = IndexDefPayload{Name: d.Name, Table: d.Table, Columns: append([]string(nil), d.Columns...)}
	}
	return out
}

// MergeStepPayload is the wire form of one accepted merge step.
type MergeStepPayload struct {
	ParentA     string `json:"parent_a"`
	ParentB     string `json:"parent_b"`
	Result      string `json:"result"`
	BytesBefore int64  `json:"bytes_before"`
	BytesAfter  int64  `json:"bytes_after"`
}

// ProgressPayload is the wire form of a search progress snapshot. It
// is served while a job runs and embedded in terminal job status, and
// cmd/idxmerge -json streams the same struct.
type ProgressPayload struct {
	Steps           int   `json:"steps"`
	ConfigsExplored int64 `json:"configs_explored"`
	CostEvaluations int64 `json:"cost_evaluations"`
	OptimizerCalls  int64 `json:"optimizer_calls"`
	InitialBytes    int64 `json:"initial_bytes"`
	CurrentBytes    int64 `json:"current_bytes"`
	SavedBytes      int64 `json:"saved_bytes"`
}

// NewProgressPayload converts a core progress snapshot to wire form.
func NewProgressPayload(p core.Progress) ProgressPayload {
	return ProgressPayload{
		Steps:           p.Steps,
		ConfigsExplored: p.ConfigsExplored,
		CostEvaluations: p.CostEvaluations,
		OptimizerCalls:  p.OptimizerCalls,
		InitialBytes:    p.InitialBytes,
		CurrentBytes:    p.CurrentBytes,
		SavedBytes:      p.SavedBytes(),
	}
}

// MergeResultPayload is the wire form of a completed merging run —
// one schema shared by the service's job results and the batch CLI's
// -json output.
type MergeResultPayload struct {
	Initial             []IndexDefPayload  `json:"initial"`
	Final               []IndexDefPayload  `json:"final"`
	Steps               []MergeStepPayload `json:"steps,omitempty"`
	InitialBytes        int64              `json:"initial_bytes"`
	FinalBytes          int64              `json:"final_bytes"`
	StorageReductionPct float64            `json:"storage_reduction_pct"`
	InitialCost         float64            `json:"initial_cost"`
	FinalCost           float64            `json:"final_cost"`
	CostIncreasePct     float64            `json:"cost_increase_pct"`
	Bound               float64            `json:"bound,omitempty"`
	MetBudget           *bool              `json:"met_budget,omitempty"` // Cost-Minimal dual only
	CostEvaluations     int64              `json:"cost_evaluations"`
	OptimizerCalls      int64              `json:"optimizer_calls"`
	ConfigsExplored     int64              `json:"configs_explored"`
	ElapsedSeconds      float64            `json:"elapsed_seconds"`
	// Degraded marks a best-effort result: at least one constraint
	// decision (or the final cost) came from the external analytic
	// model because the optimizer-backed costing path kept failing.
	// All four fields are zero on a healthy run, so results from the
	// resilient and plain paths are byte-identical when no fault fires.
	Degraded        bool  `json:"degraded,omitempty"`
	Retries         int64 `json:"retries,omitempty"`
	DegradedChecks  int64 `json:"degraded_checks,omitempty"`
	PanicsRecovered int64 `json:"panics_recovered,omitempty"`
	// Compression fields are set only by costmodel "compressed" runs
	// (all zero otherwise, keeping plain-run payloads byte-identical):
	// template count and dedup ratio of the compressed workload, this
	// run's (template, atom) cost-table traffic, and the constraint
	// checks rejected by the admissible lower bound without any exact
	// costing.
	Templates       int     `json:"templates,omitempty"`
	DedupRatio      float64 `json:"dedup_ratio,omitempty"`
	CostTableHits   int64   `json:"cost_table_hits,omitempty"`
	CostTableMisses int64   `json:"cost_table_misses,omitempty"`
	PrunedChecks    int64   `json:"pruned_checks,omitempty"`
}

func newSearchPayload(res *core.SearchResult) MergeResultPayload {
	steps := make([]MergeStepPayload, len(res.Steps))
	for i, s := range res.Steps {
		steps[i] = MergeStepPayload{
			ParentA:     s.ParentA,
			ParentB:     s.ParentB,
			Result:      s.Result,
			BytesBefore: s.BytesBefore,
			BytesAfter:  s.BytesAfter,
		}
	}
	return MergeResultPayload{
		Initial:             NewIndexDefPayloads(res.Initial.Defs()),
		Final:               NewIndexDefPayloads(res.Final.Defs()),
		Steps:               steps,
		InitialBytes:        res.InitialBytes,
		FinalBytes:          res.FinalBytes,
		StorageReductionPct: 100 * res.StorageReduction(),
		CostEvaluations:     res.CostEvaluations,
		OptimizerCalls:      res.OptimizerCalls,
		ConfigsExplored:     res.ConfigsExplored,
		ElapsedSeconds:      res.Elapsed.Seconds(),
	}
}

// NewMergeResultPayload converts a facade merge result to wire form.
func NewMergeResultPayload(res *indexmerge.MergeResult) MergeResultPayload {
	p := newSearchPayload(res.SearchResult)
	p.InitialCost = res.InitialCost
	p.FinalCost = res.FinalCost
	p.CostIncreasePct = 100 * res.CostIncrease()
	p.Bound = res.Bound
	p.Degraded = res.Degraded
	p.Retries = res.Retries
	p.DegradedChecks = res.DegradedChecks
	p.PanicsRecovered = res.PanicsRecovered
	p.Templates = res.Templates
	p.DedupRatio = res.DedupRatio
	p.CostTableHits = res.CostTableHits
	p.CostTableMisses = res.CostTableMisses
	p.PrunedChecks = res.PrunedChecks
	return p
}

// NewDualResultPayload converts a Cost-Minimal dual result to wire form.
func NewDualResultPayload(res *indexmerge.DualResult) MergeResultPayload {
	p := newSearchPayload(&res.SearchResult)
	p.InitialCost = res.InitialCost
	p.FinalCost = res.FinalCost
	if res.InitialCost != 0 {
		p.CostIncreasePct = 100 * (res.FinalCost/res.InitialCost - 1)
	}
	met := res.MetBudget
	p.MetBudget = &met
	return p
}

// TuneResultPayload is the wire form of a workload-tuning job result.
type TuneResultPayload struct {
	Indexes    []IndexDefPayload `json:"indexes"`
	TotalBytes int64             `json:"total_bytes"`
}

// CreateSessionRequest creates a named session over one of the
// built-in experimental databases (or a snapshot file).
type CreateSessionRequest struct {
	Name string `json:"name"`
	// Tenant names the owning tenant for quota accounting and metrics
	// (default "default"). The X-Tenant request header sets it when the
	// body leaves it empty; when both are present they must agree.
	Tenant string `json:"tenant,omitempty"`
	// DB is tpcd | synthetic1 | synthetic2 | file:PATH.
	DB    string  `json:"db"`
	Scale float64 `json:"scale,omitempty"` // default 1.0
	Seed  int64   `json:"seed,omitempty"`
	// Continuous opts the session into continuous advising: streaming
	// ingestion, workload aging and auto-apply/rollback.
	Continuous *ContinuousSpec `json:"continuous,omitempty"`
}

// ContinuousSpec tunes a continuous session's control loop. Zero
// fields take the documented built-in defaults; the spec is journaled
// with the session, so a restart replays the loop under the same
// parameters.
type ContinuousSpec struct {
	// RetunePeriodMS runs the background re-tuner this often; 0 means
	// manual cycles only (POST /v1/sessions/{name}/retune).
	RetunePeriodMS int `json:"retune_period_ms,omitempty"`
	// WindowMax bounds each template's member reservoir (default 32).
	WindowMax int `json:"window_max,omitempty"`
	// Decay multiplies template weights each aging round (default 0.5).
	Decay float64 `json:"decay,omitempty"`
	// MinWeight drops templates whose decayed weight falls below it
	// (default 0.25).
	MinWeight float64 `json:"min_weight,omitempty"`
	// MinImprovement is the auto-apply guardrail: the estimated
	// fractional improvement over the session's current configuration a
	// recommendation must clear (default 0.05).
	MinImprovement float64 `json:"min_improvement,omitempty"`
	// RollbackRatio rolls the applied configuration back when a batch's
	// observed/estimated per-weight cost ratio exceeds it (default 2.0).
	RollbackRatio float64 `json:"rollback_ratio,omitempty"`
	// Constraint is the re-tuner's merge cost slack (default 0.10).
	Constraint float64 `json:"constraint,omitempty"`
	// Seed seeds the window's reservoir sampler (deterministic replay).
	Seed int64 `json:"seed,omitempty"`
}

// IngestRequest streams one batch of statements into a continuous
// session's workload window: inline SQL (one query per line, optional
// "freq|" prefix) or a generation spec.
type IngestRequest struct {
	SQL      string        `json:"sql,omitempty"`
	Generate *GenerateSpec `json:"generate,omitempty"`
}

// IngestResponse acknowledges a folded batch and reports the window
// plus the observed-cost feedback the batch contributed.
type IngestResponse struct {
	Batch           int64   `json:"batch"`
	Statements      int     `json:"statements"`
	WindowTemplates int     `json:"window_templates"`
	WindowWeight    float64 `json:"window_weight"`
	Generation      int64   `json:"generation"`
	// ObservedRatio is this batch's observed/estimated per-weight cost
	// under the applied configuration (0 when nothing is applied).
	ObservedRatio float64 `json:"observed_ratio,omitempty"`
	// RolledBack reports that this batch's ratio breached the guardrail
	// and the applied configuration was rolled back.
	RolledBack bool `json:"rolled_back,omitempty"`
	// Shed reports that brownout stage >= 2 dropped the batch before it
	// reached the window: nothing was folded or journaled, but the
	// observed-cost guardrail still ran (rollback protection stays live
	// under overload), so ObservedRatio/RolledBack remain meaningful.
	Shed bool `json:"shed,omitempty"`
}

// ContinuousInfo is the continuous loop's pollable state, embedded in
// SessionInfo.
type ContinuousInfo struct {
	WindowTemplates int     `json:"window_templates"`
	WindowMembers   int     `json:"window_members"`
	WindowWeight    float64 `json:"window_weight"`
	Generation      int64   `json:"generation"`
	Batches         int64   `json:"batches"`
	Statements      int64   `json:"statements"`
	Applies         int64   `json:"applies"`
	Rollbacks       int64   `json:"rollbacks"`
	Retunes         int64   `json:"retunes"`
	RetuneSkips     int64   `json:"retune_skips"`
	// Applied is the auto-applied configuration (empty when none), and
	// AppliedEst its estimated per-weight cost at apply time.
	Applied           []IndexDefPayload `json:"applied,omitempty"`
	AppliedEst        float64           `json:"applied_est,omitempty"`
	LastObservedRatio float64           `json:"last_observed_ratio,omitempty"`
}

// RetuneResultPayload is a retune job's terminal payload: what the
// cycle decided and the window it decided over.
type RetuneResultPayload struct {
	// Skipped means the cycle ran no search: the window was empty or
	// its template fingerprint set was unchanged since the last search.
	Skipped bool `json:"skipped,omitempty"`
	// Applied means the recommendation cleared the improvement
	// guardrail and is now the session's applied configuration.
	Applied         bool              `json:"applied,omitempty"`
	Improvement     float64           `json:"improvement,omitempty"`
	EstCost         float64           `json:"est_cost,omitempty"`     // window cost under the recommendation
	CurrentCost     float64           `json:"current_cost,omitempty"` // window cost under the pre-cycle configuration
	Indexes         []IndexDefPayload `json:"indexes,omitempty"`
	WindowTemplates int               `json:"window_templates,omitempty"`
	Generation      int64             `json:"generation,omitempty"`
	Dropped         int               `json:"dropped,omitempty"` // templates aged out this cycle
}

// SessionInfo describes a session.
type SessionInfo struct {
	Name string `json:"name"`
	// Tenant is the owning tenant for quota accounting.
	Tenant string `json:"tenant,omitempty"`
	// AccountedBytes is the session's byte-accounted memory footprint
	// (workload cost tables + continuous window and its table), the
	// basis for the tenant memory budget.
	AccountedBytes int64    `json:"accounted_bytes,omitempty"`
	DB             string   `json:"db"`
	Tables         int      `json:"tables"`
	DataBytes      int64    `json:"data_bytes"`
	Workloads      []string `json:"workloads"`
	// PreparedQueries is the total number of query descriptors prepared
	// at workload registration.
	PreparedQueries int       `json:"prepared_queries"`
	CreatedAt       time.Time `json:"created_at"`
	// Continuous reports the control-loop state of a continuous
	// session (nil for request/response sessions).
	Continuous *ContinuousInfo `json:"continuous,omitempty"`
}

// RegisterWorkloadRequest registers a named workload with a session:
// either inline SQL (one query per line, optional "freq|" prefix) or
// a generation spec.
type RegisterWorkloadRequest struct {
	Name     string        `json:"name"`
	SQL      string        `json:"sql,omitempty"`
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Replace rebinds an existing name to these queries. The workload
	// is re-prepared and re-compressed from scratch and every cost
	// derived from the old queries is invalidated atomically with the
	// swap; without it a duplicate name is a 409.
	Replace bool `json:"replace,omitempty"`
}

// GenerateSpec generates a stochastic workload (RAGS-style).
type GenerateSpec struct {
	// Class is complex (default) or projection.
	Class   string `json:"class,omitempty"`
	Queries int    `json:"queries,omitempty"` // default 30
	Seed    int64  `json:"seed,omitempty"`
	// Duplication appends this many zipf-skewed constant-varied
	// duplicates of the base queries — a log-like workload for
	// exercising template compression.
	Duplication int `json:"duplication,omitempty"`
	// Disjunctions adds OR/IN predicates to complex-class queries.
	Disjunctions bool `json:"disjunctions,omitempty"`
}

// WorkloadInfo describes a registered workload.
type WorkloadInfo struct {
	Name    string `json:"name"`
	Queries int    `json:"queries"`
	// Templates and DedupRatio describe the registration-time
	// compression: fingerprint-equivalence classes and distinct
	// statements per class.
	Templates  int     `json:"templates,omitempty"`
	DedupRatio float64 `json:"dedup_ratio,omitempty"`
}

// CostRequest asks for the synchronous optimizer-estimated workload
// cost Cost(W, C) of an arbitrary index configuration.
type CostRequest struct {
	Workload string            `json:"workload"`
	Indexes  []IndexDefPayload `json:"indexes"`
}

// CostResponse carries Cost(W, C).
type CostResponse struct {
	Cost float64 `json:"cost"`
}

// InitialSpec selects a job's initial index configuration: explicit
// definitions, or per-query tuning (N > 0 draws random queries until N
// distinct indexes accumulate; N == 0 tunes every workload query — one
// representative per template under the compressed cost model; N < 0 is
// refused). The rule is indexmerge.(*Merger).InitialConfiguration's.
type InitialSpec struct {
	N       int               `json:"n,omitempty"`
	Seed    int64             `json:"seed,omitempty"`
	Indexes []IndexDefPayload `json:"indexes,omitempty"`
}

// JobOptions mirrors the batch CLI's merging knobs.
type JobOptions struct {
	Constraint float64 `json:"constraint,omitempty"` // default 0.10
	// MergePair is cost (default) | syntactic | exhaustive.
	MergePair string `json:"mergepair,omitempty"`
	// Search is greedy (default) | exhaustive.
	Search string `json:"search,omitempty"`
	// CostModel is opt (default) | nocost | prefilter | compressed.
	// "compressed" prices constraint checks through the registered
	// workload's (template, atom) cost table (exact; recommendation
	// parity with opt) instead of per-query costing.
	CostModel string  `json:"costmodel,omitempty"`
	NoCostF   float64 `json:"nocost_f,omitempty"`
	NoCostP   float64 `json:"nocost_p,omitempty"`
	// Parallelism bounds concurrent candidate costings within the job.
	Parallelism int `json:"parallelism,omitempty"`
	// DualBudgetFrac, when > 0, solves the Cost-Minimal dual instead
	// with a storage budget of this fraction of the initial bytes.
	DualBudgetFrac float64 `json:"dual_budget_frac,omitempty"`
	// Resilience tunes the fault-tolerant costing path. Jobs run with
	// resilience ON by default (retries, per-session breaker, degraded
	// fallback); set {"disable": true} to fail fast instead.
	Resilience *ResilienceSpec `json:"resilience,omitempty"`
	// TimeoutMS bounds the job's total queued+running lifetime; expiry
	// terminates it with state "deadline_exceeded" and frees its quota
	// slot. 0 means no per-job deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ResilienceSpec is the wire form of indexmerge.ResilienceOptions.
// Zero fields select the documented defaults.
type ResilienceSpec struct {
	Disable          bool `json:"disable,omitempty"`
	MaxRetries       int  `json:"max_retries,omitempty"`
	BackoffMS        int  `json:"backoff_ms,omitempty"`
	AttemptTimeoutMS int  `json:"attempt_timeout_ms,omitempty"`
	// NoDegraded disables the external-model fallback: persistent
	// costing failures then fail the job instead of degrading it.
	NoDegraded bool `json:"no_degraded,omitempty"`
}

// SubmitJobRequest submits an asynchronous job against a session.
type SubmitJobRequest struct {
	// Kind is merge (default) or tune.
	Kind     string       `json:"kind,omitempty"`
	Workload string       `json:"workload"`
	Initial  *InitialSpec `json:"initial,omitempty"`
	Options  JobOptions   `json:"options"`
}

// JobStatus is the pollable state of a job.
type JobStatus struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Session  string          `json:"session"`
	Workload string          `json:"workload"`
	Tenant   string          `json:"tenant,omitempty"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Progress ProgressPayload `json:"progress"`
	// Allocs is the heap-allocation count (runtime Mallocs delta)
	// observed across the job's run. It is process-wide, so concurrent
	// jobs and requests inflate it — an approximate efficiency signal,
	// not an exact per-job measurement.
	Allocs     int64      `json:"allocs,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Degraded mirrors the result payload's Degraded flag so pollers
	// see best-effort outcomes without fetching the result.
	Degraded bool `json:"degraded,omitempty"`
	// Recovered marks a job restored from the journal after a restart
	// rather than run by this process.
	Recovered bool `json:"recovered,omitempty"`
	// Compression stats, mirrored from the result payload of a
	// compressed-costmodel merge (zero otherwise).
	Templates     int     `json:"templates,omitempty"`
	DedupRatio    float64 `json:"dedup_ratio,omitempty"`
	CostTableHits int64   `json:"cost_table_hits,omitempty"`
	// Applied mirrors a retune job's auto-apply outcome so pollers see
	// it without fetching the result payload.
	Applied bool `json:"applied,omitempty"`
}

// JobResult is a terminal job's payload.
type JobResult struct {
	ID     string               `json:"id"`
	State  string               `json:"state"`
	Merge  *MergeResultPayload  `json:"merge,omitempty"`
	Tune   *TuneResultPayload   `json:"tune,omitempty"`
	Retune *RetuneResultPayload `json:"retune,omitempty"`
}

// SubmitJobResponse acknowledges an accepted job.
type SubmitJobResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// ErrorResponse is the uniform error body. Rejections from admission
// control (429/403) additionally carry the machine-readable fields:
// a stable code, the tenant and quota dimension that tripped, the
// configured limit and the tenant's current usage, and the suggested
// retry delay mirrored from the Retry-After header.
type ErrorResponse struct {
	Error         string `json:"error"`
	Code          string `json:"code,omitempty"`
	Tenant        string `json:"tenant,omitempty"`
	Quota         string `json:"quota,omitempty"`
	Limit         int64  `json:"limit,omitempty"`
	Current       int64  `json:"current,omitempty"`
	RetryAfterSec int64  `json:"retry_after_sec,omitempty"`
}
