package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"indexmerge/internal/faults"
	"indexmerge/internal/server/quota"
)

// callAs is call with an X-Tenant header attached.
func (h *testServer) callAs(t *testing.T, tenant, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

// post is a POST with an X-Tenant header for goroutines other than the
// test's own: no t.* helpers, 0 when the request fails. out, when
// non-nil, receives a 2xx response's body.
func (h *testServer) post(tenant, path string, payload, out any) int {
	b, _ := json.Marshal(payload)
	req, err := http.NewRequest("POST", h.ts.URL+path, bytes.NewReader(b))
	if err != nil {
		return 0
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 && json.NewDecoder(resp.Body).Decode(out) != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// storm runs every attack in a goroutine of its own, over and over (i
// counts the attack's rounds), until stop is called or the test ends;
// stop waits for them. It returns once every attack has had its first
// round answered, so what the caller does next happens mid-storm: a
// quiet tenant's request takes milliseconds, and on a loaded box it
// could otherwise finish before the first attack.
func storm(t *testing.T, attacks ...func(i int)) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	underway := make(chan struct{}, len(attacks))
	var wg sync.WaitGroup
	for _, attack := range attacks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			attack(0)
			underway <- struct{}{}
			for i := 1; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				attack(i)
			}
		}()
	}
	stop = sync.OnceFunc(func() { close(done); wg.Wait() })
	t.Cleanup(stop)
	for range attacks {
		select {
		case <-underway:
		case <-time.After(30 * time.Second):
			t.Fatal("the storm never got underway")
		}
	}
	return stop
}

// stormBatch is a noisy tenant's i-th ingest batch: 20 statements of two
// shapes, with constants no earlier batch used.
func stormBatch(i int) string {
	var sb strings.Builder
	for j := 0; j < 20; j += 2 {
		fmt.Fprintf(&sb, "SELECT k, m3 FROM fact WHERE k = %d\nSELECT m2, m3 FROM fact WHERE k = %[1]d\n", 20*i+j)
	}
	return sb.String()
}

// sameTemplateSQL builds n statements that fingerprint to one template
// (literals differ), so a window accumulates n reservoir members.
func sameTemplateSQL(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "SELECT k, m3 FROM fact WHERE k = %d\n", i+1)
	}
	return sb.String()
}

// TestTenantIdentity covers tenant resolution and enforcement: the
// creation request records the owner (header or body), session-scoped
// routes reject a mismatched claim with a machine-readable 403, and
// unclaimed requests keep working (single-tenant compatibility).
func TestTenantIdentity(t *testing.T) {
	h := newTestServer(t, Config{})
	db := fixtureDB(t)

	var info SessionInfo
	h.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "a", DB: db, Tenant: "alice"}, &info, http.StatusCreated)
	if info.Tenant != "alice" {
		t.Fatalf("session tenant = %q, want alice", info.Tenant)
	}
	h.mustCall(t, "POST", "/v1/sessions/a/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil, http.StatusCreated)

	// Header sets the tenant when the body leaves it empty; a
	// disagreement between the two is a 400.
	if code := h.callAs(t, "bob", "POST", "/v1/sessions",
		CreateSessionRequest{Name: "b", DB: db}, &info); code != http.StatusCreated {
		t.Fatalf("header-tenant create status = %d", code)
	}
	if info.Tenant != "bob" {
		t.Fatalf("header-set tenant = %q, want bob", info.Tenant)
	}
	if code := h.callAs(t, "bob", "POST", "/v1/sessions",
		CreateSessionRequest{Name: "c", DB: db, Tenant: "alice"}, nil); code != http.StatusBadRequest {
		t.Fatalf("conflicting tenant claim status = %d, want 400", code)
	}

	// A claimed tenant must own the session it touches.
	var errResp ErrorResponse
	if code := h.callAs(t, "bob", "POST", "/v1/sessions/a/cost",
		CostRequest{Workload: "w", Indexes: fixtureIndexes}, &errResp); code != http.StatusForbidden {
		t.Fatalf("cross-tenant cost status = %d, want 403", code)
	}
	if errResp.Code != "tenant_mismatch" || errResp.Tenant != "bob" {
		t.Errorf("403 body = %+v, want code=tenant_mismatch tenant=bob", errResp)
	}
	if code := h.callAs(t, "bob", "DELETE", "/v1/sessions/a", nil, nil); code != http.StatusForbidden {
		t.Fatalf("cross-tenant delete status = %d, want 403", code)
	}

	// The owner, and unclaimed requests, both pass.
	h.mustCall(t, "POST", "/v1/sessions/a/cost",
		CostRequest{Workload: "w", Indexes: fixtureIndexes}, nil, http.StatusOK)
	if code := h.callAs(t, "alice", "POST", "/v1/sessions/a/cost",
		CostRequest{Workload: "w", Indexes: fixtureIndexes}, nil); code != http.StatusOK {
		t.Fatalf("owner cost status = %d, want 200", code)
	}
}

// TestSessionQuotaHTTP exercises the per-tenant session ceiling over
// HTTP: the 429 carries Retry-After plus the structured body, other
// tenants are unaffected, and deleting a session frees the slot.
func TestSessionQuotaHTTP(t *testing.T) {
	h := newTestServer(t, Config{Quota: quota.Limits{MaxSessions: 1}})
	db := fixtureDB(t)

	h.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "t1a", DB: db, Tenant: "t1"}, nil, http.StatusCreated)

	req, _ := http.NewRequest("POST", h.ts.URL+"/v1/sessions",
		strings.NewReader(fmt.Sprintf(`{"name":"t1b","db":%q,"tenant":"t1"}`, db)))
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota create status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatal(err)
	}
	if errResp.Code != "quota_sessions" || errResp.Tenant != "t1" ||
		errResp.Limit != 1 || errResp.Current != 1 || errResp.RetryAfterSec < 1 {
		t.Errorf("429 body = %+v", errResp)
	}

	// A different tenant is not starved by t1's usage.
	h.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "t2a", DB: db, Tenant: "t2"}, nil, http.StatusCreated)

	// Deleting t1's session frees the slot.
	h.mustCall(t, "DELETE", "/v1/sessions/t1a", nil, nil, http.StatusOK)
	h.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "t1b", DB: db, Tenant: "t1"}, nil, http.StatusCreated)
}

// TestIngestRateQuota: the token bucket admits a burst, rejects the
// next batch with a refill-derived Retry-After, and counts the refused
// request.
func TestIngestRateQuota(t *testing.T) {
	h := newTestServer(t, Config{Quota: quota.Limits{IngestPerSec: 1, IngestBurst: 5}})
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{
		Name: "live", DB: fixtureDB(t), Continuous: &ContinuousSpec{Seed: 5},
	}, nil, http.StatusCreated)

	// fixtureSQL is 5 statements: exactly the burst.
	h.mustCall(t, "POST", "/v1/sessions/live/ingest",
		IngestRequest{SQL: fixtureSQL}, nil, http.StatusOK)
	var errResp ErrorResponse
	h.mustCall(t, "POST", "/v1/sessions/live/ingest",
		IngestRequest{SQL: fixtureSQL}, &errResp, http.StatusTooManyRequests)
	if errResp.Code != "quota_ingest_rate" || errResp.RetryAfterSec < 1 {
		t.Errorf("rate-limited ingest body = %+v", errResp)
	}
	if want := `idxmerged_shed_total{reason="quota_ingest_rate",tenant="default"} 1` + "\n"; !strings.Contains(h.metricsText(t), want) {
		t.Errorf("/metrics lacks %q:\n%s", want, grepLines(h.metricsText(t), "idxmerged_shed_total"))
	}
}

// TestMemoryQuota: once a tenant's accounted bytes reach its budget,
// further ingest is rejected with the structured 429.
func TestMemoryQuota(t *testing.T) {
	h := newTestServer(t, Config{Quota: quota.Limits{MemoryBytes: 1}})
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{
		Name: "live", DB: fixtureDB(t), Continuous: &ContinuousSpec{Seed: 5},
	}, nil, http.StatusCreated)

	// First batch folds (the tenant holds 0 accounted bytes); the next
	// one finds the tenant over its 1-byte budget.
	h.mustCall(t, "POST", "/v1/sessions/live/ingest",
		IngestRequest{SQL: fixtureSQL}, nil, http.StatusOK)
	var errResp ErrorResponse
	h.mustCall(t, "POST", "/v1/sessions/live/ingest",
		IngestRequest{SQL: fixtureSQL}, &errResp, http.StatusTooManyRequests)
	if errResp.Code != "quota_memory" || errResp.Limit != 1 || errResp.Current <= 0 {
		t.Errorf("over-memory ingest body = %+v", errResp)
	}
	// Registering a workload is refused the same way.
	errResp = ErrorResponse{}
	h.mustCall(t, "POST", "/v1/sessions/live/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, &errResp, http.StatusTooManyRequests)
	if errResp.Code != "quota_memory" || errResp.Limit != 1 || errResp.Current <= 0 {
		t.Errorf("over-memory registration body = %+v", errResp)
	}
}

// TestJobDeadline is the deadline acceptance check: a job submitted
// with a 50ms timeout against an artificially slow optimizer ends in
// state deadline_exceeded, frees its quota slot, and leaves the
// session usable.
func TestJobDeadline(t *testing.T) {
	h := newTestServer(t, Config{Quota: quota.Limits{MaxJobs: 1}})
	h.newSession(t, "s")

	faults.Install(faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeLatency, Latency: 20 * time.Millisecond})
	var resp SubmitJobResponse
	h.mustCall(t, "POST", "/v1/sessions/s/jobs", SubmitJobRequest{
		Workload: "w",
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
		Options:  JobOptions{Constraint: 0.3, TimeoutMS: 50},
	}, &resp, http.StatusAccepted)
	st := h.waitTerminal(t, resp.ID)
	faults.Reset()
	if st.State != string(JobDeadlineExceeded) {
		t.Fatalf("timed-out job state = %s (error %q), want deadline_exceeded", st.State, st.Error)
	}
	if st.Tenant != DefaultTenant {
		t.Errorf("job tenant = %q, want %q", st.Tenant, DefaultTenant)
	}

	// The quota slot is back (MaxJobs is 1) and the session still works:
	// an untimed rerun completes.
	id := h.submitJob(t, "s")
	if st := h.waitTerminal(t, id); st.State != string(JobDone) {
		t.Fatalf("post-deadline rerun state = %s (error %q), want done", st.State, st.Error)
	}
	if !strings.Contains(h.metricsText(t), `idxmerged_jobs_total{state="deadline_exceeded"} 1`+"\n") {
		t.Error("deadline_exceeded job count not in /metrics")
	}
}

// TestCostAbandoned: a synchronous costing request whose client goes
// away stops mid-workload instead of burning the remaining optimizer
// calls, and is counted.
func TestCostAbandoned(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")

	faults.Install(faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeLatency, Latency: 30 * time.Millisecond})
	defer faults.Reset()

	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(CostRequest{Workload: "w", Indexes: fixtureIndexes})
	req, err := http.NewRequestWithContext(ctx, "POST", h.ts.URL+"/v1/sessions/s/cost", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := h.ts.Client().Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("abandoned cost request unexpectedly completed: %d", resp.StatusCode)
	}

	// The handler notices the disconnect at its next between-queries
	// check; give it a moment, then the counter must read 1.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(h.metricsText(t), "idxmerged_requests_abandoned_total 1") {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("idxmerged_requests_abandoned_total never reached 1")
}

// measureIngestBytes runs the canonical ladder fixture (continuous
// session + workload + one 20-member single-template batch) on a
// throwaway server and reports the session's accounted bytes. The
// accounting is deterministic (seeded reservoir, fixed entry sizes),
// so ladder tests can size budgets relative to it.
func measureIngestBytes(t *testing.T) int64 {
	t.Helper()
	h := newTestServer(t, Config{})
	setupLadderSession(t, h)
	var info SessionInfo
	h.mustCall(t, "GET", "/v1/sessions/live", nil, &info, http.StatusOK)
	if info.AccountedBytes <= 0 {
		t.Fatalf("fixture accounted bytes = %d, want > 0", info.AccountedBytes)
	}
	return info.AccountedBytes
}

func setupLadderSession(t *testing.T, h *testServer) {
	t.Helper()
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{
		Name: "live", DB: fixtureDB(t), Continuous: &ContinuousSpec{Seed: 9},
	}, nil, http.StatusCreated)
	h.mustCall(t, "POST", "/v1/sessions/live/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil, http.StatusCreated)
	h.mustCall(t, "POST", "/v1/sessions/live/ingest",
		IngestRequest{SQL: sameTemplateSQL(20)}, nil, http.StatusOK)
}

// TestBrownoutStage1 drives real memory pressure to ~80% of budget:
// synchronous costing sheds with a 429, the continuous window is
// shrunk to the brownout bound, and — pressure relieved — the next
// costing request is served again.
func TestBrownoutStage1(t *testing.T) {
	bytes0 := measureIngestBytes(t)
	h := newTestServer(t, Config{MemoryBudgetBytes: bytes0 * 100 / 80}) // ratio ≈ 0.80
	setupLadderSession(t, h)

	var errResp ErrorResponse
	h.mustCall(t, "POST", "/v1/sessions/live/cost",
		CostRequest{Workload: "w", Indexes: fixtureIndexes}, &errResp, http.StatusTooManyRequests)
	if errResp.Code != "brownout" || errResp.Current != 1 {
		t.Fatalf("stage-1 cost shed body = %+v", errResp)
	}
	var info SessionInfo
	h.mustCall(t, "GET", "/v1/sessions/live", nil, &info, http.StatusOK)
	if info.Continuous == nil || info.Continuous.WindowMembers > 8 {
		t.Fatalf("post-shed window members = %+v, want <= 8", info.Continuous)
	}
	if info.AccountedBytes >= bytes0 {
		t.Fatalf("post-shed bytes = %d, want < %d", info.AccountedBytes, bytes0)
	}
	// Shedding brought pressure back under stage 1: costing serves again.
	h.mustCall(t, "POST", "/v1/sessions/live/cost",
		CostRequest{Workload: "w", Indexes: fixtureIndexes}, nil, http.StatusOK)
	text := h.metricsText(t)
	if !strings.Contains(text, "idxmerged_brownout_transitions_total") ||
		!strings.Contains(text, `idxmerged_shed_total{reason="brownout"`) {
		t.Error("brownout series missing from /metrics")
	}
}

// TestBrownoutStage2 at ~91% of budget: re-tune cycles are refused
// with the ladder's 429 while the shed also relieves the pressure.
func TestBrownoutStage2(t *testing.T) {
	bytes0 := measureIngestBytes(t)
	h := newTestServer(t, Config{MemoryBudgetBytes: bytes0 * 100 / 91}) // ratio ≈ 0.91
	setupLadderSession(t, h)

	var errResp ErrorResponse
	h.mustCall(t, "POST", "/v1/sessions/live/retune", nil, &errResp, http.StatusTooManyRequests)
	if errResp.Code != "brownout" || errResp.Current != 2 {
		t.Fatalf("stage-2 retune shed body = %+v", errResp)
	}
	// Shedding recovered the ladder: ingest folds normally again.
	var ing IngestResponse
	h.mustCall(t, "POST", "/v1/sessions/live/ingest",
		IngestRequest{SQL: fixtureSQL}, &ing, http.StatusOK)
	if ing.Shed {
		t.Fatalf("post-recovery ingest still shed: %+v", ing)
	}
}

// TestBrownoutStage3 at 100% of budget: new sessions, workloads and
// jobs are refused while shedding drives accounted memory back under
// the stage-1 line — never above budget.
func TestBrownoutStage3(t *testing.T) {
	bytes0 := measureIngestBytes(t)
	h := newTestServer(t, Config{MemoryBudgetBytes: bytes0}) // ratio = 1.0
	setupLadderSession(t, h)

	var errResp ErrorResponse
	h.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "late", DB: fixtureDB(t)}, &errResp, http.StatusTooManyRequests)
	if errResp.Code != "brownout" || errResp.Current != 3 || errResp.RetryAfterSec != 1 {
		t.Fatalf("stage-3 create shed body = %+v", errResp)
	}
	if got := h.srv.reg.totalBytes(); got > bytes0 {
		t.Fatalf("accounted bytes %d above budget %d after stage-3 shed", got, bytes0)
	}
	// Pressure relieved by the shed: the ladder steps back down and the
	// same request is admitted.
	h.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "late", DB: fixtureDB(t)}, nil, http.StatusCreated)
}

// TestGuardrailSurvivesShed pins the stage-2 contract: a shed ingest
// batch folds nothing, but its observed costs still feed the rollback
// guardrail — overload cannot disable rollback protection.
func TestGuardrailSurvivesShed(t *testing.T) {
	h := newTestServer(t, Config{MemoryBudgetBytes: 1 << 30})
	h.newContinuousSession(t, "guard", 3)
	h.ingest(t, "guard", fixtureSQL)
	var jr SubmitJobResponse
	h.mustCall(t, "POST", "/v1/sessions/guard/retune", nil, &jr, http.StatusAccepted)
	if st := h.waitTerminal(t, jr.ID); st.State != string(JobDone) || !st.Applied {
		t.Fatalf("retune state=%s applied=%v (error %q); need an applied config", st.State, st.Applied, st.Error)
	}

	// Force the ladder to stage >= 2 (scale fault on brownout.stage) and
	// a guardrail breach (scale fault on the observation) in one batch.
	faults.Install(
		faults.Rule{Point: faults.BrownoutStage, Mode: faults.ModeScale, Scale: 1e9},
		faults.Rule{Point: faults.ContinuousObserve, Mode: faults.ModeScale, Scale: 100, Count: 1},
	)
	defer faults.Reset()
	var resp IngestResponse
	h.mustCall(t, "POST", "/v1/sessions/guard/ingest",
		IngestRequest{SQL: fixtureSQL}, &resp, http.StatusOK)
	if !resp.Shed {
		t.Fatalf("stage-forced ingest was not shed: %+v", resp)
	}
	if !resp.RolledBack {
		t.Fatalf("guardrail did not fire on shed batch: %+v", resp)
	}
	info := h.continuousInfo(t, "guard")
	if info.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1", info.Rollbacks)
	}
}

// TestQueueFullStructured upgrades the pre-existing bare queue-full
// 429: Retry-After plus code/quota/limit/current in the body.
func TestQueueFullStructured(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	sig, release := gateHook(h.srv)
	defer release()
	h.newSession(t, "s")

	id1 := h.submitJob(t, "s")
	select {
	case <-sig:
	case <-time.After(30 * time.Second):
		t.Fatal("job-1 never reported progress")
	}
	h.submitJob(t, "s") // fills the queue slot

	body, _ := json.Marshal(SubmitJobRequest{Workload: "w", Initial: &InitialSpec{Indexes: fixtureIndexes}})
	resp, err := h.ts.Client().Post(h.ts.URL+"/v1/sessions/s/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatal(err)
	}
	if errResp.Code != "queue_full" || errResp.Quota != "job_queue" ||
		errResp.Limit != 1 || errResp.Current != 1 || !strings.Contains(errResp.Error, "queue full") {
		t.Errorf("queue-full body = %+v", errResp)
	}
	release()
	h.waitTerminal(t, id1)
}

// TestNoisyNeighborIsolation is the isolation acceptance check: a
// hostile tenant hammering ingest, job submission and cross-tenant
// access cannot change another tenant's recommendation bytes, and the
// storm's shed shows up in per-tenant accounting. Run with -race.
func TestNoisyNeighborIsolation(t *testing.T) {
	// Baseline: the quiet tenant's merge on an idle server.
	quiet := newTestServer(t, Config{})
	quiet.newSession(t, "quiet")
	baseID := quiet.submitJob(t, "quiet")
	if st := quiet.waitTerminal(t, baseID); st.State != string(JobDone) {
		t.Fatalf("baseline job state = %s (%s)", st.State, st.Error)
	}
	var baseRes JobResult
	quiet.mustCall(t, "GET", "/v1/jobs/"+baseID+"/result", nil, &baseRes, http.StatusOK)

	// Contended server: tight quotas, a global budget, and a noisy
	// tenant doing its worst from three goroutines.
	h := newTestServer(t, Config{
		Workers:  2,
		QueueCap: 4,
		Quota: quota.Limits{
			MaxSessions: 2, MaxJobs: 1,
			IngestPerSec: 50, IngestBurst: 50,
		},
		MemoryBudgetBytes: 1 << 20,
	})
	if code := h.callAs(t, "quiet", "POST", "/v1/sessions",
		CreateSessionRequest{Name: "quiet", DB: fixtureDB(t)}, nil); code != http.StatusCreated {
		t.Fatalf("quiet session create status = %d", code)
	}
	if code := h.callAs(t, "quiet", "POST", "/v1/sessions/quiet/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil); code != http.StatusCreated {
		t.Fatalf("quiet workload register status = %d", code)
	}
	if code := h.callAs(t, "noisy", "POST", "/v1/sessions", CreateSessionRequest{
		Name: "noisy", DB: fixtureDB(t), Continuous: &ContinuousSpec{Seed: 1},
	}, nil); code != http.StatusCreated {
		t.Fatalf("noisy session create status = %d", code)
	}

	var crossOK, crossForbidden, ingestShed int
	stop := storm(t,
		func(int) { // ingest storm: rate quota sheds most of it
			if h.post("noisy", "/v1/sessions/noisy/ingest", IngestRequest{SQL: fixtureSQL}, nil) == http.StatusTooManyRequests {
				ingestShed++
			}
		},
		func(int) { // job storm against its own session (MaxJobs 1)
			h.post("noisy", "/v1/sessions/noisy/retune", nil, nil)
		},
		func(int) { // cross-tenant attack on the quiet session
			switch h.post("noisy", "/v1/sessions/quiet/cost", CostRequest{Workload: "w", Indexes: fixtureIndexes}, nil) {
			case http.StatusOK:
				crossOK++
			case http.StatusForbidden:
				crossForbidden++
			}
		},
	)

	// The quiet tenant's merge, mid-storm.
	var sub SubmitJobResponse
	if code := h.callAs(t, "quiet", "POST", "/v1/sessions/quiet/jobs", SubmitJobRequest{
		Workload: "w",
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
		Options:  JobOptions{Constraint: 0.3},
	}, &sub); code != http.StatusAccepted {
		t.Fatalf("quiet job submit status = %d", code)
	}
	st := h.waitTerminal(t, sub.ID)
	stop()
	if st.State != string(JobDone) {
		t.Fatalf("quiet job state = %s (%s), want done", st.State, st.Error)
	}

	var res JobResult
	h.mustCall(t, "GET", "/v1/jobs/"+sub.ID+"/result", nil, &res, http.StatusOK)
	if res.Merge == nil || baseRes.Merge == nil {
		t.Fatal("missing merge payloads")
	}
	got, want := *res.Merge, *baseRes.Merge
	got.ElapsedSeconds, want.ElapsedSeconds = 0, 0
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("noisy neighbor changed the quiet tenant's recommendation bytes:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}

	if crossOK != 0 {
		t.Errorf("%d cross-tenant requests served, want 0", crossOK)
	}
	if crossForbidden == 0 {
		t.Error("no cross-tenant request observed; attack goroutine never ran")
	}
	if got := h.srv.reg.totalBytes(); got > 1<<20 {
		t.Errorf("accounted bytes %d above the 1MiB budget", got)
	}
	text := h.metricsText(t)
	if !strings.Contains(text, `tenant="noisy"`) || !strings.Contains(text, `tenant="quiet"`) {
		t.Error("per-tenant gauges missing from /metrics")
	}
	if ingestShed > 0 && !strings.Contains(text, `idxmerged_shed_total{reason="quota_ingest_rate",tenant="noisy"}`) {
		t.Error("ingest-rate shed counter missing from /metrics")
	}
}

// TestNoisyNeighborStorm holds the isolation contract under an
// operator's quotas — 1 MiB of accounted memory per tenant under a
// 16 MiB global budget, so the brownout ladder is a backstop and
// admission control does the work — while a noisy tenant ingests far
// past its rate quota, re-tunes past its job quota and costs against
// the quiet tenant's session: the quiet tenant's synchronous costing is
// never shed, more than half of the noisy ingest is, accounted memory is
// within the budget at every sample taken during the storm, and every
// cross-tenant request is a 403.
func TestNoisyNeighborStorm(t *testing.T) {
	const budget = 16 << 20
	h := newTestServer(t, Config{
		Workers:  2,
		QueueCap: 8,
		Quota: quota.Limits{
			MaxSessions: 4, MaxJobs: 2,
			IngestPerSec: 200, IngestBurst: 200,
			MemoryBytes: 1 << 20,
		},
		MemoryBudgetBytes: budget,
	})
	db := fixtureDB(t)
	if code := h.callAs(t, "quiet", "POST", "/v1/sessions",
		CreateSessionRequest{Name: "quiet", DB: db}, nil); code != http.StatusCreated {
		t.Fatalf("quiet session create status = %d", code)
	}
	if code := h.callAs(t, "quiet", "POST", "/v1/sessions/quiet/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil); code != http.StatusCreated {
		t.Fatalf("quiet workload register status = %d", code)
	}
	if code := h.callAs(t, "noisy", "POST", "/v1/sessions", CreateSessionRequest{
		Name: "noisy", DB: db, Continuous: &ContinuousSpec{Seed: 9},
	}, nil); code != http.StatusCreated {
		t.Fatalf("noisy session create status = %d", code)
	}

	cost := CostRequest{Workload: "w", Indexes: fixtureIndexes}
	var (
		ingestAttempts, ingestShed, ingestOdd int
		crossAttempts, crossForbidden         int
		samples                               int
		peak                                  int64
		shedding                              = make(chan struct{})
	)
	stop := storm(t,
		func(i int) { // 20 statements a batch: the 200-statement burst is ten batches
			ingestAttempts++
			var resp IngestResponse
			switch code := h.post("noisy", "/v1/sessions/noisy/ingest", IngestRequest{SQL: stormBatch(i)}, &resp); {
			case code == http.StatusTooManyRequests || code == http.StatusOK && resp.Shed:
				if ingestShed++; ingestShed == 30 {
					close(shedding)
				}
			case code != http.StatusOK:
				ingestOdd++
			}
		},
		func(int) { h.post("noisy", "/v1/sessions/noisy/retune", nil, nil) },
		func(int) {
			crossAttempts++
			if h.post("noisy", "/v1/sessions/quiet/cost", cost, nil) == http.StatusForbidden {
				crossForbidden++
			}
		},
		func(int) {
			samples++
			peak = max(peak, h.srv.reg.totalBytes())
			time.Sleep(time.Millisecond)
		},
	)
	// The quiet tenant's requests start once the noisy tenant is well past
	// its burst: 30 batches shed, three times the ten the burst admits.
	select {
	case <-shedding:
	case <-time.After(30 * time.Second):
		t.Fatal("the noisy tenant's ingest was not shed 30 times")
	}
	quietShed := 0
	for i := 0; i < 50; i++ {
		switch code := h.callAs(t, "quiet", "POST", "/v1/sessions/quiet/cost", cost, nil); code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			quietShed++
		default:
			t.Fatalf("quiet cost request %d: status %d", i, code)
		}
	}
	stop()
	t.Logf("noisy ingest %d of %d shed; %d of %d cross-tenant requests 403; peak %d of %d bytes over %d samples",
		ingestShed, ingestAttempts, crossForbidden, crossAttempts, peak, budget, samples)

	if quietShed != 0 {
		t.Errorf("%d of 50 quiet cost requests shed during the storm, want 0", quietShed)
	}
	if ingestOdd != 0 {
		t.Errorf("%d noisy ingest batches neither folded nor shed", ingestOdd)
	}
	if 2*ingestShed <= ingestAttempts {
		t.Errorf("%d of %d noisy ingest batches shed, want more than half", ingestShed, ingestAttempts)
	}
	if samples == 0 || peak > budget {
		t.Errorf("accounted bytes peaked at %d over %d samples, budget %d", peak, samples, budget)
	}
	if crossAttempts == 0 || crossForbidden != crossAttempts {
		t.Errorf("%d of %d cross-tenant requests answered 403, want all", crossForbidden, crossAttempts)
	}
}

// TestQuotaRestartAccounting is the crash-ordering check: after a
// restart, journal replay recreates the sessions, and with them the
// per-tenant session, job and memory counts, exactly.
func TestQuotaRestartAccounting(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	cfg := Config{JournalPath: journal, Quota: quota.Limits{MaxSessions: 2}}
	db := fixtureDB(t)

	h1 := newTestServer(t, cfg)
	h1.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "a1", DB: db, Tenant: "alice"}, nil, http.StatusCreated)
	h1.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "a2", DB: db, Tenant: "alice"}, nil, http.StatusCreated)
	h1.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "a3", DB: db, Tenant: "alice"}, nil, http.StatusTooManyRequests)
	h1.mustCall(t, "DELETE", "/v1/sessions/a1", nil, nil, http.StatusOK)
	h1.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "a3", DB: db, Tenant: "alice"}, nil, http.StatusCreated)
	h1.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{
		Name: "b1", DB: db, Tenant: "bob", Continuous: &ContinuousSpec{Seed: 4},
	}, nil, http.StatusCreated)
	h1.mustCall(t, "POST", "/v1/sessions/b1/ingest",
		IngestRequest{SQL: sameTemplateSQL(12)}, nil, http.StatusOK)
	var before SessionInfo
	h1.mustCall(t, "GET", "/v1/sessions/b1", nil, &before, http.StatusOK)

	// "Crash": abandon h1 (its journal is fsynced per event — whatever
	// was acknowledged is on disk) and replay into a fresh server.
	h2 := newTestServer(t, cfg)
	if got, want := fmt.Sprint(h2.srv.tenantGauges()), fmt.Sprint([]TenantGauges{
		{Tenant: "alice", Sessions: 2},
		{Tenant: "bob", Sessions: 1, Bytes: before.AccountedBytes},
	}); got != want {
		t.Fatalf("replayed tenants = %s, want %s", got, want)
	}
	// Memory accounting replays byte-exactly (seeded reservoirs).
	var after SessionInfo
	h2.mustCall(t, "GET", "/v1/sessions/b1", nil, &after, http.StatusOK)
	if after.AccountedBytes != before.AccountedBytes || after.Tenant != "bob" {
		t.Fatalf("replayed b1 = %d bytes tenant %q, want %d bytes tenant bob",
			after.AccountedBytes, after.Tenant, before.AccountedBytes)
	}
	// The rebuilt accounting still enforces: alice is at her limit.
	var errResp ErrorResponse
	h2.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "a4", DB: db, Tenant: "alice"}, &errResp, http.StatusTooManyRequests)
	if errResp.Code != "quota_sessions" {
		t.Fatalf("post-replay over-quota body = %+v", errResp)
	}
	h2.mustCall(t, "DELETE", "/v1/sessions/a2", nil, nil, http.StatusOK)
	h2.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "a4", DB: db, Tenant: "alice"}, nil, http.StatusCreated)
}

// TestBrownoutShrinkReplay: a journaled brownout shrink replays at the
// same point in the fold sequence, so post-shrink ingest sampling —
// and therefore the window's accounted bytes — replay byte-exactly.
func TestBrownoutShrinkReplay(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	bytes0 := measureIngestBytes(t)
	cfg := Config{JournalPath: journal, MemoryBudgetBytes: bytes0 * 100 / 80}

	h1 := newTestServer(t, cfg)
	setupLadderSession(t, h1)
	// Trip stage 1 (shrink journaled), then keep folding post-shrink.
	h1.mustCall(t, "POST", "/v1/sessions/live/cost",
		CostRequest{Workload: "w", Indexes: fixtureIndexes}, nil, http.StatusTooManyRequests)
	h1.mustCall(t, "POST", "/v1/sessions/live/ingest",
		IngestRequest{SQL: sameTemplateSQL(6)}, nil, http.StatusOK)
	var before SessionInfo
	h1.mustCall(t, "GET", "/v1/sessions/live", nil, &before, http.StatusOK)

	h2 := newTestServer(t, cfg)
	var after SessionInfo
	h2.mustCall(t, "GET", "/v1/sessions/live", nil, &after, http.StatusOK)
	if after.AccountedBytes != before.AccountedBytes {
		t.Fatalf("replayed bytes = %d, want %d", after.AccountedBytes, before.AccountedBytes)
	}
	if after.Continuous == nil || before.Continuous == nil ||
		after.Continuous.WindowMembers != before.Continuous.WindowMembers {
		t.Fatalf("replayed window = %+v, want %+v", after.Continuous, before.Continuous)
	}
}

// TestConcurrentAdmissionAtTheLimit: admission counts what it admitted
// before the work is done. Eight creates by one tenant sent at once at
// MaxSessions 1 give one 201 — a session still building counts — and
// eight submissions at MaxJobs 1, the admitted job held by a latency
// fault, give one 202; every other answer is the quota's 429.
func TestConcurrentAdmissionAtTheLimit(t *testing.T) {
	const n = 8
	h := newTestServer(t, Config{Quota: quota.Limits{MaxSessions: 1, MaxJobs: 1}, QueueCap: 2 * n})
	db := fixtureDB(t)
	// race sends send(i) for i < n at once and tallies the answers by
	// status and, for a refusal, the body's code.
	race := func(send func(i int) (*http.Response, error)) map[string]int {
		t.Helper()
		var mu sync.Mutex
		got := map[string]int{}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				answer := "error"
				if resp, err := send(i); err == nil {
					var e ErrorResponse
					json.NewDecoder(resp.Body).Decode(&e)
					resp.Body.Close()
					answer = fmt.Sprintf("%d %s", resp.StatusCode, e.Code)
				}
				mu.Lock()
				got[answer]++
				mu.Unlock()
			}(i)
		}
		close(start)
		wg.Wait()
		return got
	}
	postJSON := func(path string, body any) (*http.Response, error) {
		b, _ := json.Marshal(body)
		return h.ts.Client().Post(h.ts.URL+path, "application/json", bytes.NewReader(b))
	}

	created := race(func(i int) (*http.Response, error) {
		return postJSON("/v1/sessions", CreateSessionRequest{Name: fmt.Sprintf("s%d", i), DB: db, Tenant: "acme"})
	})
	if want := map[string]int{"201 ": 1, "429 quota_sessions": n - 1}; fmt.Sprint(created) != fmt.Sprint(want) {
		t.Fatalf("%d concurrent creates at MaxSessions 1 answered %v, want %v", n, created, want)
	}
	sessions := h.srv.reg.List()
	if len(sessions) != 1 {
		t.Fatalf("%d sessions registered, want 1", len(sessions))
	}
	name := sessions[0].name
	h.mustCall(t, "POST", "/v1/sessions/"+name+"/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil, http.StatusCreated)

	faults.Install(faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeLatency, Latency: 100 * time.Millisecond})
	t.Cleanup(faults.Reset)
	submitted := race(func(int) (*http.Response, error) {
		return postJSON("/v1/sessions/"+name+"/jobs", SubmitJobRequest{
			Workload: "w", Initial: &InitialSpec{Indexes: fixtureIndexes}, Options: JobOptions{Constraint: 0.3}})
	})
	if want := map[string]int{"202 ": 1, "429 quota_jobs": n - 1}; fmt.Sprint(submitted) != fmt.Sprint(want) {
		t.Errorf("%d concurrent submissions at MaxJobs 1 answered %v, want %v", n, submitted, want)
	}
	for _, st := range h.srv.jobs.List() {
		h.mustCall(t, "POST", "/v1/jobs/"+st.ID+"/cancel", nil, nil, http.StatusAccepted)
		h.waitTerminal(t, st.ID)
	}
}

// TestTenantStateIsForgotten: a tenant leaves no state behind. A
// hundred tenants each create a session — every fourth a continuous
// one that ingests its burst under the rate limit — and delete it once
// their buckets have refilled; then the quota controller holds no
// bucket and /metrics lists no tenant.
func TestTenantStateIsForgotten(t *testing.T) {
	const tenants = 100
	h := newTestServer(t, Config{Quota: quota.Limits{IngestPerSec: 1, IngestBurst: 5}})
	now := time.Unix(0, 0)
	h.srv.reg.Quota().SetClock(func() time.Time { return now })
	db := fixtureDB(t)

	for i := 0; i < tenants; i++ {
		req := CreateSessionRequest{Name: fmt.Sprintf("s%d", i), DB: db}
		if i%4 == 0 {
			req.Continuous = &ContinuousSpec{Seed: int64(i)}
		}
		h.callAs(t, fmt.Sprintf("t%d", i), "POST", "/v1/sessions", req, nil)
	}
	if n := len(h.srv.reg.List()); n != tenants {
		t.Fatalf("%d sessions created, want %d", n, tenants)
	}
	for i := 0; i < tenants; i += 4 {
		// fixtureSQL is 5 statements: the whole burst.
		if code := h.callAs(t, fmt.Sprintf("t%d", i), "POST", fmt.Sprintf("/v1/sessions/s%d/ingest", i),
			IngestRequest{SQL: fixtureSQL}, nil); code != http.StatusOK {
			t.Fatalf("ingest by t%d: status %d", i, code)
		}
	}
	if n := h.srv.reg.Quota().Buckets(); n != tenants/4 {
		t.Fatalf("after ingesting: %d buckets, want %d", n, tenants/4)
	}

	now = now.Add(5 * time.Second) // every bucket is full again
	for i := 0; i < tenants; i++ {
		h.mustCall(t, "DELETE", fmt.Sprintf("/v1/sessions/s%d", i), nil, nil, http.StatusOK)
	}
	if n := h.srv.reg.Quota().Buckets(); n != 0 {
		t.Errorf("the quota controller holds %d buckets after every tenant left", n)
	}
	if lines := grepLines(h.metricsText(t), "{tenant="); lines != "" {
		t.Errorf("/metrics still lists tenants:\n%s", lines)
	}
}
