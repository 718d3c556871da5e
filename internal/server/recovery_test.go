package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"indexmerge/internal/faults"
)

// ---- journal unit tests --------------------------------------------

func TestJournalRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	events := []journalEvent{
		{T: evSession, Session: &CreateSessionRequest{Name: "s", DB: "tpcd", Scale: 0.1, Seed: 7}},
		{T: evWorkload, SessionName: "s", Workload: &RegisterWorkloadRequest{Name: "w", SQL: "SELECT 1"}},
		{T: evJob, JobID: "job-1", Kind: "merge", SessionName: "s", WorkloadName: "w"},
		{T: evJobEnd, JobID: "job-1", State: string(JobDone)},
	}
	for _, ev := range events {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i, ev := range got {
		if ev.T != events[i].T {
			t.Errorf("event %d type = %q, want %q", i, ev.T, events[i].T)
		}
		if ev.At.IsZero() {
			t.Errorf("event %d has no timestamp", i)
		}
	}
	if got[0].Session == nil || got[0].Session.Name != "s" || got[0].Session.Seed != 7 {
		t.Errorf("session event lost its request: %+v", got[0].Session)
	}
	if got[1].Workload == nil || got[1].Workload.SQL != "SELECT 1" {
		t.Errorf("workload event lost its request: %+v", got[1].Workload)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	events, err := ReadJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || events != nil {
		t.Fatalf("ReadJournal(missing) = (%v, %v), want (nil, nil)", events, err)
	}
}

func TestJournalTornFinalLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	valid, _ := json.Marshal(journalEvent{T: evSession, At: time.Now(), Session: &CreateSessionRequest{Name: "s"}})
	content := string(valid) + "\n" + `{"t":"job","job_id":"job-1","ki` // crash mid-write
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if len(events) != 1 || events[0].T != evSession {
		t.Fatalf("events = %+v, want the one valid session event", events)
	}
}

func TestJournalCorruptionMidFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	valid, _ := json.Marshal(journalEvent{T: evSession, At: time.Now(), Session: &CreateSessionRequest{Name: "s"}})
	content := "GARBAGE NOT JSON\n" + string(valid) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("malformed line followed by valid events must error, not silently drop state")
	}
}

func TestJournalAppendAfterCloseLatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(journalEvent{T: evSession}); err == nil {
		t.Fatal("append to a closed journal must error")
	}
	// And stay broken.
	if err := j.Append(journalEvent{T: evSession}); err == nil {
		t.Fatal("latched journal accepted a later append")
	}
}

// ---- journal versioning --------------------------------------------

// TestJournalMixedVersionReplay: a journal holding pre-versioning
// (v absent = 0) records followed by current v2 records replays both —
// old journals keep working after the schema grew.
func TestJournalMixedVersionReplay(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	// Two version-0 lines, written by a binary that predates the
	// version field.
	v0 := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	content := v0(map[string]any{
		"t": evSession, "session": map[string]any{"name": "old", "db": fixtureDB(t)},
	}) + "\n" + v0(map[string]any{
		"t": evWorkload, "session_name": "old",
		"workload": map[string]any{"name": "w", "sql": fixtureSQL},
	}) + "\n"
	if err := os.WriteFile(journal, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	// Current-version continuous records appended after the old ones.
	j, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []journalEvent{
		{T: evSession, Session: &CreateSessionRequest{Name: "live", DB: fixtureDB(t),
			Continuous: &ContinuousSpec{Seed: 1}}},
		{T: evIngest, SessionName: "live", Ingest: &IngestRequest{SQL: fixtureSQL}, Batch: 1},
	} {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	h := newTestServer(t, Config{JournalPath: journal})
	var wls []WorkloadInfo
	h.mustCall(t, "GET", "/v1/sessions/old/workloads", nil, &wls, http.StatusOK)
	if len(wls) != 1 || wls[0].Name != "w" {
		t.Fatalf("v0 session's workloads = %+v, want [w]", wls)
	}
	if ci := h.continuousInfo(t, "live"); ci.WindowWeight != 5 {
		t.Fatalf("v2 ingest not replayed: %+v", ci)
	}
}

// TestJournalFutureVersionRejected: a record stamped by a newer binary
// fails replay loudly instead of being half-understood.
func TestJournalFutureVersionRejected(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	line := `{"t":"session","v":99,"session":{"name":"s","db":"tpcd"}}` + "\n"
	if err := os.WriteFile(journal, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{JournalPath: journal})
	if err == nil || !strings.Contains(err.Error(), "newer than this binary") {
		t.Fatalf("future-version journal: err = %v, want a version refusal", err)
	}
}

// TestRecoveryUnknownEventFailsLoudly: an event type this binary does
// not know is a state transition it cannot reconstruct; startup must
// refuse, not silently replay a partial history.
func TestRecoveryUnknownEventFailsLoudly(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	valid, _ := json.Marshal(journalEvent{T: evSession, At: time.Now(),
		Session: &CreateSessionRequest{Name: "s", DB: fixtureDB(t)}})
	content := string(valid) + "\n" + `{"t":"frobnicate","v":2,"session_name":"s"}` + "\n"
	if err := os.WriteFile(journal, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{JournalPath: journal})
	if err == nil || !strings.Contains(err.Error(), `unknown event type "frobnicate"`) {
		t.Fatalf("unknown-event journal: err = %v, want a loud refusal", err)
	}
}

// TestRecoveryApplyCrashOrderings hand-crafts the two journals a
// SIGKILL between an apply decision and its fsync can leave behind.
// If the apply record made it to disk, replay restores exactly that
// configuration; if not, the server comes back without it and the
// next cycle re-derives an apply — both orderings converge to an
// applied configuration instead of wedging.
func TestRecoveryApplyCrashOrderings(t *testing.T) {
	applied := []IndexDefPayload{
		{Table: "fact", Columns: []string{"d", "m1", "m2"}},
		{Table: "fact", Columns: []string{"k", "m3"}},
	}
	base := []journalEvent{
		{T: evSession, Session: &CreateSessionRequest{Name: "live", DB: fixtureDB(t),
			Continuous: &ContinuousSpec{Seed: 5}}},
		{T: evIngest, SessionName: "live", Ingest: &IngestRequest{SQL: fixtureSQL}, Batch: 1},
		{T: evAge, SessionName: "live", Generation: 1},
	}
	applyEv := journalEvent{T: evApply, SessionName: "live", Indexes: applied, Est: 3.5, Weight: 2.5}

	write := func(events []journalEvent) string {
		path := filepath.Join(t.TempDir(), "state.jsonl")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if err := j.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		return path
	}

	// Ordering A: the apply record was fsynced before the kill.
	h := newTestServer(t, Config{JournalPath: write(append(append([]journalEvent{}, base...), applyEv))})
	ci := h.continuousInfo(t, "live")
	if ci.Applies != 1 || ci.AppliedEst != 3.5 || len(ci.Applied) != len(applied) {
		t.Fatalf("replayed apply = %+v, want the journaled configuration", ci)
	}
	for i := range applied {
		if ci.Applied[i].Table != applied[i].Table ||
			strings.Join(ci.Applied[i].Columns, ",") != strings.Join(applied[i].Columns, ",") {
			t.Fatalf("replayed applied[%d] = %+v, want %+v", i, ci.Applied[i], applied[i])
		}
	}
	// The replayed skip hash matches the replayed window: an unchanged
	// window does not re-search.
	if _, res := h.retune(t, "live"); !res.Skipped {
		t.Fatalf("retune after exact replay = %+v, want skipped", res)
	}

	// Ordering B: killed before the apply record hit disk. The server
	// comes back pre-apply, and the next cycle re-derives and applies.
	h2 := newTestServer(t, Config{JournalPath: write(base)})
	if ci := h2.continuousInfo(t, "live"); ci.Applies != 0 || len(ci.Applied) != 0 {
		t.Fatalf("lost-apply replay = %+v, want no applied configuration", ci)
	}
	if _, res := h2.retune(t, "live"); !res.Applied {
		t.Fatalf("retune after lost apply = %+v, want a fresh apply", res)
	}
	if ci := h2.continuousInfo(t, "live"); ci.Applies != 1 || len(ci.Applied) == 0 {
		t.Fatalf("post-recovery info = %+v, want one applied configuration", ci)
	}
}

// ---- restart recovery ----------------------------------------------

// TestRestartRecovery is the full crash/restart cycle: a journaled
// server accumulates state, a second server replays the same journal
// (as after a SIGKILL), and the pre-crash sessions, workloads and
// terminal jobs are all visible again with job-ID continuity.
func TestRestartRecovery(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")

	h1 := newTestServer(t, Config{JournalPath: journal})
	h1.newSession(t, "prod")
	id := h1.submitJob(t, "prod")
	st := h1.waitTerminal(t, id)
	if st.State != string(JobDone) {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	// Simulate the crash: abandon h1 (its Cleanup drains later) and
	// start a fresh server over the same journal.
	h2 := newTestServer(t, Config{JournalPath: journal})

	var sessions []SessionInfo
	h2.mustCall(t, "GET", "/v1/sessions", nil, &sessions, http.StatusOK)
	if len(sessions) != 1 || sessions[0].Name != "prod" {
		t.Fatalf("recovered sessions = %+v, want [prod]", sessions)
	}
	var wls []WorkloadInfo
	h2.mustCall(t, "GET", "/v1/sessions/prod/workloads", nil, &wls, http.StatusOK)
	if len(wls) != 1 || wls[0].Name != "w" {
		t.Fatalf("recovered workloads = %+v, want [w]", wls)
	}

	// The finished job is pollable with its terminal state and flagged
	// as recovered.
	var rst JobStatus
	h2.mustCall(t, "GET", "/v1/jobs/"+id, nil, &rst, http.StatusOK)
	if rst.State != string(JobDone) {
		t.Errorf("recovered job state = %s, want done", rst.State)
	}
	if !rst.Recovered {
		t.Error("recovered job not flagged Recovered")
	}

	// Job IDs must not collide with pre-crash IDs.
	id2 := h2.submitJob(t, "prod")
	if id2 == id {
		t.Fatalf("post-restart job reused pre-crash ID %s", id)
	}
	if h2.waitTerminal(t, id2).State != string(JobDone) {
		t.Error("post-restart job failed")
	}

	// Recovery metrics.
	metrics := h2.metricsText(t)
	for _, want := range []string{
		"idxmerged_recovered_sessions_total 1",
		"idxmerged_recovered_jobs_total 1",
		"idxmerged_recovered_interrupted_jobs_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRestartRecoveryInterruptedJob hand-crafts the journal of a
// server killed mid-job: the job event has no terminal event, so the
// restarted server must surface it as failed with the recovery reason.
func TestRestartRecoveryInterruptedJob(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	j, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []journalEvent{
		{T: evSession, Session: &CreateSessionRequest{Name: "prod", DB: fixtureDB(t)}},
		{T: evWorkload, SessionName: "prod", Workload: &RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}},
		{T: evJob, JobID: "job-7", Kind: "merge", SessionName: "prod", WorkloadName: "w"},
	} {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	h := newTestServer(t, Config{JournalPath: journal})
	var st JobStatus
	h.mustCall(t, "GET", "/v1/jobs/job-7", nil, &st, http.StatusOK)
	if st.State != string(JobFailed) {
		t.Errorf("interrupted job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "interrupted by server restart") {
		t.Errorf("interrupted job error = %q, want a recovery reason", st.Error)
	}
	if !st.Recovered {
		t.Error("interrupted job not flagged Recovered")
	}
	// ID floor: the next submitted job must be numbered past job-7.
	id := h.submitJob(t, "prod")
	if n, ok := parseJobID(id); !ok || n <= 7 {
		t.Errorf("post-recovery job ID %s does not clear the recovered floor", id)
	}
	if !strings.Contains(h.metricsText(t), "idxmerged_recovered_interrupted_jobs_total 1") {
		t.Error("interrupted-recovery metric not incremented")
	}
}

// TestRecoveryDeletedSessionStaysDeleted: a session created and later
// deleted pre-crash must not resurrect, and a job that was queued on it
// ended then — failed, "session deleted" — not at the restart.
func TestRecoveryDeletedSessionStaysDeleted(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	h1 := newTestServer(t, Config{JournalPath: journal, Workers: 1, QueueCap: 4})
	sig, release := gateHook(h1.srv)
	defer release()
	h1.newSession(t, "gone")
	h1.newSession(t, "kept")
	// The one worker parks on a job of "kept"; the job of "gone" queues
	// behind it, so its session is idle and can be deleted.
	busy := h1.submitJob(t, "kept")
	select {
	case <-sig:
	case <-time.After(30 * time.Second):
		t.Fatal("the busy job never reported progress")
	}
	queued := h1.submitJob(t, "gone")
	h1.mustCall(t, "DELETE", "/v1/sessions/gone", nil, nil, http.StatusOK)
	release()
	if st := h1.waitTerminal(t, busy); st.State != string(JobDone) {
		t.Fatalf("busy job: %s (%s), want done", st.State, st.Error)
	}
	if st := h1.waitTerminal(t, queued); st.State != string(JobFailed) || st.Error != "session deleted" {
		t.Fatalf("job of the deleted session: %s (%q), want failed, session deleted", st.State, st.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h1.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	h2 := newTestServer(t, Config{JournalPath: journal})
	var sessions []SessionInfo
	h2.mustCall(t, "GET", "/v1/sessions", nil, &sessions, http.StatusOK)
	if len(sessions) != 1 || sessions[0].Name != "kept" {
		t.Fatalf("recovered sessions = %+v, want [kept]", sessions)
	}
	var st JobStatus
	h2.mustCall(t, "GET", "/v1/jobs/"+queued, nil, &st, http.StatusOK)
	if st.State != string(JobFailed) || st.Error != "session deleted" {
		t.Errorf("recovered job of the deleted session: %s (%q), want failed, session deleted", st.State, st.Error)
	}
	if !strings.Contains(h2.metricsText(t), "idxmerged_recovered_interrupted_jobs_total 0") {
		t.Error("a job that ended with its session was recovered as interrupted by the restart")
	}
}

// ---- panic containment ---------------------------------------------

func TestHandlerPanicReturns500(t *testing.T) {
	h := newTestServer(t, Config{})
	h.srv.handle("GET /test/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	resp, err := http.Get(h.ts.URL + "/test/panic")
	if err != nil {
		t.Fatalf("request after handler panic: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	// The process survives: the next request works.
	resp2, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after panic: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic = %d, want 200", resp2.StatusCode)
	}
	if !strings.Contains(h.metricsText(t), "idxmerged_handler_panics_total 1") {
		t.Error("handler panic metric not incremented")
	}
}

func TestWorkerPanicFailsJobNotProcess(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	sess, ok := h.srv.reg.Get("s")
	if !ok {
		t.Fatal("session missing")
	}
	job, err := h.srv.jobs.Submit("merge", sess, "w", SubmitOpts{}, func(ctx context.Context, j *Job) (*JobResult, error) {
		panic("worker kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	st := h.waitTerminal(t, job.id)
	if st.State != string(JobFailed) {
		t.Fatalf("panicked job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "job panicked") || !strings.Contains(st.Error, "worker kaboom") {
		t.Errorf("panicked job error = %q, want panic message with stack", st.Error)
	}
	// Pool still alive: a real job completes afterwards.
	id := h.submitJob(t, "s")
	if got := h.waitTerminal(t, id).State; got != string(JobDone) {
		t.Errorf("job after worker panic = %s, want done", got)
	}
	if !strings.Contains(h.metricsText(t), "idxmerged_worker_panics_total 1") {
		t.Error("worker panic metric not incremented")
	}

	// A real job whose optimizer starts panicking once its search is
	// underway: 15 calls cost the baseline, the Seek-Costs and the
	// template baseline, then every call panics — on costing goroutines,
	// because at parallelism 4 the compressed model fills one
	// candidate's cost-table misses concurrently (the first candidate
	// has two). Every check of the first wave fails, so the search
	// cannot step past the panic on a speculative one. With resilience
	// disabled nothing retries it: it must arrive as the job's error.
	faults.Install(faults.Rule{ID: "wp", Point: faults.OptimizerCost, Mode: faults.ModePanic, After: 15})
	defer faults.Reset()
	var resp SubmitJobResponse
	h.mustCall(t, "POST", "/v1/sessions/s/jobs", SubmitJobRequest{
		Workload: "w",
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
		Options: JobOptions{Constraint: 0.3, CostModel: "compressed", Parallelism: 4,
			Resilience: &ResilienceSpec{Disable: true}},
	}, &resp, http.StatusAccepted)
	st = h.waitTerminal(t, resp.ID)
	if st.State != string(JobFailed) || !strings.Contains(st.Error, "costing panicked") {
		t.Fatalf("job with panicking costing workers: %s (%q), want failed with the panic as its error", st.State, st.Error)
	}
	faults.Reset()
	if got := h.waitTerminal(t, h.submitJob(t, "s")).State; got != string(JobDone) {
		t.Errorf("job after the costing-worker panics = %s, want done", got)
	}
}

// TestJobFaultInjectionDegraded drives the whole server stack under a
// permanent optimizer outage: the default-resilient job completes
// degraded instead of failing, and says so in its status and metrics.
func TestJobFaultInjectionDegraded(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "count")
	h.newSession(t, "chaos")

	// Measure the job's total optimizer calls on an identical session.
	counter := faults.Install(faults.Rule{ID: "jcount", Point: faults.OptimizerCost, Mode: faults.ModeLatency})
	id := h.submitJob(t, "count")
	if st := h.waitTerminal(t, id); st.State != string(JobDone) {
		t.Fatalf("counting job: %s (%s)", st.State, st.Error)
	}
	total := faults.Fired(counter[0].ID)
	faults.Reset()
	if total < 20 {
		t.Fatalf("fixture too small: %d optimizer calls", total)
	}

	faults.Install(faults.Rule{
		ID: "joutage", Point: faults.OptimizerCost, Mode: faults.ModeError, After: total / 2,
	})
	defer faults.Reset()

	id = h.submitJob(t, "chaos")
	st := h.waitTerminal(t, id)
	if st.State != string(JobDone) {
		t.Fatalf("resilient job under outage = %s (%s), want done degraded", st.State, st.Error)
	}
	if !st.Degraded {
		t.Fatal("job status not flagged degraded")
	}
	var res JobResult
	h.mustCall(t, "GET", "/v1/jobs/"+id+"/result", nil, &res, http.StatusOK)
	if res.Merge == nil || !res.Merge.Degraded {
		t.Error("result payload not flagged degraded")
	}
	metrics := h.metricsText(t)
	if !strings.Contains(metrics, "idxmerged_jobs_degraded_total 1") {
		t.Error("degraded-jobs metric not incremented")
	}
	if !strings.Contains(metrics, "idxmerged_costing_degraded_total") {
		t.Error("degraded-costings metric missing")
	}
}

// TestJobFaultInjectionTransient: transient faults inside a job are
// absorbed silently — job succeeds, not degraded, retries surfaced in
// metrics.
func TestJobFaultInjectionTransient(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	installed := faults.Install(faults.Rule{
		ID: "jt", Point: faults.OptimizerCost, Mode: faults.ModeError, Transient: true, After: 8, Count: 2,
	})
	defer faults.Reset()

	id := h.submitJob(t, "s")
	st := h.waitTerminal(t, id)
	if st.State != string(JobDone) {
		t.Fatalf("job under transient faults = %s (%s)", st.State, st.Error)
	}
	if st.Degraded {
		t.Error("transient faults must not degrade the job")
	}
	if faults.Fired(installed[0].ID) == 0 {
		t.Fatal("fault never fired")
	}
	if !strings.Contains(h.metricsText(t), "idxmerged_costing_retries_total") {
		t.Error("retries metric missing")
	}
	var res JobResult
	h.mustCall(t, "GET", "/v1/jobs/"+id+"/result", nil, &res, http.StatusOK)
	if res.Merge == nil || res.Merge.Retries == 0 {
		t.Error("result payload did not surface the absorbed retries")
	}
}

// TestRequestBodyLimit: oversized JSON bodies are rejected, not
// buffered.
func TestRequestBodyLimit(t *testing.T) {
	h := newTestServer(t, Config{})
	huge := strings.Repeat("x", maxBodyBytes+1024)
	code := h.call(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "big", DB: huge}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("oversized body status = %d, want 400", code)
	}
}

// metricsText fetches /metrics as text.
func (h *testServer) metricsText(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
