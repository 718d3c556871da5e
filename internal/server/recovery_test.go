package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"indexmerge/internal/faults"
	"indexmerge/internal/wscale"
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
	valid, _ := json.Marshal(journalEvent{T: evSession, At: journalTime{time.Now()}, Session: &CreateSessionRequest{Name: "s"}})
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
	valid, _ := json.Marshal(journalEvent{T: evSession, At: journalTime{time.Now()}, Session: &CreateSessionRequest{Name: "s"}})
	content := "GARBAGE NOT JSON\n" + string(valid) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("malformed line followed by valid events must error, not silently drop state")
	}
}

// TestJournalTimestampsFixedWidth: a record's length does not depend on
// how many of its timestamp's nanoseconds are trailing zeros, and the
// fixed-width form reads back to the same instant.
func TestJournalTimestampsFixedWidth(t *testing.T) {
	base := time.Date(2026, 3, 4, 5, 6, 7, 0, time.FixedZone("east", 3600))
	var lens []int
	for _, ns := range []int{0, 100_000_000, 120_000_000, 123_456_000, 123_456_789, 1} {
		at := base.Add(time.Duration(ns))
		line, err := json.Marshal(journalEvent{T: evJobEnd, JobID: "job-1", State: string(JobDone), At: journalTime{at}})
		if err != nil {
			t.Fatal(err)
		}
		var back journalEvent
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		if !back.At.Equal(at) || back.At.Location() != time.UTC {
			t.Fatalf("%s reads back as %v", line, back.At)
		}
		lens = append(lens, len(line))
	}
	for _, n := range lens {
		if n != lens[0] {
			t.Fatalf("record lengths %v, want one length", lens)
		}
	}
}

// TestJournalReplaysTrimmedTimestamps: a journal written before the
// fixed-width form holds time.Time's RFC 3339 text, trailing zero
// nanoseconds trimmed. It replays, and a recovered job keeps its time.
func TestJournalReplaysTrimmedTimestamps(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	db, _ := json.Marshal(fixtureDB(t))
	sqlText, _ := json.Marshal(fixtureSQL)
	content := `{"t":"session","v":3,"at":"2026-01-02T03:04:05.1Z","session":{"name":"old","db":` + string(db) + `}}
{"t":"workload","v":3,"at":"2026-01-02T03:04:05.12Z","session_name":"old","workload":{"name":"w","sql":` + string(sqlText) + `}}
{"t":"job","v":3,"at":"2026-01-02T03:04:06Z","job_id":"job-1","kind":"merge","session_name":"old","workload_name":"w"}
`
	if err := os.WriteFile(journal, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(journal)
	if err != nil || len(events) != 3 {
		t.Fatalf("ReadJournal = %d events, %v", len(events), err)
	}
	if want := time.Date(2026, 1, 2, 3, 4, 5, 120_000_000, time.UTC); !events[1].At.Equal(want) {
		t.Fatalf("workload record at %v, want %v", events[1].At, want)
	}
	h := newTestServer(t, Config{JournalPath: journal})
	var st JobStatus
	h.mustCall(t, "GET", "/v1/jobs/job-1", nil, &st, http.StatusOK)
	if want := time.Date(2026, 1, 2, 3, 4, 6, 0, time.UTC); !st.Recovered || !st.CreatedAt.Equal(want) {
		t.Fatalf("recovered job %+v, want recovered, created at %v", st, want)
	}
	var wls []WorkloadInfo
	h.mustCall(t, "GET", "/v1/sessions/old/workloads", nil, &wls, http.StatusOK)
	if len(wls) != 1 || wls[0].Name != "w" {
		t.Fatalf("workloads = %+v, want [w]", wls)
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
	valid, _ := json.Marshal(journalEvent{T: evSession, At: journalTime{time.Now()},
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
	// A terminal state is visible before its job_end is durable; a crash
	// in that window recovers the job as interrupted, which is not what
	// this test is about.
	waitJournaled(t, journal, func(ev journalEvent) bool { return ev.T == evJobEnd && ev.JobID == id })
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

// waitJournaled polls the journal until a record matching is is in it.
func waitJournaled(t *testing.T, path string, is func(journalEvent) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		events, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if is(ev) {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the awaited record never reached the journal")
}

// quickJob is the smallest merge job there is: one index, nothing to
// merge, no optimizer in the constraint.
var quickJob = SubmitJobRequest{
	Workload: "w",
	Initial:  &InitialSpec{Indexes: fixtureIndexes[:1]},
	Options:  JobOptions{CostModel: "nocost"},
}

// TestRecoveryJobEndBeforeJob: the job record is written by the request
// that submitted the job and job_end by the worker that ran it, so a
// quick job's two records can sit in the journal in either order.
// Replay pairs them by ID whichever came first; an end whose job record
// never arrives restores nothing.
func TestRecoveryJobEndBeforeJob(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	j, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []journalEvent{
		{T: evSession, Session: &CreateSessionRequest{Name: "prod", DB: fixtureDB(t)}},
		{T: evWorkload, SessionName: "prod", Workload: &RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}},
		{T: evJobEnd, JobID: "job-3", State: string(JobDone)},
		{T: evJob, JobID: "job-3", Kind: "merge", SessionName: "prod", WorkloadName: "w"},
		{T: evJobEnd, JobID: "job-9", State: string(JobDone)},
	} {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	h := newTestServer(t, Config{JournalPath: journal})
	var st JobStatus
	h.mustCall(t, "GET", "/v1/jobs/job-3", nil, &st, http.StatusOK)
	if st.State != string(JobDone) || st.Error != "" || !st.Recovered {
		t.Errorf("job whose end was journaled first: %s (%q) recovered=%v, want done, recovered", st.State, st.Error, st.Recovered)
	}
	h.mustCall(t, "GET", "/v1/jobs/job-9", nil, nil, http.StatusNotFound)
	metrics := h.metricsText(t)
	for _, want := range []string{
		"idxmerged_recovered_jobs_total 1",
		"idxmerged_recovered_interrupted_jobs_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRecoveryQuickJobsAllEnd is the stress behind the fixture above:
// jobs that finish about when their submission returns, from eight
// clients at once, then a drain and a restart. Every one ended done and
// must be recovered done, whatever order its two records landed in.
func TestRecoveryQuickJobsAllEnd(t *testing.T) {
	const sessions, perSession = 8, 40
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	h1 := newTestServer(t, Config{JournalPath: journal, Workers: 4, QueueCap: 2 * sessions})
	for i := 0; i < sessions; i++ {
		h1.newSession(t, fmt.Sprintf("s%d", i))
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for n := 0; n < perSession; n++ {
				var resp SubmitJobResponse
				if code := h1.call(t, "POST", "/v1/sessions/"+name+"/jobs", quickJob, &resp); code != http.StatusAccepted {
					t.Errorf("submit on %s: status %d", name, code)
					return
				}
				if st := h1.waitTerminal(t, resp.ID); st.State != string(JobDone) {
					t.Errorf("job %s: %s (%s), want done", resp.ID, st.State, st.Error)
				}
			}
		}(fmt.Sprintf("s%d", i))
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h1.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	h2 := newTestServer(t, Config{JournalPath: journal})
	var jobs []JobStatus
	h2.mustCall(t, "GET", "/v1/jobs", nil, &jobs, http.StatusOK)
	if len(jobs) != sessions*perSession {
		t.Fatalf("recovered %d jobs, want %d", len(jobs), sessions*perSession)
	}
	wrong := 0
	for _, st := range jobs {
		if st.State != string(JobDone) {
			if wrong++; wrong <= 3 {
				t.Errorf("job %s ended done and was recovered %s (%q)", st.ID, st.State, st.Error)
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d jobs recovered in another state than they ended in", wrong, len(jobs))
	}
}

// restartState is what a restart must preserve, read off a server's own
// structures in a form reflect.DeepEqual compares and %+v prints.
type restartState struct {
	Sessions map[string]sessionState
	Usage    map[string][2]int    // tenant -> live sessions, queued+running jobs
	Jobs     map[string][5]string // id -> kind, session, workload, state, error
}

type sessionState struct {
	Tenant    string
	Workloads []WorkloadInfo
	// Continuous sessions: the window member by member, then its
	// counters, then the configuration the loop holds applied.
	Members            []string // "fingerprint | text | frequency", in snapshot order
	Window             wscale.WindowStats
	Applied            []IndexDefPayload
	AppliedEst         float64
	Applies, Rollbacks int64
}

func (h *testServer) restartState(tenants ...string) restartState {
	rs := restartState{
		Sessions: map[string]sessionState{},
		Usage:    map[string][2]int{},
		Jobs:     map[string][5]string{},
	}
	for _, sess := range h.srv.reg.List() {
		ss := sessionState{Tenant: sess.tenant}
		for _, wi := range sess.WorkloadInfos() {
			// The cost table is a cache: a restart starts it empty.
			wi.CostTableEntries, wi.CostTableHits, wi.CostTableMisses = 0, 0, 0
			ss.Workloads = append(ss.Workloads, wi)
		}
		if c := sess.cont; c != nil {
			for _, q := range c.window.Snapshot().W.Queries {
				ss.Members = append(ss.Members, fmt.Sprintf("%s | %s | %v", q.Fingerprint, q.Text, q.Freq))
			}
			ss.Window = c.window.Stats() // generation, weight and Bytes among them
			ci := c.info()
			ss.Applied, ss.AppliedEst, ss.Applies, ss.Rollbacks = ci.Applied, ci.AppliedEst, ci.Applies, ci.Rollbacks
		}
		rs.Sessions[sess.name] = ss
	}
	gauges := map[string]TenantGauges{}
	for _, g := range h.srv.tenantGauges() {
		gauges[g.Tenant] = g
	}
	for _, tenant := range tenants {
		rs.Usage[tenant] = [2]int{gauges[tenant].Sessions, gauges[tenant].Jobs}
	}
	for _, st := range h.srv.jobs.List() {
		rs.Jobs[st.ID] = [5]string{st.Kind, st.Session, st.Workload, st.State, st.Error}
	}
	return rs
}

// TestReplayEqualsLive drives one seeded schedule of everything the
// journal records through a live server, from several clients at once,
// and then demands that a second server replaying the journal holds the
// state the first one holds. The window is where concurrency shows: two
// clients' statements fold in some order, the seeded reservoir makes the
// members depend on that order, and the journal has to list the folds —
// and the agings and the shrink among them — in the order they happened.
func TestReplayEqualsLive(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	cfg := Config{JournalPath: journal, Workers: 2, QueueCap: 16, MemoryBudgetBytes: 1 << 30}
	h := newTestServer(t, cfg)
	db := fixtureDB(t)

	// Two continuous sessions — a reservoir of 2, where almost every new
	// statement evicts by the seeded draw, and one of 12, wide enough
	// for the brownout bound of 8 to shrink — and two plain ones.
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "c1", DB: db, Tenant: "t1",
		Continuous: &ContinuousSpec{WindowMax: 2, Seed: 1}}, nil, http.StatusCreated)
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "c2", DB: db, Tenant: "t2",
		Continuous: &ContinuousSpec{WindowMax: 12, Seed: 2}}, nil, http.StatusCreated)
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "plain", DB: db, Tenant: "t1"}, nil, http.StatusCreated)
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "gone", DB: db, Tenant: "t2"}, nil, http.StatusCreated)
	for _, name := range []string{"c1", "plain", "gone"} {
		h.mustCall(t, "POST", "/v1/sessions/"+name+"/workloads",
			RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil, http.StatusCreated)
	}

	// The schedule: 8 clients x 20 one-statement batches over three
	// shapes, constants and targets drawn from one seed.
	const clients, perClient = 8, 20
	shapes := []string{
		"SELECT k, m3 FROM fact WHERE k = %d",
		"SELECT m2, m3 FROM fact WHERE k = %d",
		"SELECT d, m1 FROM fact WHERE d BETWEEN DATE(%d) AND DATE(%[1]d)",
	}
	rng := rand.New(rand.NewSource(1))
	type batch struct{ session, sql string }
	schedule := make([][]batch, clients)
	for c := range schedule {
		for n := 0; n < perClient; n++ {
			schedule[c] = append(schedule[c], batch{
				session: []string{"c1", "c2"}[rng.Intn(2)],
				sql:     fmt.Sprintf(shapes[rng.Intn(len(shapes))], 1+rng.Intn(900)),
			})
		}
	}
	// storm runs schedule[c][from:to] of every client at once and, while
	// they run, whatever meanwhile does.
	storm := func(from, to int, meanwhile func()) {
		var wg sync.WaitGroup
		for c := range schedule {
			wg.Add(1)
			go func(batches []batch) {
				defer wg.Done()
				for _, b := range batches {
					if code := h.call(t, "POST", "/v1/sessions/"+b.session+"/ingest", IngestRequest{SQL: b.sql}, nil); code != http.StatusOK {
						t.Errorf("ingest into %s: status %d", b.session, code)
					}
				}
			}(schedule[c][from:to])
		}
		meanwhile()
		wg.Wait()
	}

	// First half of the ingests, each window re-tuned (aged) under them.
	storm(0, perClient/2, func() { h.retune(t, "c1"); h.retune(t, "c2") })
	// At rest: both loops apply, one observation is forced bad and rolls
	// c1 back, c1 applies again.
	h.retune(t, "c1")
	h.retune(t, "c2")
	faults.Install(faults.Rule{Point: faults.ContinuousObserve, Mode: faults.ModeScale, Scale: 100, Count: 1})
	resp := h.ingest(t, "c1", fmt.Sprintf(shapes[0], 7))
	faults.Reset()
	if !resp.RolledBack {
		t.Fatalf("the forced observation did not roll c1 back: %+v", resp)
	}
	h.retune(t, "c1")
	// Second half, with the ladder forced up under them: one request
	// sheds cold state (c2's reservoirs shrink to 8 among the folds),
	// the batches that arrive meanwhile are shed, and c2 ages once more.
	storm(perClient/2, perClient, func() {
		faults.Install(faults.Rule{Point: faults.BrownoutStage, Mode: faults.ModeScale, Scale: 1e9})
		h.mustCall(t, "POST", "/v1/sessions/plain/cost", CostRequest{Workload: "w", Indexes: fixtureIndexes}, nil, http.StatusTooManyRequests)
		faults.Reset()
		h.retune(t, "c2")
	})
	// At rest again, so that the state compared holds applied
	// configurations whatever the second half's observations rolled back.
	h.retune(t, "c1")
	h.retune(t, "c2")

	// Jobs: one canceled while queued behind a parked one, one done on a
	// session that is then deleted.
	parked, release := h.park(t, "plain")
	var st JobStatus
	h.mustCall(t, "POST", "/v1/jobs/"+h.submitJob(t, "plain")+"/cancel", nil, &st, http.StatusAccepted)
	if st.State != string(JobCanceled) {
		t.Fatalf("queued job after cancel: %s, want canceled", st.State)
	}
	release()
	h.waitTerminal(t, parked)
	h.waitTerminal(t, h.submitJob(t, "gone"))
	h.mustCall(t, "DELETE", "/v1/sessions/gone", nil, nil, http.StatusOK)

	// Drained, every job_end is written and the first server's state is
	// final.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	live := h.restartState("t1", "t2")

	// The schedule must have happened for the comparison to mean much.
	events, err := ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range events {
		seen[ev.T]++
	}
	for _, typ := range []string{evIngest, evAge, evShrink, evApply, evRollback, evSessionDeleted, evJob, evJobEnd} {
		if seen[typ] == 0 {
			t.Errorf("the schedule journaled no %q record", typ)
		}
	}
	if c1 := live.Sessions["c1"]; c1.Window.Members == 0 || len(c1.Applied) == 0 || c1.Rollbacks == 0 {
		t.Errorf("c1 after the schedule = %+v, want members, an applied configuration and a rollback", c1)
	}

	replayed := newTestServer(t, cfg).restartState("t1", "t2")
	if reflect.DeepEqual(live, replayed) {
		return
	}
	at := func(members []string, i int) string {
		if i < len(members) {
			return members[i]
		}
		return "(none)"
	}
	for name, want := range live.Sessions {
		got := replayed.Sessions[name]
		for i := 0; i < len(want.Members) || i < len(got.Members); i++ {
			if at(want.Members, i) != at(got.Members, i) {
				t.Errorf("session %s, window member %d of %d / %d\n    live: %s\nreplayed: %s",
					name, i, len(want.Members), len(got.Members), at(want.Members, i), at(got.Members, i))
				break
			}
		}
		want.Members, got.Members = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("session %s\n    live: %+v\nreplayed: %+v", name, want, got)
		}
	}
	if !reflect.DeepEqual(live.Usage, replayed.Usage) {
		t.Errorf("quota usage\n    live: %v\nreplayed: %v", live.Usage, replayed.Usage)
	}
	for id, want := range live.Jobs {
		if got := replayed.Jobs[id]; got != want {
			t.Errorf("job %s\n    live: %q\nreplayed: %q", id, want, got)
		}
	}
	t.Errorf("replay differs from live (%d / %d sessions, %d / %d jobs)",
		len(replayed.Sessions), len(live.Sessions), len(replayed.Jobs), len(live.Jobs))
}

// TestReplayKeepsContinuousSpec: a session's continuous loop is its
// journaled spec and the built-in defaults, nothing the restarted
// process is configured with. A window that decays by 0.8 and drops
// templates under 0.6 goes through ingest, three agings (the third
// drops the first batch's templates, 0.8³ < 0.6) and an apply, and the
// server that replays the journal holds the same window and loop.
func TestReplayKeepsContinuousSpec(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	cfg := Config{JournalPath: journal}
	h := newTestServer(t, cfg)
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "c", DB: fixtureDB(t),
		Continuous: &ContinuousSpec{Decay: 0.8, MinWeight: 0.6, Seed: 3}}, nil, http.StatusCreated)
	h.ingest(t, "c", fixtureSQL)
	if _, res := h.retune(t, "c"); !res.Applied {
		t.Fatalf("first retune did not apply: %+v", res)
	}
	h.ingest(t, "c", driftSQL)
	h.retune(t, "c")
	h.retune(t, "c")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	live := h.restartState()
	// Only driftSQL's four templates are left, each aged twice.
	if w := live.Sessions["c"].Window; w.Templates != 4 || math.Abs(w.Weight-4*0.8*0.8) > 1e-9 {
		t.Fatalf("live window = %+v, want 4 templates of weight %v", w, 0.8*0.8)
	}
	if c := live.Sessions["c"]; c.Applies == 0 {
		t.Fatalf("live loop = %+v, want an apply", c)
	}
	if replayed := newTestServer(t, cfg).restartState(); !reflect.DeepEqual(live, replayed) {
		t.Errorf("replay differs from live\n    live: %+v\nreplayed: %+v", live, replayed)
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
	job, err := h.srv.jobs.Submit("merge", sess, "w", 0, func(ctx context.Context, j *Job) (*JobResult, error) {
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
	// disabled nothing degrades it: it must arrive as the job's error. The
	// job runs on a fresh registration: the jobs above left their cells in
	// "s"'s table, and a compressed job prices from them.
	h.newSession(t, "f")
	faults.Install(faults.Rule{ID: "wp", Point: faults.OptimizerCost, Mode: faults.ModePanic, After: 15})
	defer faults.Reset()
	var resp SubmitJobResponse
	h.mustCall(t, "POST", "/v1/sessions/f/jobs", SubmitJobRequest{
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

	// The same job with the panic in the store fill of a missed cell
	// instead, on a fresh registration: the template baseline fills one
	// cell per template on the job's goroutine, every fill after that is
	// a candidate's, on one of the search's four wave goroutines, and
	// panics.
	h.newSession(t, "p")
	sess, _ = h.srv.reg.Get("p")
	rw, ok := sess.workloadEntry("w")
	if !ok {
		t.Fatal("workload missing")
	}
	faults.Install(faults.Rule{ID: "ip", Point: faults.CostCacheDo, Mode: faults.ModePanic, After: int64(len(rw.compressed.C.Templates))})
	h.mustCall(t, "POST", "/v1/sessions/p/jobs", SubmitJobRequest{
		Workload: "w",
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
		Options: JobOptions{Constraint: 0.3, CostModel: "compressed", Parallelism: 4,
			Resilience: &ResilienceSpec{Disable: true}},
	}, &resp, http.StatusAccepted)
	st = h.waitTerminal(t, resp.ID)
	if st.State != string(JobFailed) || !strings.Contains(st.Error, "costing panicked") || faults.Fired("ip") == 0 {
		t.Fatalf("job with panicking fills: %s (%q) after %d panics, want failed with the panic as its error", st.State, st.Error, faults.Fired("ip"))
	}
	faults.Reset()
	if got := h.waitTerminal(t, h.submitJob(t, "p")).State; got != string(JobDone) {
		t.Errorf("job after the install panics = %s, want done", got)
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

// TestJobFaultInjectionTransient: a transient outage — a permanent
// optimizer.cost fault that is later cleared — degrades the job it lands
// in and nothing after it. Once the fault is gone, a job on the same
// session is exact and byte-identical to the same job on a fresh
// session: a session keeps no failure history to serve it degraded from.
func TestJobFaultInjectionTransient(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "count")
	h.newSession(t, "s")
	// A second registration of the workload on the faulted session: the
	// job after the outage starts from cold cells, as one on a fresh
	// session does.
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "w2", SQL: fixtureSQL}, nil, http.StatusCreated)
	result := func(session, workload string) (JobStatus, *MergeResultPayload) {
		t.Helper()
		var resp SubmitJobResponse
		h.mustCall(t, "POST", "/v1/sessions/"+session+"/jobs", SubmitJobRequest{
			Workload: workload,
			Initial:  &InitialSpec{Indexes: fixtureIndexes},
			Options:  JobOptions{Constraint: 0.3},
		}, &resp, http.StatusAccepted)
		st := h.waitTerminal(t, resp.ID)
		if st.State != string(JobDone) {
			t.Fatalf("job on %s/%s = %s (%s)", session, workload, st.State, st.Error)
		}
		var res JobResult
		h.mustCall(t, "GET", "/v1/jobs/"+resp.ID+"/result", nil, &res, http.StatusOK)
		res.Merge.ElapsedSeconds = 0
		return st, res.Merge
	}

	counter := faults.Install(faults.Rule{ID: "jcount", Point: faults.OptimizerCost, Mode: faults.ModeLatency})
	result("count", "w")
	total := faults.Fired(counter[0].ID)
	faults.Reset()
	outage := faults.Install(faults.Rule{ID: "jt", Point: faults.OptimizerCost, Mode: faults.ModeError, After: total / 2})
	defer faults.Reset()
	if st, _ := result("s", "w"); !st.Degraded || faults.Fired(outage[0].ID) == 0 {
		t.Fatalf("job under the outage: degraded %v after %d faults, want degraded", st.Degraded, faults.Fired(outage[0].ID))
	}
	faults.Reset()

	st, after := result("s", "w2")
	if st.Degraded || after.Degraded || after.DegradedChecks != 0 {
		t.Errorf("fault-free job after the outage: degraded %v with %d degraded checks, want exact", st.Degraded, after.DegradedChecks)
	}
	h.newSession(t, "fresh")
	_, fresh := result("fresh", "w")
	a, _ := json.Marshal(after)
	b, _ := json.Marshal(fresh)
	if string(a) != string(b) {
		t.Errorf("job after the outage differs from the same job on a fresh session:\nafter %s\nfresh %s", a, b)
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
