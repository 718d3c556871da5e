package server

import (
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"indexmerge"
	"indexmerge/internal/faults"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/wscale"
)

// driftSQL is a second workload with query shapes absent from
// fixtureSQL: new projection/predicate combinations the configuration
// applied for the fixture window cannot serve well.
const driftSQL = `SELECT m2, m3 FROM fact WHERE k = 42
SELECT tag, m3 FROM fact WHERE tag = 'green'
SELECT d, m3 FROM fact WHERE d BETWEEN DATE(300) AND DATE(340)
SELECT name FROM dim WHERE k = 9`

// newContinuousSession creates a fixture-backed continuous session
// with manual re-tune cycles (no background ticker) and a fixed
// reservoir seed.
func (h *testServer) newContinuousSession(t *testing.T, name string, seed int64) {
	t.Helper()
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{
		Name: name, DB: fixtureDB(t),
		Continuous: &ContinuousSpec{Seed: seed},
	}, nil, http.StatusCreated)
}

// ingest streams SQL into a continuous session.
func (h *testServer) ingest(t *testing.T, session, sqlText string) IngestResponse {
	t.Helper()
	var resp IngestResponse
	h.mustCall(t, "POST", "/v1/sessions/"+session+"/ingest",
		IngestRequest{SQL: sqlText}, &resp, http.StatusOK)
	return resp
}

// retune runs one on-demand re-tune cycle to completion and returns
// its result payload.
func (h *testServer) retune(t *testing.T, session string) (JobStatus, *RetuneResultPayload) {
	t.Helper()
	var sub SubmitJobResponse
	h.mustCall(t, "POST", "/v1/sessions/"+session+"/retune", nil, &sub, http.StatusAccepted)
	st := h.waitTerminal(t, sub.ID)
	if st.State != string(JobDone) {
		t.Fatalf("retune job %s = %s (%s), want done", sub.ID, st.State, st.Error)
	}
	var res JobResult
	h.mustCall(t, "GET", "/v1/jobs/"+sub.ID+"/result", nil, &res, http.StatusOK)
	if res.Retune == nil {
		t.Fatalf("retune job %s returned no retune payload: %+v", sub.ID, res)
	}
	return st, res.Retune
}

// continuousInfo fetches a session's continuous control-loop state.
func (h *testServer) continuousInfo(t *testing.T, session string) *ContinuousInfo {
	t.Helper()
	var info SessionInfo
	h.mustCall(t, "GET", "/v1/sessions/"+session, nil, &info, http.StatusOK)
	if info.Continuous == nil {
		t.Fatalf("session %s has no continuous info", session)
	}
	return info.Continuous
}

// TestContinuousIngestRetuneApply drives the core loop: statements
// stream in, a re-tune cycle searches the window and auto-applies its
// recommendation, an unchanged window skips the next search, and a
// drifted window triggers a fresh search that re-applies.
func TestContinuousIngestRetuneApply(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newContinuousSession(t, "live", 11)

	// Ingest on a non-continuous session is a clean 400, as is a batch
	// that does not parse.
	h.newSession(t, "batch")
	h.mustCall(t, "POST", "/v1/sessions/batch/ingest",
		IngestRequest{SQL: fixtureSQL}, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions/batch/retune", nil, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions/live/ingest",
		IngestRequest{SQL: "SELECT nope FROM nowhere"}, nil, http.StatusBadRequest)

	resp := h.ingest(t, "live", fixtureSQL)
	if resp.Statements != 5 || resp.WindowTemplates == 0 || resp.WindowWeight != 5 {
		t.Fatalf("ingest response = %+v", resp)
	}

	// First cycle: the window is new, so the search runs and the
	// recommendation clears the improvement guardrail over the empty
	// configuration.
	st, res := h.retune(t, "live")
	if res.Skipped || !res.Applied {
		t.Fatalf("first retune = %+v, want a search that applied", res)
	}
	if !st.Applied {
		t.Error("job status does not mirror the apply")
	}
	if len(res.Indexes) == 0 || res.Improvement < 0.05 {
		t.Fatalf("applied result = %+v, want indexes and >= 5%% improvement", res)
	}
	ci := h.continuousInfo(t, "live")
	if ci.Applies != 1 || len(ci.Applied) == 0 || ci.AppliedEst <= 0 {
		t.Fatalf("continuous info after apply = %+v", ci)
	}

	// Unchanged window: the template fingerprint set is the same, so
	// the cycle skips without searching.
	_, res = h.retune(t, "live")
	if !res.Skipped {
		t.Fatalf("retune over unchanged window = %+v, want skipped", res)
	}
	if ci = h.continuousInfo(t, "live"); ci.RetuneSkips != 1 || ci.Retunes != 1 {
		t.Fatalf("skip not counted: %+v", ci)
	}

	// Drift: new query shapes arrive, the fingerprint set changes, and
	// the next cycle searches again and re-applies for the new mix.
	h.ingest(t, "live", driftSQL)
	_, res = h.retune(t, "live")
	if res.Skipped {
		t.Fatalf("retune over drifted window = %+v, want a fresh search", res)
	}
	if !res.Applied {
		t.Fatalf("drifted window did not re-apply: %+v", res)
	}
	ci = h.continuousInfo(t, "live")
	if ci.Applies != 2 || ci.Retunes != 2 {
		t.Fatalf("continuous info after drift = %+v", ci)
	}

	metrics := h.metricsText(t)
	for _, want := range []string{
		"idxmerged_ingest_batches_total 2",
		"idxmerged_ingest_statements_total 9",
		"idxmerged_applies_total 2",
		"idxmerged_retunes_total 2",
		"idxmerged_retune_skips_total 1",
		`idxmerged_window_templates{session="live"}`,
		`idxmerged_applied_indexes{session="live"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestContinuousGuardrailRollback forces a mis-estimate: a scale fault
// at the observation point inflates one batch's observed cost, the
// observed/estimated ratio breaches the threshold, and the applied
// configuration rolls back — after which the next cycle searches again
// (the skip hash is cleared) and re-applies.
func TestContinuousGuardrailRollback(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newContinuousSession(t, "guard", 3)
	h.ingest(t, "guard", fixtureSQL)
	if _, res := h.retune(t, "guard"); !res.Applied {
		t.Fatalf("setup retune did not apply: %+v", res)
	}

	// A clean batch observes close to the estimate: no rollback.
	resp := h.ingest(t, "guard", fixtureSQL)
	if resp.RolledBack {
		t.Fatalf("clean batch rolled back: %+v", resp)
	}
	if resp.ObservedRatio <= 0 || resp.ObservedRatio > 2 {
		t.Fatalf("clean batch observed ratio %v, want ~1", resp.ObservedRatio)
	}

	// One poisoned observation: the next batch's measured cost is
	// inflated 100x, breaching the default 2.0 rollback ratio.
	installed := faults.Install(faults.Rule{
		ID: "obs", Point: faults.ContinuousObserve, Mode: faults.ModeScale, Scale: 100, Count: 1,
	})
	defer faults.Reset()
	resp = h.ingest(t, "guard", fixtureSQL)
	if faults.Fired(installed[0].ID) != 1 {
		t.Fatal("observation fault never fired")
	}
	if !resp.RolledBack || resp.ObservedRatio <= 2 {
		t.Fatalf("poisoned batch = %+v, want rollback with ratio > 2", resp)
	}
	ci := h.continuousInfo(t, "guard")
	if ci.Rollbacks != 1 || len(ci.Applied) != 0 {
		t.Fatalf("info after rollback = %+v, want no applied configuration", ci)
	}

	// The rollback cleared the skip hash: the same window re-searches
	// and (with the fault window exhausted) re-applies.
	_, res := h.retune(t, "guard")
	if res.Skipped || !res.Applied {
		t.Fatalf("retune after rollback = %+v, want fresh apply", res)
	}
	ci = h.continuousInfo(t, "guard")
	if ci.Applies != 2 || len(ci.Applied) == 0 {
		t.Fatalf("info after re-apply = %+v", ci)
	}
}

// TestContinuousChaosFaults injects a what-if optimizer outage into
// the live loop: the observe guardrail degrades to a no-op (the batch
// still folds), a re-tune cycle under the outage fails as a job
// without wedging the session, and the first healthy cycle recovers.
func TestContinuousChaosFaults(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newContinuousSession(t, "chaos", 7)
	h.ingest(t, "chaos", fixtureSQL)
	if _, res := h.retune(t, "chaos"); !res.Applied {
		t.Fatalf("setup retune did not apply: %+v", res)
	}

	// Permanent costing outage. The guardrail cannot observe, so the
	// batch folds with no ratio and no rollback.
	faults.Install(faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError})
	defer faults.Reset()
	resp := h.ingest(t, "chaos", fixtureSQL)
	if resp.RolledBack || resp.ObservedRatio != 0 {
		t.Fatalf("ingest under outage = %+v, want fold without guardrail", resp)
	}
	if ci := h.continuousInfo(t, "chaos"); ci.Rollbacks != 0 || len(ci.Applied) == 0 {
		t.Fatalf("outage must not change the applied configuration: %+v", ci)
	}

	// A re-tune cycle needs the optimizer; under the drifted window it
	// fails as a job, leaving the session and its applied state intact.
	h.ingest(t, "chaos", driftSQL)
	var sub SubmitJobResponse
	h.mustCall(t, "POST", "/v1/sessions/chaos/retune", nil, &sub, http.StatusAccepted)
	if st := h.waitTerminal(t, sub.ID); st.State != string(JobFailed) {
		t.Fatalf("retune under permanent outage = %s (%s), want failed", st.State, st.Error)
	}
	if ci := h.continuousInfo(t, "chaos"); len(ci.Applied) == 0 {
		t.Fatalf("failed cycle must not clear the applied configuration: %+v", ci)
	}

	// Outage over: the loop recovers on the next cycle.
	faults.Reset()
	if _, res := h.retune(t, "chaos"); res.Skipped {
		t.Fatalf("healthy retune after outage = %+v, want a search", res)
	}
	if resp := h.ingest(t, "chaos", fixtureSQL); resp.ObservedRatio <= 0 {
		t.Fatalf("guardrail did not resume after outage: %+v", resp)
	}
}

// TestContinuousJournalReplay is the crash/restart cycle for the
// continuous loop: a journaled server ingests, applies, rolls back and
// re-applies; a second server replaying the same journal reconstructs
// the identical window (seeded reservoir) and the identical applied
// configuration and counters, and keeps serving the loop.
func TestContinuousJournalReplay(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "state.jsonl")
	h1 := newTestServer(t, Config{JournalPath: journal})
	h1.newContinuousSession(t, "live", 5)
	h1.ingest(t, "live", fixtureSQL)
	if _, res := h1.retune(t, "live"); !res.Applied {
		t.Fatalf("setup retune did not apply: %+v", res)
	}
	faults.Install(faults.Rule{
		Point: faults.ContinuousObserve, Mode: faults.ModeScale, Scale: 100, Count: 1,
	})
	resp := h1.ingest(t, "live", fixtureSQL)
	faults.Reset()
	if !resp.RolledBack {
		t.Fatalf("poisoned batch did not roll back: %+v", resp)
	}
	h1.ingest(t, "live", driftSQL)
	if _, res := h1.retune(t, "live"); !res.Applied {
		t.Fatalf("re-apply retune did not apply: %+v", res)
	}
	want := h1.continuousInfo(t, "live")

	// The replayed server must converge to the same state.
	h2 := newTestServer(t, Config{JournalPath: journal})
	got := h2.continuousInfo(t, "live")
	if got.Applies != want.Applies || got.Rollbacks != want.Rollbacks {
		t.Fatalf("replayed counters = %d applies / %d rollbacks, want %d / %d",
			got.Applies, got.Rollbacks, want.Applies, want.Rollbacks)
	}
	if got.WindowTemplates != want.WindowTemplates || got.WindowMembers != want.WindowMembers ||
		got.Generation != want.Generation {
		t.Fatalf("replayed window = %+v, want %+v", got, want)
	}
	if math.Abs(got.WindowWeight-want.WindowWeight) > 1e-9 {
		t.Fatalf("replayed window weight %v, want %v", got.WindowWeight, want.WindowWeight)
	}
	if len(got.Applied) != len(want.Applied) {
		t.Fatalf("replayed applied = %+v, want %+v", got.Applied, want.Applied)
	}
	for i := range want.Applied {
		g, w := got.Applied[i], want.Applied[i]
		if g.Table != w.Table || strings.Join(g.Columns, ",") != strings.Join(w.Columns, ",") {
			t.Fatalf("replayed applied[%d] = %+v, want %+v", i, g, w)
		}
	}
	if got.AppliedEst != want.AppliedEst {
		t.Fatalf("replayed applied est %v, want %v", got.AppliedEst, want.AppliedEst)
	}

	// The loop survives the restart: unchanged window skips, and
	// ingestion keeps folding.
	if _, res := h2.retune(t, "live"); !res.Skipped {
		t.Fatalf("post-replay retune over unchanged window = %+v, want skipped", res)
	}
	if resp := h2.ingest(t, "live", fixtureSQL); resp.RolledBack {
		t.Fatalf("post-replay clean ingest rolled back: %+v", resp)
	}
}

// TestRetuneTunesFromSnapshot: a re-tune cycle tunes and merges from the
// window snapshot's own forms. Its recommendation is the one the cycle
// made when it compressed the snapshot's workload a second time to pick
// the representatives (the indexes below are that build's, on this
// window), and a Merger built the way the cycle builds it hands back
// the snapshot's descriptors and the windowed form themselves, not
// rebuilt copies.
func TestRetuneTunesFromSnapshot(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newContinuousSession(t, "snap", 11)
	// Two batches, the second adding constant-varied members to the
	// first's templates and new shapes of its own.
	h.ingest(t, "snap", fixtureSQL)
	h.ingest(t, "snap", driftSQL+
		"\nSELECT d, m1 FROM fact WHERE d BETWEEN DATE(300) AND DATE(320)"+
		"\nSELECT k, m3 FROM fact WHERE k = 99")

	_, res := h.retune(t, "snap")
	if res.Skipped || !res.Applied {
		t.Fatalf("retune = %+v, want a search that applied", res)
	}
	var got []string
	for _, ix := range res.Indexes {
		got = append(got, ix.Table+"("+strings.Join(ix.Columns, ",")+")")
	}
	want := []string{"fact(k,m1,m3,m2)", "fact(d,m3,m1,m2)", "fact(tag,m3,m1)"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("recommendation = %q, want %q", got, want)
	}

	sess, _ := h.srv.reg.Get("snap")
	snap := sess.cont.window.Snapshot()
	if len(snap.C.Templates) >= snap.W.Len() {
		t.Fatalf("window of %d members in %d templates: nothing to compress", snap.W.Len(), len(snap.C.Templates))
	}
	wp, err := wscale.PrepareWindowed(snap, optimizer.New(sess.db), sess.cont.table)
	if err != nil {
		t.Fatal(err)
	}
	m, err := indexmerge.NewMergerOver(sess.db, wp)
	if err != nil {
		t.Fatal(err)
	}
	if pw, err := m.PreparedWorkload(); err != nil || pw != snap.PW {
		t.Errorf("PreparedWorkload = %p, %v; want the snapshot's own %p", pw, err, snap.PW)
	}
	if cw, err := m.CompressedWorkload(); err != nil || cw != wp {
		t.Errorf("CompressedWorkload = %p, %v; want the windowed form %p", cw, err, wp)
	}
}

// TestIngestBadStatementFoldsNothing: a batch is prepared as a whole
// before any of it folds, so one statement that cannot be prepared —
// here the third of five, among statements of one template that would
// bind to each other — is a 400 naming its position, and the window,
// the batch counter and the metrics are as they were. The same batch
// prepared as a registration fails the same way.
func TestIngestBadStatementFoldsNothing(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newContinuousSession(t, "live", 11)
	h.ingest(t, "live", fixtureSQL)
	before := h.continuousInfo(t, "live")

	bad := "SELECT k, m3 FROM fact WHERE k = 1\n" +
		"SELECT k, m3 FROM fact WHERE k = 2\n" +
		"SELECT k, nope FROM fact WHERE k = 3\n" +
		"SELECT k, m3 FROM fact WHERE k = 4\n" +
		"SELECT k, m3 FROM fact WHERE k = 5"
	var e ErrorResponse
	h.mustCall(t, "POST", "/v1/sessions/live/ingest", IngestRequest{SQL: bad}, &e, http.StatusBadRequest)
	if !strings.Contains(e.Error, "line 3") || !strings.Contains(e.Error, "nope") {
		t.Errorf("error %q does not name the third statement", e.Error)
	}
	h.mustCall(t, "POST", "/v1/sessions/live/workloads", RegisterWorkloadRequest{Name: "w", SQL: bad}, &e, http.StatusBadRequest)
	if !strings.Contains(e.Error, "line 3") {
		t.Errorf("registration error %q does not name the third statement", e.Error)
	}
	if after := h.continuousInfo(t, "live"); after.Batches != before.Batches || after.Statements != before.Statements ||
		after.WindowMembers != before.WindowMembers || after.WindowWeight != before.WindowWeight {
		t.Errorf("the refused batch changed the window: %+v, was %+v", after, before)
	}
	if m := h.metricsText(t); !strings.Contains(m, "idxmerged_ingest_batches_total 1\n") {
		t.Error("the refused batch was counted")
	}
	if resp := h.ingest(t, "live", strings.Replace(bad, "nope", "m3", 1)); resp.Batch != before.Batches+1 || resp.Statements != 5 {
		t.Errorf("the batch once mended = %+v, want batch %d of 5 statements", resp, before.Batches+1)
	}
}
