package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"indexmerge"
	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/faults"
	"indexmerge/internal/server/quota"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// ---- fixture -------------------------------------------------------

// fixtureSQL is the test workload: five queries over a fact/dim pair
// with known index overlap (two fact indexes share the d prefix).
const fixtureSQL = `SELECT d, m1 FROM fact WHERE d BETWEEN DATE(100) AND DATE(110)
SELECT d, m2 FROM fact WHERE d BETWEEN DATE(200) AND DATE(215)
SELECT k, m3 FROM fact WHERE k = 17
SELECT tag, m1 FROM fact WHERE tag = 'red'
SELECT name, m1 FROM fact, dim WHERE fact.k = dim.k AND dim.k = 3`

// fixtureIndexes is an initial configuration with mergeable overlap.
var fixtureIndexes = []IndexDefPayload{
	{Table: "fact", Columns: []string{"d", "m1"}},
	{Table: "fact", Columns: []string{"d", "m2"}},
	{Table: "fact", Columns: []string{"k", "m3"}},
	{Table: "fact", Columns: []string{"tag", "m1"}},
	{Table: "dim", Columns: []string{"k", "name"}},
}

var (
	fixtureOnce sync.Once
	fixturePath string // "file:..." DB spec for CreateSessionRequest
	fixtureErr  error
)

// fixtureDB builds a small analyzed database once, snapshots it, and
// returns the file: spec sessions are created from.
func fixtureDB(t testing.TB) string {
	t.Helper()
	fixtureOnce.Do(func() {
		db := engine.NewDatabase()
		if fixtureErr = db.CreateTable(catalog.MustNewTable("fact", []catalog.Column{
			{Name: "d", Type: value.Date},
			{Name: "k", Type: value.Int},
			{Name: "m1", Type: value.Float},
			{Name: "m2", Type: value.Float},
			{Name: "m3", Type: value.Float},
			{Name: "tag", Type: value.String, Width: 6},
			{Name: "pad", Type: value.String, Width: 60},
		})); fixtureErr != nil {
			return
		}
		if fixtureErr = db.CreateTable(catalog.MustNewTable("dim", []catalog.Column{
			{Name: "k", Type: value.Int},
			{Name: "name", Type: value.String, Width: 12},
		})); fixtureErr != nil {
			return
		}
		rng := rand.New(rand.NewSource(21))
		tags := []string{"red", "green", "blue", "black"}
		for i := 0; i < 200; i++ {
			db.Insert("dim", value.Row{value.NewInt(int64(i)), value.NewString("name")})
		}
		for i := 0; i < 10000; i++ {
			db.Insert("fact", value.Row{
				value.NewDate(rng.Int63n(1000)),
				value.NewInt(rng.Int63n(200)),
				value.NewFloat(rng.Float64()),
				value.NewFloat(rng.Float64()),
				value.NewFloat(rng.Float64()),
				value.NewString(tags[rng.Intn(4)]),
				value.NewString("padding"),
			})
		}
		db.AnalyzeAll()
		dir, err := os.MkdirTemp("", "idxmerged-test")
		if err != nil {
			fixtureErr = err
			return
		}
		path := filepath.Join(dir, "fixture.snap")
		if fixtureErr = db.SaveSnapshotFile(path); fixtureErr == nil {
			fixturePath = "file:" + path
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixturePath
}

// directMerge runs the same merge the server executes, through the
// same facade, on a separately loaded copy of the fixture — the
// batch-CLI reference a job result must match byte for byte.
func directMerge(t *testing.T, opts indexmerge.MergeOptions) MergeResultPayload {
	t.Helper()
	db, err := engine.LoadSnapshotFile(strings.TrimPrefix(fixturePath, "file:"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sql.ParseWorkload(strings.NewReader(fixtureSQL), db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	m, err := indexmerge.NewMerger(db, w)
	if err != nil {
		t.Fatal(err)
	}
	defs := make([]catalog.IndexDef, len(fixtureIndexes))
	for i, p := range fixtureIndexes {
		if defs[i], err = catalog.NewIndexDef(db.Schema(), p.Name, p.Table, p.Columns); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewMergeResultPayload(res)
}

// ---- harness -------------------------------------------------------

type testServer struct {
	srv *Server
	ts  *httptest.Server
}

func newTestServer(t testing.TB, cfg Config) *testServer {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return &testServer{srv: srv, ts: ts}
}

// call issues a JSON request and decodes the response into out (when
// non-nil), returning the HTTP status.
func (h *testServer) call(t testing.TB, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		if s, ok := body.(string); ok {
			rd = strings.NewReader(s)
		} else {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
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

// mustCall is call with a required status.
func (h *testServer) mustCall(t testing.TB, method, path string, body, out any, want int) {
	t.Helper()
	if got := h.call(t, method, path, body, out); got != want {
		t.Fatalf("%s %s: status %d, want %d", method, path, got, want)
	}
}

// newSession creates a fixture-backed session with a registered
// workload named "w".
func (h *testServer) newSession(t testing.TB, name string) {
	t.Helper()
	h.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: name, DB: fixtureDB(t)}, nil, http.StatusCreated)
	h.mustCall(t, "POST", "/v1/sessions/"+name+"/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil, http.StatusCreated)
}

// submitJob submits a merge job over the canonical fixture initial
// configuration and returns the job ID.
func (h *testServer) submitJob(t *testing.T, session string) string {
	t.Helper()
	var resp SubmitJobResponse
	h.mustCall(t, "POST", "/v1/sessions/"+session+"/jobs", SubmitJobRequest{
		Workload: "w",
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
		Options:  JobOptions{Constraint: 0.3},
	}, &resp, http.StatusAccepted)
	return resp.ID
}

// waitTerminal polls a job until it leaves queued/running.
func (h *testServer) waitTerminal(t *testing.T, id string) JobStatus {
	t.Helper()
	return h.pollTerminal(t, id, 5*time.Millisecond)
}

// pollTerminal is waitTerminal with the pause between polls given; at 0
// the caller acts as soon after the terminal state became visible as a
// client can.
func (h *testServer) pollTerminal(t *testing.T, id string, pause time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		h.mustCall(t, "GET", "/v1/jobs/"+id, nil, &st, http.StatusOK)
		if JobState(st.State).terminal() {
			return st
		}
		time.Sleep(pause)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobStatus{}
}

// park submits the fixture job on session and returns once it is
// running and held mid-search (gateHook): it keeps its session's lock
// and a worker until release is called.
func (h *testServer) park(t *testing.T, session string) (id string, release func()) {
	t.Helper()
	sig, release := gateHook(h.srv)
	t.Cleanup(release)
	id = h.submitJob(t, session)
	select {
	case <-sig:
	case <-time.After(30 * time.Second):
		t.Fatal("the parked job never reported progress")
	}
	return id, release
}

// ---- tests ---------------------------------------------------------

// TestWriteJSONRefusedValueIs500: a value encoding/json refuses is a
// 500 with an ErrorResponse that says why, not the caller's status over
// an empty body; any other value is the caller's status and the
// encoder's indented text.
func TestWriteJSONRefusedValueIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, CostResponse{Cost: math.NaN()})
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil ||
		!strings.Contains(er.Error, "unsupported value: NaN") {
		t.Fatalf("NaN cost: %d %q (%v)", rec.Code, rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, CostResponse{Cost: 2.5})
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(CostResponse{Cost: 2.5}); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusCreated || rec.Body.String() != want.String() {
		t.Fatalf("finite cost: %d %q, want %d %q", rec.Code, rec.Body.String(), http.StatusCreated, want.String())
	}
}

func TestSessionLifecycle(t *testing.T) {
	h := newTestServer(t, Config{})
	db := fixtureDB(t)

	var info SessionInfo
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "s1", DB: db}, &info, http.StatusCreated)
	if info.Name != "s1" || info.Tables != 2 || info.DataBytes <= 0 {
		t.Fatalf("session info = %+v", info)
	}
	// Duplicate name conflicts; invalid inputs are 400s.
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "s1", DB: db}, nil, http.StatusConflict)
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "bad name!", DB: db}, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "s2", DB: "nope"}, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions", `{"name": `, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions", `{"name": "x", "db": "tpcd", "bogus": 1}`, nil, http.StatusBadRequest)

	var list []SessionInfo
	h.mustCall(t, "GET", "/v1/sessions", nil, &list, http.StatusOK)
	if len(list) != 1 || list[0].Name != "s1" {
		t.Fatalf("list = %+v", list)
	}
	h.mustCall(t, "GET", "/v1/sessions/s1", nil, &info, http.StatusOK)
	h.mustCall(t, "GET", "/v1/sessions/nope", nil, nil, http.StatusNotFound)

	h.mustCall(t, "DELETE", "/v1/sessions/s1", nil, nil, http.StatusOK)
	h.mustCall(t, "GET", "/v1/sessions/s1", nil, nil, http.StatusNotFound)
	h.mustCall(t, "DELETE", "/v1/sessions/s1", nil, nil, http.StatusNotFound)
}

// TestFailedSessionBuildFreesTheName: a create whose database build
// fails — refused by the builder or panicking inside it — gives back
// the name's reservation and the tenant's session slot, so the same
// name is created by the next request that can be built.
func TestFailedSessionBuildFreesTheName(t *testing.T) {
	defer faults.Reset()
	h := newTestServer(t, Config{Quota: quota.Limits{MaxSessions: 1}})
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "x", DB: "synthetic1", Scale: 1e300}, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "x", DB: "synthetic1", Scale: 1}, nil, http.StatusCreated)
	h.mustCall(t, "DELETE", "/v1/sessions/x", nil, nil, http.StatusOK)

	faults.Install(faults.Rule{ID: "build", Point: faults.StatsSample, Mode: faults.ModePanic, Count: 1})
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "y", DB: "synthetic1", Scale: 0.1}, nil, http.StatusInternalServerError)
	if faults.Fired("build") != 1 {
		t.Fatal("the build panic never fired")
	}
	faults.Reset()
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "y", DB: "synthetic1", Scale: 0.1}, nil, http.StatusCreated)
}

func TestWorkloadsAndSyncCost(t *testing.T) {
	h := newTestServer(t, Config{})
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "s", DB: fixtureDB(t)}, nil, http.StatusCreated)

	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil, http.StatusCreated)
	// A registered name is rebound only by a request that says replace.
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil, http.StatusConflict)
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "bad", SQL: "SELECT nope FROM nowhere"}, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "both", SQL: "x", Generate: &GenerateSpec{}}, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "neither"}, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "badclass", Generate: &GenerateSpec{Class: "zig"}}, nil, http.StatusBadRequest)

	var wls []WorkloadInfo
	h.mustCall(t, "GET", "/v1/sessions/s/workloads", nil, &wls, http.StatusOK)
	if len(wls) != 1 || wls[0].Name != "w" || wls[0].Queries != 5 {
		t.Fatalf("workloads = %+v", wls)
	}

	// Synchronous what-if costing: more indexes can only help.
	var bare, indexed CostResponse
	h.mustCall(t, "POST", "/v1/sessions/s/cost",
		CostRequest{Workload: "w"}, &bare, http.StatusOK)
	h.mustCall(t, "POST", "/v1/sessions/s/cost",
		CostRequest{Workload: "w", Indexes: fixtureIndexes}, &indexed, http.StatusOK)
	if bare.Cost <= 0 || indexed.Cost <= 0 || indexed.Cost > bare.Cost {
		t.Fatalf("costs: bare %v, indexed %v", bare.Cost, indexed.Cost)
	}
	h.mustCall(t, "POST", "/v1/sessions/s/cost",
		CostRequest{Workload: "nope"}, nil, http.StatusNotFound)
	h.mustCall(t, "POST", "/v1/sessions/s/cost",
		CostRequest{Workload: "w", Indexes: []IndexDefPayload{{Table: "fact", Columns: []string{"ghost"}}}},
		nil, http.StatusBadRequest)
}

func TestJobValidation(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")

	bad := []SubmitJobRequest{
		{Kind: "explode", Workload: "w"},
		{Workload: "w", Options: JobOptions{MergePair: "zig"}},
		{Workload: "w", Options: JobOptions{Search: "zag"}},
		{Workload: "w", Options: JobOptions{CostModel: "zog"}},
		{Workload: "w", Options: JobOptions{DualBudgetFrac: 1.5}},
		{Workload: "w", Options: JobOptions{Constraint: -0.5}},
		{Workload: "w", Initial: &InitialSpec{Indexes: []IndexDefPayload{{Table: "ghost", Columns: []string{"x"}}}}},
		{Workload: "w", Initial: &InitialSpec{N: -3}},
		{Kind: "tune", Workload: "w", Initial: &InitialSpec{N: -1}},
	}
	for i, req := range bad {
		if got := h.call(t, "POST", "/v1/sessions/s/jobs", req, nil); got != http.StatusBadRequest {
			t.Errorf("bad request %d: status %d, want 400", i, got)
		}
	}
	// A refusal names what is accepted.
	for body, want := range map[string]string{
		`{"workload":"w","initial":{"n":-3}}`:               "want n > 0, or 0 to tune the whole workload",
		`{"workload":"w","options":{"dual_budget_frac":1}}`: "out of range [0, 1)",
		`{"workload":"w","options":{"constraint":-0.5}}`:    "constraint -0.5 out of range [0, +Inf)",
	} {
		var resp ErrorResponse
		h.mustCall(t, "POST", "/v1/sessions/s/jobs", body, &resp, http.StatusBadRequest)
		if !strings.Contains(resp.Error, want) {
			t.Errorf("%s: error %q does not say %q", body, resp.Error, want)
		}
	}
	var jobs []JobStatus
	if h.mustCall(t, "GET", "/v1/jobs", nil, &jobs, http.StatusOK); len(jobs) != 0 {
		t.Errorf("refused requests left %d job records", len(jobs))
	}
	h.mustCall(t, "POST", "/v1/sessions/s/jobs", SubmitJobRequest{Workload: "nope"}, nil, http.StatusNotFound)
	h.mustCall(t, "POST", "/v1/sessions/s/jobs", `{"kind":`, nil, http.StatusBadRequest)
	h.mustCall(t, "POST", "/v1/sessions/nope/jobs", SubmitJobRequest{Workload: "w"}, nil, http.StatusNotFound)

	h.mustCall(t, "GET", "/v1/jobs/nope", nil, nil, http.StatusNotFound)
	h.mustCall(t, "POST", "/v1/jobs/nope/cancel", nil, nil, http.StatusNotFound)
	h.mustCall(t, "GET", "/v1/jobs/nope/result", nil, nil, http.StatusNotFound)
}

// TestBuildMergeOptionsRefuses: every value the option table refuses is
// an error that names what is accepted — never a silent default — and
// the zero value of each knob is accepted.
func TestBuildMergeOptionsRefuses(t *testing.T) {
	for _, c := range []struct {
		name string
		o    JobOptions
		want string
	}{
		{"mergepair", JobOptions{MergePair: "zig"}, `unknown mergepair "zig" (want cost, syntactic or exhaustive)`},
		{"search", JobOptions{Search: "zag"}, `unknown search "zag" (want greedy or exhaustive)`},
		{"costmodel", JobOptions{CostModel: "zog"}, `unknown costmodel "zog" (want opt, nocost, prefilter or compressed)`},
		{"dual below", JobOptions{DualBudgetFrac: -0.1}, "dual_budget_frac -0.1 out of range [0, 1)"},
		{"dual at 1", JobOptions{DualBudgetFrac: 1}, "dual_budget_frac 1 out of range [0, 1)"},
		{"dual NaN", JobOptions{DualBudgetFrac: math.NaN()}, "dual_budget_frac NaN out of range [0, 1)"},
		{"constraint", JobOptions{Constraint: -0.5}, "constraint -0.5 out of range [0, +Inf) (0 selects the default)"},
		{"constraint NaN", JobOptions{Constraint: math.NaN()}, "constraint NaN out of range [0, +Inf) (0 selects the default)"},
		{"constraint +Inf", JobOptions{Constraint: math.Inf(1)}, "constraint +Inf out of range [0, +Inf) (0 selects the default)"},
		{"nocost_f", JobOptions{NoCostF: -0.6}, "nocost_f -0.6 out of range [0, +Inf) (0 selects the default)"},
		{"nocost_p", JobOptions{NoCostP: -0.25}, "nocost_p -0.25 out of range [0, +Inf) (0 selects the default)"},
	} {
		if _, err := BuildMergeOptions(c.o); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := BuildMergeOptions(JobOptions{}); err != nil {
		t.Errorf("zero options refused: %v", err)
	}
}

// TestMergeJobMatchesDirectRun is the tentpole acceptance check: a
// merge job through the HTTP API returns the byte-identical result of
// the same merge through the facade (what cmd/idxmerge -json prints),
// modulo wall-clock elapsed time.
func TestMergeJobMatchesDirectRun(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")

	id := h.submitJob(t, "s")
	st := h.waitTerminal(t, id)
	if st.State != string(JobDone) {
		t.Fatalf("job state %s (error %q), want done", st.State, st.Error)
	}
	if st.Progress.Steps == 0 || st.Progress.SavedBytes <= 0 {
		t.Fatalf("job progress %+v: expected accepted merge steps", st.Progress)
	}
	var res JobResult
	h.mustCall(t, "GET", "/v1/jobs/"+id+"/result", nil, &res, http.StatusOK)
	if res.State != string(JobDone) || res.Merge == nil {
		t.Fatalf("result = %+v", res)
	}

	want := directMerge(t, indexmerge.MergeOptions{CostConstraint: 0.3})
	got := *res.Merge
	got.ElapsedSeconds, want.ElapsedSeconds = 0, 0
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("server job diverged from direct run:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if len(want.Steps) == 0 {
		t.Error("fixture merge accepted no steps; test has no teeth")
	}
}

// TestJobsOneSessionSerialized submits two jobs to one session on a
// two-worker pool and verifies their running intervals do not overlap
// (the session lock serializes them) while both complete.
func TestJobsOneSessionSerialized(t *testing.T) {
	h := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	h.newSession(t, "s")

	id1 := h.submitJob(t, "s")
	id2 := h.submitJob(t, "s")
	st1 := h.waitTerminal(t, id1)
	st2 := h.waitTerminal(t, id2)
	if st1.State != string(JobDone) || st2.State != string(JobDone) {
		t.Fatalf("states = %s / %s, want done/done", st1.State, st2.State)
	}
	overlap := st1.StartedAt.Before(*st2.FinishedAt) && st2.StartedAt.Before(*st1.FinishedAt)
	if overlap {
		t.Errorf("jobs on one session ran concurrently: [%v, %v] and [%v, %v]",
			st1.StartedAt, st1.FinishedAt, st2.StartedAt, st2.FinishedAt)
	}

	var all []JobStatus
	h.mustCall(t, "GET", "/v1/jobs", nil, &all, http.StatusOK)
	if len(all) != 2 || all[0].ID != id1 || all[1].ID != id2 {
		t.Errorf("job list = %+v", all)
	}
}

// gateHook wires a progress hook that signals (once) when a job has
// consumed at least one evaluation and then blocks the search until
// released — making "cancel while mid-search" deterministic.
func gateHook(srv *Server) (signaled <-chan string, release func()) {
	sig := make(chan string, 1)
	gate := make(chan struct{})
	var once, relOnce sync.Once
	srv.jobs.progressHook = func(id string, p ProgressPayload) {
		if p.CostEvaluations > 0 {
			once.Do(func() { sig <- id })
			<-gate
		}
	}
	return sig, func() { relOnce.Do(func() { close(gate) }) }
}

// TestCancelMidSearch cancels a running merge job and verifies it
// terminates as canceled having consumed strictly fewer cost
// evaluations than a full run — and that the session stays usable:
// the rerun completes and matches the direct result.
func TestCancelMidSearch(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	sig, release := gateHook(h.srv)
	defer release()
	h.newSession(t, "s")

	full := directMerge(t, indexmerge.MergeOptions{CostConstraint: 0.3})
	if full.CostEvaluations < 2 {
		t.Fatalf("fixture too small: %d evaluations", full.CostEvaluations)
	}

	id := h.submitJob(t, "s")
	select {
	case got := <-sig:
		if got != id {
			t.Fatalf("progress from job %s, want %s", got, id)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never reported progress")
	}
	var st JobStatus
	h.mustCall(t, "GET", "/v1/jobs/"+id, nil, &st, http.StatusOK)
	if st.State != string(JobRunning) {
		t.Fatalf("state %s while gated, want running", st.State)
	}
	// Result is unavailable while running.
	h.mustCall(t, "GET", "/v1/jobs/"+id+"/result", nil, nil, http.StatusConflict)

	h.mustCall(t, "POST", "/v1/jobs/"+id+"/cancel", nil, nil, http.StatusAccepted)
	release()
	st = h.waitTerminal(t, id)
	if st.State != string(JobCanceled) {
		t.Fatalf("state %s after cancel, want canceled", st.State)
	}
	if st.Progress.CostEvaluations == 0 || st.Progress.CostEvaluations >= full.CostEvaluations {
		t.Errorf("canceled job consumed %d evaluations, want in [1, %d)",
			st.Progress.CostEvaluations, full.CostEvaluations)
	}

	// The session is reusable after cancellation; the rerun's final
	// configuration matches the direct run (counters may differ — the
	// registration's cost table is warm from the canceled attempt).
	id2 := h.submitJob(t, "s")
	st2 := h.waitTerminal(t, id2)
	if st2.State != string(JobDone) {
		t.Fatalf("rerun state %s (error %q), want done", st2.State, st2.Error)
	}
	var res JobResult
	h.mustCall(t, "GET", "/v1/jobs/"+id2+"/result", nil, &res, http.StatusOK)
	got := *res.Merge
	got.ElapsedSeconds, got.OptimizerCalls = 0, 0
	want := full
	want.ElapsedSeconds, want.OptimizerCalls = 0, 0
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("rerun diverged from direct run:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestBackpressure fills the 1-worker, 1-slot queue and verifies the
// third submission bounces with 429, queued jobs cancel instantly,
// and the gated first job still completes.
func TestBackpressure(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	sig, release := gateHook(h.srv)
	defer release()
	h.newSession(t, "s")

	id1 := h.submitJob(t, "s")
	select {
	case <-sig: // job-1 is running and parked on the gate
	case <-time.After(30 * time.Second):
		t.Fatal("job-1 never reported progress")
	}
	id2 := h.submitJob(t, "s") // fills the queue slot

	var errResp ErrorResponse
	h.mustCall(t, "POST", "/v1/sessions/s/jobs", SubmitJobRequest{
		Workload: "w",
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
	}, &errResp, http.StatusTooManyRequests)
	if !strings.Contains(errResp.Error, "queue full") {
		t.Errorf("429 body = %+v", errResp)
	}

	// A queued job cancels immediately, without waiting for a worker.
	var st JobStatus
	h.mustCall(t, "POST", "/v1/jobs/"+id2+"/cancel", nil, &st, http.StatusAccepted)
	if st.State != string(JobCanceled) {
		t.Errorf("queued job state after cancel = %s, want canceled", st.State)
	}

	release()
	if st := h.waitTerminal(t, id1); st.State != string(JobDone) {
		t.Errorf("job-1 state %s (error %q), want done", st.State, st.Error)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	h.mustCall(t, "POST", "/v1/sessions/s/jobs", SubmitJobRequest{
		Workload: "w",
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
	}, nil, http.StatusServiceUnavailable)
}

func TestMetricsEndpoint(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	id := h.submitJob(t, "s")
	h.waitTerminal(t, id)

	resp, err := h.ts.Client().Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, series := range []string{
		`idxmerged_http_requests_total{route="POST /v1/sessions",code="201"} 1`,
		`idxmerged_jobs_total{state="done"} 1`,
		"idxmerged_jobs_submitted_total 1",
		"idxmerged_sessions 1",
		"idxmerged_optimizer_calls_total",
		"idxmerged_search_seconds_bucket",
		`idxmerged_search_seconds_bucket{le="+Inf"} 1`,
		`idxmerged_http_route_seconds_count{route="POST /v1/sessions"} 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
	// No series is labeled by session (the registration's cost table is
	// in its JSON), and none repeats another: the sum over routes, the
	// deadline count beside jobs_total's.
	for _, gone := range []string{"idxmerged_costcache_", "idxmerged_prepared_reuse_", "session=",
		"idxmerged_http_request_seconds", "idxmerged_deadline_exceeded_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics output has a %s series:\n%s", gone, grepLines(text, gone))
		}
	}
	var infos []WorkloadInfo
	h.mustCall(t, "GET", "/v1/sessions/s/workloads", nil, &infos, http.StatusOK)
	if len(infos) != 1 || infos[0].CostTableEntries == 0 || infos[0].CostTableMisses == 0 {
		t.Errorf("workloads after a job = %+v, want its cost table's cells", infos)
	}
}

// TestParallelClients is the -race smoke: N clients hammer sessions,
// workloads, jobs, cancels and metrics concurrently.
func TestParallelClients(t *testing.T) {
	h := newTestServer(t, Config{Workers: 4, QueueCap: 64})
	db := fixtureDB(t)
	for i := 0; i < 3; i++ {
		h.newSession(t, fmt.Sprintf("s%d", i))
	}

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := fmt.Sprintf("s%d", c%3)
			// Racing duplicate creates: exactly 409 or 201.
			if code := h.call(t, "POST", "/v1/sessions",
				CreateSessionRequest{Name: sess, DB: db}, nil); code != http.StatusConflict {
				t.Errorf("duplicate create returned %d", code)
			}
			var resp SubmitJobResponse
			code := h.call(t, "POST", "/v1/sessions/"+sess+"/jobs", SubmitJobRequest{
				Workload: "w",
				Initial:  &InitialSpec{Indexes: fixtureIndexes},
				Options:  JobOptions{Constraint: 0.3, Parallelism: 2},
			}, &resp)
			if code != http.StatusAccepted && code != http.StatusTooManyRequests {
				t.Errorf("submit returned %d", code)
				return
			}
			if code == http.StatusAccepted {
				if c%2 == 0 {
					h.call(t, "POST", "/v1/jobs/"+resp.ID+"/cancel", nil, nil)
				}
				h.waitTerminal(t, resp.ID)
			}
			h.call(t, "GET", "/v1/jobs", nil, nil)
			h.call(t, "GET", "/v1/sessions", nil, nil)
			if _, err := h.ts.Client().Get(h.ts.URL + "/metrics"); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()

	// Every job must have reached a terminal state with a coherent
	// status; canceled-or-done is client-race dependent, failed is not.
	var all []JobStatus
	h.mustCall(t, "GET", "/v1/jobs", nil, &all, http.StatusOK)
	for _, st := range all {
		if st.State == string(JobFailed) {
			t.Errorf("job %s failed: %s", st.ID, st.Error)
		}
	}
}

// TestCancelAfterCompletionReportsDone pins the cancel/complete
// interplay: cancelling a job that already finished must report the
// actual terminal state (done), not cancelled, and must not disturb
// the recorded progress or timestamps.
func TestCancelAfterCompletionReportsDone(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	id := h.submitJob(t, "s")
	done := h.waitTerminal(t, id)
	if done.State != string(JobDone) {
		t.Fatalf("job finished %s, want done", done.State)
	}

	var st JobStatus
	h.mustCall(t, "POST", "/v1/jobs/"+id+"/cancel", nil, &st, http.StatusAccepted)
	if st.State != string(JobDone) {
		t.Fatalf("cancel of a completed job reported %s, want done", st.State)
	}
	h.mustCall(t, "GET", "/v1/jobs/"+id, nil, &st, http.StatusOK)
	if st.State != string(JobDone) || st.Error != "" {
		t.Fatalf("status after late cancel = %s (%q), want done", st.State, st.Error)
	}
	if st.Progress != done.Progress {
		t.Errorf("progress changed after late cancel: %+v -> %+v", done.Progress, st.Progress)
	}
	if st.FinishedAt == nil || !st.FinishedAt.Equal(*done.FinishedAt) {
		t.Errorf("finishedAt changed after late cancel: %v -> %v", done.FinishedAt, st.FinishedAt)
	}
	// The terminal result is still the done payload.
	var res JobResult
	h.mustCall(t, "GET", "/v1/jobs/"+id+"/result", nil, &res, http.StatusOK)
	if res.State != string(JobDone) || res.Merge == nil {
		t.Fatalf("result after late cancel = %+v", res)
	}
}

// TestCanceledQueuedJobNeverResurrects reproduces the job-status race:
// a second worker blocks in the session-lock wait while job1 runs;
// job2 is canceled in that window (terminal, metrics counted); then
// job1 finishes and frees the lock. acquire's select may still hand
// the lock to the canceled job — before the fix the worker then
// overwrote the terminal state with "running" (status regression) and
// finished the job a second time (double-counted metrics). The
// canceled job must stay canceled, never report running or a start
// time, and count exactly once in the canceled metric.
func TestCanceledQueuedJobNeverResurrects(t *testing.T) {
	for i := 0; i < 5; i++ {
		t.Run(fmt.Sprintf("round-%d", i), func(t *testing.T) {
			h := newTestServer(t, Config{Workers: 2, QueueCap: 8})
			sig, release := gateHook(h.srv)
			defer release()
			h.newSession(t, "s")

			id1 := h.submitJob(t, "s")
			select {
			case <-sig:
			case <-time.After(30 * time.Second):
				t.Fatal("job1 never reported progress")
			}
			// job1 is running and holds the session lock; job2's worker
			// will block inside acquire.
			id2 := h.submitJob(t, "s")
			time.Sleep(20 * time.Millisecond) // let worker 2 reach acquire
			var st JobStatus
			h.mustCall(t, "POST", "/v1/jobs/"+id2+"/cancel", nil, &st, http.StatusAccepted)
			if st.State != string(JobCanceled) {
				t.Fatalf("cancel reported %s, want canceled", st.State)
			}

			release()
			if st1 := h.waitTerminal(t, id1); st1.State != string(JobDone) {
				t.Fatalf("job1 finished %s, want done", st1.State)
			}
			// The session lock is now free; give the blocked worker time
			// to (wrongly) take it. job2 must remain canceled throughout.
			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				h.mustCall(t, "GET", "/v1/jobs/"+id2, nil, &st, http.StatusOK)
				if st.State != string(JobCanceled) {
					t.Fatalf("canceled job resurrected to %s", st.State)
				}
				if st.StartedAt != nil {
					t.Fatalf("canceled job acquired a start time: %v", st.StartedAt)
				}
				time.Sleep(10 * time.Millisecond)
			}

			resp, err := h.ts.Client().Get(h.ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			text := string(body)
			if !strings.Contains(text, `idxmerged_jobs_total{state="canceled"} 1`) {
				t.Errorf("canceled metric != 1 (double-counted terminal transition):\n%s",
					grepLines(text, "idxmerged_jobs_total"))
			}
			if !strings.Contains(text, `idxmerged_jobs_total{state="done"} 1`) {
				t.Errorf("done metric != 1:\n%s", grepLines(text, "idxmerged_jobs_total"))
			}
		})
	}
}

// grepLines returns the lines of text containing substr.
func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestRunJobDoesNotResurrectJobCanceledDuringAcquire pins the exact
// interleaving behind the resurrection race deterministically: a job
// reaches a terminal state while its worker is parked in
// Session.acquire waiting for the session lock, and the lock then
// frees up. acquire's select can take the lock even though the job is
// already finished; runJob must notice and bail instead of flipping
// the job back to running.
func TestRunJobDoesNotResurrectJobCanceledDuringAcquire(t *testing.T) {
	m := &Manager{
		metrics: NewMetrics(),
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		jobs:    make(map[string]*Job),
	}
	sess := &Session{name: "s", lock: make(chan struct{}, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ran := make(chan struct{}, 1)
	j := &Job{
		id:      "job-x",
		kind:    "merge",
		session: sess,
		ctx:     ctx,
		cancel:  cancel,
		run: func(context.Context, *Job) (*JobResult, error) {
			ran <- struct{}{}
			return &JobResult{}, nil
		},
		state:     JobQueued,
		createdAt: time.Now(),
	}

	// Another job holds the session lock, so runJob parks in acquire.
	sess.lock <- struct{}{}
	go func() {
		// While the worker waits: the job reaches a terminal state
		// (as Manager.Cancel's queued branch does), then the lock owner
		// releases. Not canceling ctx forces acquire to take the lock —
		// the worst-case resolution of acquire's select race.
		time.Sleep(20 * time.Millisecond)
		j.mu.Lock()
		now := time.Now()
		j.state = JobCanceled
		j.errMsg = context.Canceled.Error()
		j.finishedAt = &now
		j.mu.Unlock()
		sess.release()
	}()

	m.runJob(j)

	select {
	case <-ran:
		t.Fatal("resurrected: run executed after the job was canceled")
	default:
	}
	st := j.Status()
	if st.State != string(JobCanceled) {
		t.Fatalf("state = %q, want %q", st.State, JobCanceled)
	}
	if st.StartedAt != nil {
		t.Fatalf("StartedAt = %v, want nil (job never ran)", st.StartedAt)
	}
	// The session lock must have been released on the bail-out path.
	if !sess.tryAcquire() {
		t.Fatal("session lock leaked by the terminal-state bail-out")
	}
	sess.release()
}

// TestCompressedJobMatchesDirectRun: a merge job under costmodel
// "compressed" must return the byte-identical payload of the same
// compressed merge through the facade (modulo wall clock), and its
// final configuration must equal the plain cost model's — the
// compression is exact. Compression stats surface at registration, in
// the job status mirror, and in /metrics.
func TestCompressedJobMatchesDirectRun(t *testing.T) {
	h := newTestServer(t, Config{})
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "s", DB: fixtureDB(t)}, nil, http.StatusCreated)

	// Two constant-varied duplicates of fixture queries: 7 entries in 5
	// templates.
	dupSQL := fixtureSQL +
		"\nSELECT d, m1 FROM fact WHERE d BETWEEN DATE(300) AND DATE(320)" +
		"\nSELECT k, m3 FROM fact WHERE k = 99"
	var info WorkloadInfo
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "w", SQL: dupSQL}, &info, http.StatusCreated)
	if info.Queries != 7 || info.Templates != 5 {
		t.Fatalf("registration info = %+v, want 7 queries in 5 templates", info)
	}
	if got, want := info.DedupRatio, 7.0/5.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("dedup ratio = %v, want %v", got, want)
	}

	submit := func(costmodel string) MergeResultPayload {
		t.Helper()
		var resp SubmitJobResponse
		h.mustCall(t, "POST", "/v1/sessions/s/jobs", SubmitJobRequest{
			Workload: "w",
			Initial:  &InitialSpec{Indexes: fixtureIndexes},
			Options:  JobOptions{Constraint: 0.3, CostModel: costmodel},
		}, &resp, http.StatusAccepted)
		st := h.waitTerminal(t, resp.ID)
		if st.State != string(JobDone) {
			t.Fatalf("job state %s (error %q), want done", st.State, st.Error)
		}
		if costmodel == "compressed" {
			// The status mirrors the compression stats for pollers.
			if st.Templates != 5 || st.DedupRatio <= 1 {
				t.Errorf("status compression mirror missing: %+v", st)
			}
		}
		var res JobResult
		h.mustCall(t, "GET", "/v1/jobs/"+resp.ID+"/result", nil, &res, http.StatusOK)
		if res.Merge == nil {
			t.Fatalf("result = %+v", res)
		}
		return *res.Merge
	}

	plain := submit("")
	comp := submit("compressed")
	if comp.Templates != 5 || comp.DedupRatio <= 1 || comp.CostTableHits+comp.CostTableMisses == 0 {
		t.Errorf("compressed payload stats missing: templates=%d dedup=%v hits=%d misses=%d",
			comp.Templates, comp.DedupRatio, comp.CostTableHits, comp.CostTableMisses)
	}
	gotFinal, _ := json.Marshal(comp.Final)
	wantFinal, _ := json.Marshal(plain.Final)
	if !bytes.Equal(gotFinal, wantFinal) {
		t.Errorf("compressed final diverged from plain:\n got: %s\nwant: %s", gotFinal, wantFinal)
	}

	// The second compressed run hits the registration-shared cost table:
	// the search re-prices atoms already in the table from memory.
	again := submit("compressed")
	if again.CostTableMisses != 0 || again.CostTableHits == 0 {
		t.Errorf("repeat run: hits=%d misses=%d, want all hits", again.CostTableHits, again.CostTableMisses)
	}

	// The registration's listing carries its templates and its cost
	// table's counters, which include every job's.
	var infos []WorkloadInfo
	h.mustCall(t, "GET", "/v1/sessions/s/workloads", nil, &infos, http.StatusOK)
	if len(infos) != 1 || infos[0].Templates != 5 || infos[0].CostTableEntries == 0 ||
		infos[0].CostTableHits < again.CostTableHits || infos[0].CostTableMisses < comp.CostTableMisses {
		t.Errorf("workloads = %+v; jobs' table hits %d, %d, misses %d", infos,
			comp.CostTableHits, again.CostTableHits, comp.CostTableMisses)
	}
}

// TestGeneratedDuplicationCompresses: a generated workload with
// Duplication produces constant-varied duplicates that cluster into
// fewer templates than entries.
func TestGeneratedDuplicationCompresses(t *testing.T) {
	h := newTestServer(t, Config{})
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "s", DB: fixtureDB(t)}, nil, http.StatusCreated)
	var info WorkloadInfo
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "gen", Generate: &GenerateSpec{Queries: 5, Seed: 11, Duplication: 40}},
		&info, http.StatusCreated)
	if info.Queries <= 5 {
		t.Fatalf("duplication produced no extra entries: %+v", info)
	}
	if info.Templates == 0 || info.DedupRatio <= 1 {
		t.Fatalf("duplicated workload did not compress: %+v", info)
	}
}

// mergeJob runs the fixture's merge over workload on session under the
// cost model and returns its payload.
func (h *testServer) mergeJob(t *testing.T, session, workload, costModel string) MergeResultPayload {
	t.Helper()
	_, res := h.runJob(t, session, SubmitJobRequest{
		Workload: workload,
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
		Options:  JobOptions{Constraint: 0.3, CostModel: costModel},
	})
	if res.Merge == nil {
		t.Fatalf("job on %s/%s returned no merge payload", session, workload)
	}
	return *res.Merge
}

// TestWorkloadReplaceInvalidatesCostState: re-registering a workload
// name with Replace rebinds it to new queries and atomically
// invalidates every cost derived from the old ones — under either cost
// model a job over the replaced workload recomputes (cost-table misses,
// or optimizer calls, > 0) and matches a fresh session registered with
// the new queries from the start.
func TestWorkloadReplaceInvalidatesCostState(t *testing.T) {
	for _, model := range []string{"opt", "compressed"} {
		t.Run(model, func(t *testing.T) {
			h := newTestServer(t, Config{})
			h.newSession(t, "a")
			// computed is what a run had to cost rather than look up.
			computed := func(p MergeResultPayload) int64 {
				if model == "compressed" {
					return p.CostTableMisses
				}
				return p.OptimizerCalls
			}

			if first := h.mergeJob(t, "a", "w", model); computed(first) == 0 {
				t.Fatal("first job computed no cost; the fixture has no teeth")
			}

			// Rebind "w" to different queries. Without Replace this is a 409.
			h.mustCall(t, "POST", "/v1/sessions/a/workloads",
				RegisterWorkloadRequest{Name: "w", SQL: driftSQL}, nil, http.StatusConflict)
			var info WorkloadInfo
			h.mustCall(t, "POST", "/v1/sessions/a/workloads",
				RegisterWorkloadRequest{Name: "w", SQL: driftSQL, Replace: true}, &info, http.StatusCreated)
			if info.Queries != 4 {
				t.Fatalf("replaced workload info = %+v, want the 4 drift queries", info)
			}

			second := h.mergeJob(t, "a", "w", model)
			if computed(second) == 0 {
				t.Fatal("job over the replaced workload was costed entirely from stale state")
			}

			// Reference: a fresh session whose "w" held the new queries from
			// the start must produce the byte-identical payload.
			h.mustCall(t, "POST", "/v1/sessions",
				CreateSessionRequest{Name: "b", DB: fixtureDB(t)}, nil, http.StatusCreated)
			h.mustCall(t, "POST", "/v1/sessions/b/workloads",
				RegisterWorkloadRequest{Name: "w", SQL: driftSQL}, nil, http.StatusCreated)
			fresh := h.mergeJob(t, "b", "w", model)
			second.ElapsedSeconds, fresh.ElapsedSeconds = 0, 0
			gotJSON, _ := json.Marshal(second)
			wantJSON, _ := json.Marshal(fresh)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("replaced-workload job diverged from fresh session:\n got: %s\nwant: %s", gotJSON, wantJSON)
			}
		})
	}
}

// TestReplaceKeepsOtherWorkloadsCosts: a workload's plain-model cells
// belong to its registration. A repeated plain job prices from them
// alone, and replacing another workload of the session leaves them be.
func TestReplaceKeepsOtherWorkloadsCosts(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "other", SQL: fixtureSQL}, nil, http.StatusCreated)

	first := h.mergeJob(t, "s", "w", "opt")
	if first.OptimizerCalls == 0 {
		t.Fatal("first plain job made no optimizer calls; the fixture has no teeth")
	}
	if again := h.mergeJob(t, "s", "w", "opt"); again.OptimizerCalls != 0 {
		t.Errorf("repeated plain job made %d optimizer calls, want 0", again.OptimizerCalls)
	}
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "other", SQL: driftSQL, Replace: true}, nil, http.StatusCreated)
	after := h.mergeJob(t, "s", "w", "opt")
	if after.OptimizerCalls != 0 {
		t.Errorf("after replacing another workload, the plain job made %d optimizer calls, want 0", after.OptimizerCalls)
	}
	after.OptimizerCalls, after.ElapsedSeconds, first.OptimizerCalls, first.ElapsedSeconds = 0, 0, 0, 0
	gotJSON, _ := json.Marshal(after)
	wantJSON, _ := json.Marshal(first)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("the warm job diverged from the cold one:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestOptJobPricesCompressedCells: both optimizer-backed cost models
// price a registration through its one engine. A plain job run after a
// compressed one from the same explicit initial configuration decides
// what the compressed job decided from the cells it left, with no
// optimizer call, on a workload whose templates hold several statements.
func TestOptJobPricesCompressedCells(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	var info WorkloadInfo
	h.mustCall(t, "POST", "/v1/sessions/s/workloads", RegisterWorkloadRequest{Name: "dup", SQL: fixtureSQL +
		"\nSELECT d, m1 FROM fact WHERE d BETWEEN DATE(300) AND DATE(320)" +
		"\nSELECT k, m3 FROM fact WHERE k = 99"}, &info, http.StatusCreated)
	if info.DedupRatio <= 1 {
		t.Fatalf("workload info = %+v; want templates of several statements", info)
	}
	comp := h.mergeJob(t, "s", "dup", "compressed")
	if comp.OptimizerCalls == 0 || len(comp.Steps) == 0 {
		t.Fatalf("compressed job: %d optimizer calls, %d steps; the fixture has no teeth", comp.OptimizerCalls, len(comp.Steps))
	}
	plain := h.mergeJob(t, "s", "dup", "opt")
	if plain.OptimizerCalls != 0 {
		t.Errorf("plain job after a compressed one made %d optimizer calls, want 0", plain.OptimizerCalls)
	}
	gotJSON, _ := json.Marshal(struct{ Final, Steps any }{plain.Final, plain.Steps})
	wantJSON, _ := json.Marshal(struct{ Final, Steps any }{comp.Final, comp.Steps})
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("plain job diverged from the compressed one:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestPlainCellsAreAccountedAndEvicted: a plain job's cells live in the
// registration's cost table, so the session's accounted bytes count them
// and the brownout ladder's eviction drops them. The definitions the job
// interned stay in the table, and in its accounted bytes, for the
// table's life.
func TestPlainCellsAreAccountedAndEvicted(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	sess, _ := h.srv.reg.Get("s")
	rw, _ := sess.workloadEntry("w")
	empty := sess.accountedBytes()
	if n := rw.compressed.TableLen(); n != 0 {
		t.Fatalf("a fresh registration's table holds %d cells", n)
	}

	h.mergeJob(t, "s", "w", "opt")
	cells := rw.compressed.TableLen()
	if cells == 0 {
		t.Fatal("a plain job left no cell in the registration's table")
	}
	full := sess.accountedBytes()
	if full <= empty {
		t.Errorf("accounted bytes %d after a plain job, %d before", full, empty)
	}
	if dropped := sess.evictCold(cells); dropped != cells {
		t.Errorf("evictCold dropped %d of %d cells", dropped, cells)
	}
	if n, got := rw.compressed.TableLen(), sess.accountedBytes(); n != 0 || got <= empty || got >= full {
		t.Errorf("after eviction: %d cells, %d accounted bytes; want 0 cells, and bytes between the %d before the job (the interned text stays) and the %d with the cells",
			n, got, empty, full)
	}
}

// TestSessionsShareSnapshotUnderConcurrency pins the snapshot-cache
// contract: sessions created from the same database spec share one
// frozen database (built once, held by pointer), and concurrent jobs
// and costings on it are race-free and deterministic. Run with -race.
func TestSessionsShareSnapshotUnderConcurrency(t *testing.T) {
	h := newTestServer(t, Config{Workers: 4, QueueCap: 64})

	// First session builds and freezes the snapshot...
	h.newSession(t, "s0")
	if n := h.srv.reg.SnapshotReuses(); n != 0 {
		t.Fatalf("first session reported %d snapshot reuses", n)
	}
	// ...the rest acquire it concurrently.
	var wg sync.WaitGroup
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.newSession(t, fmt.Sprintf("s%d", i))
		}(i)
	}
	wg.Wait()
	if n := h.srv.reg.SnapshotReuses(); n != 3 {
		t.Errorf("snapshot reuses = %d, want 3", n)
	}

	// Concurrent sync costings and merge jobs across all four sessions:
	// one frozen database costed and searched by four sessions at once.
	results := make([]JobStatus, 4)
	payloads := make([]json.RawMessage, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := fmt.Sprintf("s%d", i)
			var cr CostResponse
			h.mustCall(t, "POST", "/v1/sessions/"+sess+"/cost",
				CostRequest{Workload: "w", Indexes: fixtureIndexes}, &cr, http.StatusOK)
			id := h.submitJob(t, sess)
			results[i] = h.waitTerminal(t, id)
			var res JobResult
			h.mustCall(t, "GET", "/v1/jobs/"+id+"/result", nil, &res, http.StatusOK)
			if res.Merge != nil {
				res.Merge.ElapsedSeconds = 0
				payloads[i], _ = json.Marshal(res.Merge)
			}
		}(i)
	}
	wg.Wait()
	for i, st := range results {
		if st.State != string(JobDone) {
			t.Fatalf("session s%d: job state %s (error %q)", i, st.State, st.Error)
		}
	}
	// One shared database: every session computes the byte-identical
	// recommendation.
	for i := 1; i < 4; i++ {
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Errorf("session s%d diverged:\n s0 %s\n s%d %s", i, payloads[0], i, payloads[i])
		}
	}
}

// TestSnapshotRefcountChurn: sessions over the same spec share one
// frozen snapshot, deleting the last holder evicts it, and repeated
// create/delete churn never accumulates resident snapshots.
func TestSnapshotRefcountChurn(t *testing.T) {
	h := newTestServer(t, Config{})
	db := fixtureDB(t)
	reg := h.srv.reg
	if n := reg.ResidentSnapshots(); n != 0 {
		t.Fatalf("fresh registry holds %d snapshots", n)
	}
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "s1", DB: db}, nil, http.StatusCreated)
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "s2", DB: db}, nil, http.StatusCreated)
	if n := reg.ResidentSnapshots(); n != 1 {
		t.Fatalf("two same-spec sessions hold %d snapshots, want 1 shared", n)
	}
	if reg.SnapshotReuses() == 0 {
		t.Error("second same-spec session did not reuse the snapshot")
	}
	// Both sessions hold the snapshot's one read-only database.
	s1, _ := reg.Get("s1")
	s2, _ := reg.Get("s2")
	if s1.db != s2.db {
		t.Error("same-spec sessions hold different databases")
	}
	if _, err := s1.db.CreateIndex(catalog.IndexDef{Name: "x", Table: "fact", Columns: []string{"k"}}); !errors.Is(err, engine.ErrFrozen) {
		t.Errorf("CreateIndex on a session's database: got %v, want ErrFrozen", err)
	}
	reg.snaps.mu.Lock()
	snap := reg.snaps.entries[s1.snapKey].snap
	reg.snaps.mu.Unlock()
	if snap.DB() != s1.db {
		t.Error("session database is not the cached snapshot's")
	}
	h.mustCall(t, "DELETE", "/v1/sessions/s1", nil, nil, http.StatusOK)
	if n := reg.ResidentSnapshots(); n != 1 {
		t.Fatalf("snapshot evicted while still referenced (resident %d)", n)
	}
	h.mustCall(t, "DELETE", "/v1/sessions/s2", nil, nil, http.StatusOK)
	if n := reg.ResidentSnapshots(); n != 0 {
		t.Fatalf("%d snapshots leaked after the last holder was deleted", n)
	}

	for i := 0; i < 8; i++ {
		h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "churn", DB: db}, nil, http.StatusCreated)
		if n := reg.ResidentSnapshots(); n != 1 {
			t.Fatalf("cycle %d: resident %d, want 1", i, n)
		}
		h.mustCall(t, "DELETE", "/v1/sessions/churn", nil, nil, http.StatusOK)
		if n := reg.ResidentSnapshots(); n != 0 {
			t.Fatalf("cycle %d: resident %d after delete, want 0", i, n)
		}
	}
}
