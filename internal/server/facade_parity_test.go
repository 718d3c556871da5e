package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"indexmerge"
	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/sql"
)

// runJob submits req to session, waits for the job and returns its
// final status and result; the job must end done.
func (h *testServer) runJob(t *testing.T, session string, req SubmitJobRequest) (JobStatus, JobResult) {
	t.Helper()
	var sub SubmitJobResponse
	h.mustCall(t, "POST", "/v1/sessions/"+session+"/jobs", req, &sub, http.StatusAccepted)
	st := h.waitTerminal(t, sub.ID)
	if st.State != string(JobDone) {
		t.Fatalf("job %s = %s (%s), want done", sub.ID, st.State, st.Error)
	}
	var res JobResult
	h.mustCall(t, "GET", "/v1/jobs/"+sub.ID+"/result", nil, &res, http.StatusOK)
	return st, res
}

// facadeResult makes, on a Merger of its own, the facade calls
// cmd/idxmerge makes for req and wraps the outcome as the job's result
// payload.
func facadeResult(t *testing.T, db *engine.Database, w *sql.Workload, req SubmitJobRequest) JobResult {
	t.Helper()
	ctx := context.Background()
	opts, err := BuildMergeOptions(req.Options)
	if err != nil {
		t.Fatal(err)
	}
	m, err := indexmerge.NewMerger(db, w)
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind == "tune" {
		defs, err := m.InitialConfiguration(ctx, 0, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		return JobResult{Tune: &TuneResultPayload{Indexes: NewIndexDefPayloads(defs), TotalBytes: db.ConfigurationBytes(defs)}}
	}
	initial := InitialSpec{N: 10}
	if req.Initial != nil {
		initial = *req.Initial
	}
	var defs []catalog.IndexDef
	if len(initial.Indexes) > 0 {
		defs, err = resolveDefs(&Session{db: db}, initial.Indexes)
	} else {
		defs, err = m.InitialConfiguration(ctx, initial.N, initial.Seed, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	var p MergeResultPayload
	if frac := req.Options.DualBudgetFrac; frac > 0 {
		res, err := m.MergeDualContext(ctx, defs, int64(float64(db.ConfigurationBytes(defs))*frac))
		if err != nil {
			t.Fatal(err)
		}
		p = NewDualResultPayload(res)
	} else {
		res, err := m.MergeDefsContext(ctx, defs, opts)
		if err != nil {
			t.Fatal(err)
		}
		p = NewMergeResultPayload(res)
	}
	return JobResult{Merge: &p}
}

// samePayload compares two job results' payloads byte for byte, modulo
// the wall clock.
func samePayload(t *testing.T, got, want JobResult) {
	t.Helper()
	encode := func(r JobResult) []byte {
		if r.Merge != nil {
			p := *r.Merge
			p.ElapsedSeconds = 0
			r.Merge = &p
		}
		b, _ := json.Marshal(struct{ Merge, Tune any }{r.Merge, r.Tune})
		return b
	}
	if gotJSON, wantJSON := encode(got), encode(want); !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("server job diverged from the facade calls:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestJobMatchesFacade: every way a job can choose its initial
// configuration and its search, under both optimizer-backed cost models,
// returns the payload the same facade calls return on a Merger built
// cold over a separately loaded copy of the fixture — what cmd/idxmerge
// -json prints. Each cell runs on a fresh session, so the registration's
// cost table starts as empty as the cold Merger's.
func TestJobMatchesFacade(t *testing.T) {
	h := newTestServer(t, Config{})
	spec := fixtureDB(t)
	db, err := engine.LoadSnapshotFile(strings.TrimPrefix(spec, "file:"))
	if err != nil {
		t.Fatal(err)
	}
	// Constant-varied duplicates, so templates are not queries.
	dupSQL := fixtureSQL +
		"\nSELECT d, m1 FROM fact WHERE d BETWEEN DATE(300) AND DATE(320)" +
		"\nSELECT k, m3 FROM fact WHERE k = 99"
	w, err := sql.ParseWorkload(strings.NewReader(dupSQL), db.Schema())
	if err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name string
		req  SubmitJobRequest
	}{
		{"explicit", SubmitJobRequest{Initial: &InitialSpec{Indexes: fixtureIndexes}}},
		{"n6", SubmitJobRequest{Initial: &InitialSpec{N: 6, Seed: 1}}},
		{"n0", SubmitJobRequest{Initial: &InitialSpec{N: 0}}},
		{"tune", SubmitJobRequest{Kind: "tune"}},
		{"dual", SubmitJobRequest{Options: JobOptions{DualBudgetFrac: 0.5}}}, // default initial: n = 10
	}
	for _, row := range rows {
		for _, model := range []string{"opt", "compressed"} {
			name := row.name + "-" + model
			t.Run(name, func(t *testing.T) {
				req := row.req
				req.Workload = "w"
				req.Options.Constraint = 0.3
				req.Options.CostModel = model
				h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: name, DB: spec}, nil, http.StatusCreated)
				h.mustCall(t, "POST", "/v1/sessions/"+name+"/workloads",
					RegisterWorkloadRequest{Name: "w", SQL: dupSQL}, nil, http.StatusCreated)
				_, got := h.runJob(t, name, req)
				want := facadeResult(t, db, w, req)
				samePayload(t, got, want)
				if (got.Tune == nil) == (got.Merge == nil) {
					t.Fatalf("result carries %v / %v, want exactly one payload", got.Merge, got.Tune)
				}
				if got.Merge != nil && row.name != "dual" && len(got.Merge.Steps) == 0 {
					t.Error("merge accepted no steps; the row has no teeth")
				}
			})
		}
	}
}

// TestCompressedTuneJobReusesRegistration: the registration's compressed
// form is the one a job tunes from. Preparing and compressing the
// workload is most of what registering it allocates, so a compressed tune
// job that quietly did both again would allocate about as much as the
// registration did (0.82 of it before the registration owned the
// Merger); tuning 40 representatives from the registration's own form is
// a small fraction. A whole-workload compressed merge job then returns
// what the facade calls return on a cold Merger.
func TestCompressedTuneJobReusesRegistration(t *testing.T) {
	h := newTestServer(t, Config{})
	h.mustCall(t, "POST", "/v1/sessions",
		CreateSessionRequest{Name: "s", DB: "synthetic1", Scale: 0.1, Seed: 1}, nil, http.StatusCreated)

	gen := &GenerateSpec{Class: "complex", Queries: 40, Seed: 12, Duplication: 2000, Disjunctions: true}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.mustCall(t, "POST", "/v1/sessions/s/workloads",
		RegisterWorkloadRequest{Name: "w", Generate: gen}, nil, http.StatusCreated)
	runtime.ReadMemStats(&after)
	registration := int64(after.Mallocs - before.Mallocs)

	compressed := JobOptions{CostModel: "compressed"}
	st, res := h.runJob(t, "s", SubmitJobRequest{Kind: "tune", Workload: "w", Options: compressed})
	if res.Tune == nil || len(res.Tune.Indexes) == 0 {
		t.Fatalf("tune result = %+v", res)
	}
	t.Logf("mallocs: registration %d, compressed tune job %d (%.2f)",
		registration, st.Allocs, float64(st.Allocs)/float64(registration))
	if st.Allocs <= 0 || st.Allocs*4 >= registration {
		t.Errorf("compressed tune job made %d mallocs, registering the workload %d: want under a quarter (the job prepared the workload again)",
			st.Allocs, registration)
	}

	req := SubmitJobRequest{Workload: "w", Initial: &InitialSpec{N: 0}, Options: compressed}
	_, got := h.runJob(t, "s", req)
	db, err := datagen.BuildNamed("synthetic1", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorkload(&Session{db: db}, "", gen)
	if err != nil {
		t.Fatal(err)
	}
	samePayload(t, got, facadeResult(t, db, w, req))
}
