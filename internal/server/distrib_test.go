package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"indexmerge/internal/distrib"
	"indexmerge/internal/engine"
)

// startFixtureWorkers spins n distrib workers over one frozen copy of
// the test fixture — the same database file sessions are created from,
// so fingerprints agree with the coordinator's.
func startFixtureWorkers(t *testing.T, n int) []string {
	t.Helper()
	db, err := engine.LoadSnapshotFile(strings.TrimPrefix(fixtureDB(t), "file:"))
	if err != nil {
		t.Fatal(err)
	}
	db.Snapshot()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(distrib.NewWorker(db).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestDistributedJobMatchesLocalJob is the payload-level determinism
// check: the same merge job run on a worker-pool-backed server and on
// a plain one must serialize to byte-identical JSON (modulo elapsed
// time), because remote costing must leave no trace in results.
func TestDistributedJobMatchesLocalJob(t *testing.T) {
	local := newTestServer(t, Config{})
	dist := newTestServer(t, Config{CostWorkers: startFixtureWorkers(t, 2)})

	for _, model := range []string{"", "compressed"} {
		name := model
		if name == "" {
			name = "opt"
		}
		t.Run(name, func(t *testing.T) {
			payloads := make([]json.RawMessage, 2)
			for i, h := range []*testServer{local, dist} {
				sess := fmt.Sprintf("s-%s-%d", name, i)
				h.newSession(t, sess)
				var resp SubmitJobResponse
				h.mustCall(t, "POST", "/v1/sessions/"+sess+"/jobs", SubmitJobRequest{
					Workload: "w",
					Initial:  &InitialSpec{Indexes: fixtureIndexes},
					Options:  JobOptions{Constraint: 0.3, CostModel: model},
				}, &resp, http.StatusAccepted)
				st := h.waitTerminal(t, resp.ID)
				if st.State != string(JobDone) {
					t.Fatalf("server %d: job state %s (error %q)", i, st.State, st.Error)
				}
				var res JobResult
				h.mustCall(t, "GET", "/v1/jobs/"+resp.ID+"/result", nil, &res, http.StatusOK)
				res.Merge.ElapsedSeconds = 0
				b, err := json.Marshal(res.Merge)
				if err != nil {
					t.Fatal(err)
				}
				payloads[i] = b
			}
			if !bytes.Equal(payloads[0], payloads[1]) {
				t.Errorf("distributed job payload diverged from local:\nlocal %s\ndist  %s", payloads[0], payloads[1])
			}
		})
	}

	// The pool must actually have been used, and its activity must show
	// up in /metrics — on the coordinator, never in job payloads.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	dist.srv.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{"idxmerged_pool_workers 2", "idxmerged_pool_workers_healthy 2"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(body, "idxmerged_remote_batches_total 0\n") {
		t.Error("metrics report zero remote batches; worker pool was never used")
	}
	if st := dist.srv.pool.PoolStats(); st.Batches == 0 || st.RPCErrors != 0 {
		t.Errorf("pool stats %+v: expected clean remote batches", st)
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
