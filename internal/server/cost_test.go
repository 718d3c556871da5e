package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"
)

// optimizerCallsLine is the /metrics line of the optimizer calls the
// daemon's jobs and costing requests made.
var optimizerCallsLine = regexp.MustCompile(`(?m)^idxmerged_optimizer_calls_total (\d+)$`)

// optimizerCallsTotal reads idxmerged_optimizer_calls_total from /metrics.
func (h *testServer) optimizerCallsTotal(t *testing.T) int64 {
	t.Helper()
	m := optimizerCallsLine.FindStringSubmatch(h.metricsText(t))
	if m == nil {
		t.Fatal("idxmerged_optimizer_calls_total missing from /metrics")
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// costBody posts a costing request and returns the response body. It
// reports failure as an error, so that any goroutine may call it.
func (h *testServer) costBody(session string, req CostRequest) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := h.ts.Client().Post(h.ts.URL+"/v1/sessions/"+session+"/cost", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("cost: status %d: %s", resp.StatusCode, body)
	}
	return body, err
}

// TestCostCountsTheCallsItMakes: idxmerged_optimizer_calls_total grows
// by the optimizer calls a costing request made, not by the workload's
// length. A request for the configuration a finished job ended on reads
// the cells the job left and makes none; a request repeated makes none
// the second time.
func TestCostCountsTheCallsItMakes(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "s")
	st, res := h.runJob(t, "s", SubmitJobRequest{
		Workload: "w",
		Initial:  &InitialSpec{Indexes: fixtureIndexes},
		Options:  JobOptions{Constraint: 0.3},
	})
	// A job's calls reach the metric just after its terminal state is
	// visible.
	deadline := time.Now().Add(5 * time.Second)
	for h.optimizerCallsTotal(t) != st.Progress.OptimizerCalls {
		if time.Now().After(deadline) {
			t.Fatalf("idxmerged_optimizer_calls_total = %d, want the job's %d", h.optimizerCallsTotal(t), st.Progress.OptimizerCalls)
		}
		time.Sleep(time.Millisecond)
	}
	if res.Merge == nil || len(res.Merge.Steps) == 0 {
		t.Fatalf("the job merged nothing (%+v); the fixture has no teeth", res.Merge)
	}

	before := h.optimizerCallsTotal(t)
	h.mustCall(t, "POST", "/v1/sessions/s/cost", CostRequest{Workload: "w", Indexes: res.Merge.Final}, nil, http.StatusOK)
	if n := h.optimizerCallsTotal(t) - before; n != 0 {
		t.Errorf("costing the job's final configuration made %d optimizer calls, want 0", n)
	}

	unseen := CostRequest{Workload: "w", Indexes: []IndexDefPayload{
		{Table: "fact", Columns: []string{"m3", "k"}},
		{Table: "fact", Columns: []string{"tag"}},
	}}
	before = h.optimizerCallsTotal(t)
	h.mustCall(t, "POST", "/v1/sessions/s/cost", unseen, nil, http.StatusOK)
	first := h.optimizerCallsTotal(t) - before
	if first == 0 {
		t.Fatal("a configuration no job priced made no optimizer call; the fixture has no teeth")
	}
	before = h.optimizerCallsTotal(t)
	h.mustCall(t, "POST", "/v1/sessions/s/cost", unseen, nil, http.StatusOK)
	if n := h.optimizerCallsTotal(t) - before; n != 0 {
		t.Errorf("the same request a second time made %d optimizer calls, want 0 (%d the first time)", n, first)
	}
}

// orderQuery is a TPC-D statement whose intersection arms, under the
// seven indexes of orderIndexes, tie on selectivity; the arm cap keeps
// the first four of them in key order, whatever order the optimizer is
// handed them in.
const orderQuery = `SELECT lineitem.l_discount, SUM(lineitem.l_linenumber), SUM(lineitem.l_tax) FROM lineitem WHERE lineitem.l_orderkey >= 8224 AND lineitem.l_quantity >= 47 GROUP BY lineitem.l_discount ORDER BY lineitem.l_discount`

// orderIndexes lists the indexes in definition-key order.
var orderIndexes = []IndexDefPayload{
	{Table: "lineitem", Columns: []string{"l_orderkey"}},
	{Table: "lineitem", Columns: []string{"l_orderkey", "l_comment", "l_partkey"}},
	{Table: "lineitem", Columns: []string{"l_orderkey", "l_extendedprice", "l_shipmode", "l_suppkey", "l_tax"}},
	{Table: "lineitem", Columns: []string{"l_orderkey", "l_partkey", "l_tax"}},
	{Table: "lineitem", Columns: []string{"l_orderkey", "l_shipinstruct", "l_linenumber", "l_partkey", "l_shipdate"}},
	{Table: "lineitem", Columns: []string{"l_quantity", "l_commitdate", "l_orderkey"}},
	{Table: "lineitem", Columns: []string{"l_quantity", "l_partkey", "l_tax"}},
}

// TestCostIsOrderInvariant: one configuration listed in two orders is
// one answer, byte for byte. An optimizer that broke the arms' tie in
// list order priced orderQuery at 1111.4035 in key order and 1129.4030
// in the order below; the cost table's cell is one cell for either
// order of the request.
func TestCostIsOrderInvariant(t *testing.T) {
	h := newTestServer(t, Config{})
	h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: "t", DB: "tpcd", Scale: 3, Seed: 1}, nil, http.StatusCreated)
	perm := []int{1, 2, 0, 3, 4, 5, 6}
	shuffled := make([]IndexDefPayload, len(perm))
	for i, k := range perm {
		shuffled[i] = orderIndexes[k]
	}
	// Each order first, on a registration of its own: the second request
	// must not merely read the cell the first one left.
	var bodies [][]byte
	for i, orders := range [][][]IndexDefPayload{{orderIndexes, shuffled}, {shuffled, orderIndexes}} {
		name := fmt.Sprintf("q%d", i)
		h.mustCall(t, "POST", "/v1/sessions/t/workloads", RegisterWorkloadRequest{Name: name, SQL: orderQuery}, nil, http.StatusCreated)
		for _, defs := range orders {
			body, err := h.costBody("t", CostRequest{Workload: name, Indexes: defs})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	for _, body := range bodies[1:] {
		if !bytes.Equal(body, bodies[0]) {
			t.Errorf("one configuration, two orders, two answers:\n%s\n%s", bodies[0], body)
		}
	}
}

// TestCostCellsBoundedAndAccounted: the cells a costing request fills
// live in the registration's table, so they are held to its bound and
// counted in the session's accounted bytes; so are the index
// definitions the request names, which the engine keeps for the
// registration's life.
func TestCostCellsBoundedAndAccounted(t *testing.T) {
	const tableMax = 3
	h := newTestServer(t, Config{CacheMaxEntries: tableMax})
	h.newSession(t, "s")
	sess, _ := h.srv.reg.Get("s")
	rw, _ := sess.workloadEntry("w")
	accounted := func() int64 {
		var info SessionInfo
		h.mustCall(t, "GET", "/v1/sessions/s", nil, &info, http.StatusOK)
		return info.AccountedBytes
	}

	empty := accounted()
	for i := range fixtureIndexes {
		h.mustCall(t, "POST", "/v1/sessions/s/cost", CostRequest{Workload: "w", Indexes: fixtureIndexes[i:]}, nil, http.StatusOK)
		if n := rw.compressed.TableLen(); n == 0 || n > tableMax {
			t.Fatalf("after request %d the table holds %d cells, want 1..%d", i, n, tableMax)
		}
	}
	if got := accounted(); got <= empty {
		t.Errorf("accounted bytes %d after costing requests, %d before", got, empty)
	}

	// Definitions the engine has not met, many more than the table holds
	// cells: what the request leaves behind is accounted in full.
	var many []IndexDefPayload
	cols := []string{"d", "k", "m1", "m2", "m3", "tag", "pad"}
	for _, a := range cols {
		for _, b := range cols {
			if a != b {
				many = append(many, IndexDefPayload{Table: "fact", Columns: []string{a, b}})
			}
		}
	}
	before, table0, memo0 := accounted(), rw.compressed.TableBytes(), rw.compressed.IndexBytes()
	h.mustCall(t, "POST", "/v1/sessions/s/cost", CostRequest{Workload: "w", Indexes: many}, nil, http.StatusOK)
	if n := rw.compressed.TableLen(); n > tableMax {
		t.Errorf("the table holds %d cells, want at most %d", n, tableMax)
	}
	memo := rw.compressed.IndexBytes() - memo0
	if memo < int64(len(many))*pricedIndexBytesFloor {
		t.Errorf("the engine accounts %d bytes for %d new definitions, want at least %d each", memo, len(many), pricedIndexBytesFloor)
	}
	if got, want := accounted()-before, rw.compressed.TableBytes()-table0+memo; got != want {
		t.Errorf("accounted bytes grew by %d, want the table's growth plus the engine's definitions, %d", got, want)
	}
	// A definition is accounted once, however often it is named.
	memo0 = rw.compressed.IndexBytes()
	h.mustCall(t, "POST", "/v1/sessions/s/cost", CostRequest{Workload: "w", Indexes: many[:len(many)/2]}, nil, http.StatusOK)
	if n := rw.compressed.IndexBytes() - memo0; n != 0 {
		t.Errorf("naming known definitions again accounted %d more bytes", n)
	}
}

// pricedIndexBytesFloor is less than any definition's accounted size.
const pricedIndexBytesFloor = 128

// TestCostBesideAJob: costing requests share the registration's engine
// with a running job. Requests from several goroutines and the job read
// and fill the one table at once (run it under -race); every answer is
// the one a quiet registration gives, and the job's result is the one it
// reaches alone.
func TestCostBesideAJob(t *testing.T) {
	h := newTestServer(t, Config{})
	h.newSession(t, "quiet")
	h.newSession(t, "busy")
	var reqs []CostRequest
	for i := range fixtureIndexes {
		reqs = append(reqs, CostRequest{Workload: "w", Indexes: fixtureIndexes[i:]}, CostRequest{Workload: "w", Indexes: fixtureIndexes[:i+1]})
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		var err error
		if want[i], err = h.costBody("quiet", req); err != nil {
			t.Fatal(err)
		}
	}
	alone := h.mergeJob(t, "quiet", "w", "opt")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + 3*g) % len(reqs)
				if got, err := h.costBody("busy", reqs[i]); err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("request %d beside a job: %s (%v), quiet registration %s", i, got, err, want[i])
				}
			}
		}(g)
	}
	busy := h.mergeJob(t, "busy", "w", "opt")
	wg.Wait()
	alone.OptimizerCalls, alone.ElapsedSeconds, busy.OptimizerCalls, busy.ElapsedSeconds = 0, 0, 0, 0
	gotJSON, _ := json.Marshal(busy)
	wantJSON, _ := json.Marshal(alone)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("the job beside costing requests diverged:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

// BenchmarkCostRequest times POST /v1/sessions/{name}/cost through the
// HTTP stack on the fixture workload: cold, on a registration whose cost
// table is empty, so every template is a miss, and warm, on one whose
// cells an earlier request filled. optcalls/op is the optimizer calls a
// request made: 5 cold (one per template), 0 warm, and a warm request
// that makes one fails the benchmark.
func BenchmarkCostRequest(b *testing.B) {
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			h := newTestServer(b, Config{})
			h.newSession(b, "s")
			req := CostRequest{Workload: "w", Indexes: fixtureIndexes}
			register := RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL, Replace: true}
			h.mustCall(b, "POST", "/v1/sessions/s/cost", req, nil, http.StatusOK)
			var calls int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					b.StopTimer()
					h.mustCall(b, "POST", "/v1/sessions/s/workloads", register, nil, http.StatusCreated)
					b.StartTimer()
				}
				before := h.srv.metrics.optimizerCalls.Load()
				h.mustCall(b, "POST", "/v1/sessions/s/cost", req, nil, http.StatusOK)
				calls += h.srv.metrics.optimizerCalls.Load() - before
			}
			if warm && calls != 0 {
				b.Fatalf("%d warm requests made %d optimizer calls, want 0", b.N, calls)
			}
			b.ReportMetric(float64(calls)/float64(b.N), "optcalls/op")
		})
	}
}
