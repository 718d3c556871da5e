package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"indexmerge"
	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/server"
	"indexmerge/internal/sql"
)

// daemonSpec sizes a workload that drives idxmerged over HTTP: one
// server with a real journal per round, one session, Cycles advisory
// cycles, then a restart on the journal.
type daemonSpec struct {
	DB           string
	Scale        float64
	Templates    int
	Disjunctions bool
	Cycles       int
	Constraint   float64

	// Job cycles: register Statements lines of SQL, submit a
	// compressed merge job from InitialN tuned indexes, fetch the result.
	Statements int
	InitialN   int

	// Continuous cycles, when Batches > 0: ingest Batches batches of
	// BatchStatements lines drawn from ActiveTemplates templates, the
	// active range sliding by Slide templates per cycle, then retune.
	Batches, BatchStatements int
	ActiveTemplates, Slide   int

	// CostRequests per cycle go to a reference workload of one
	// statement per template, registered after set-up, and rotate over
	// CostSubsets subsets of SubsetSize indexes of a RefIndexes-index
	// configuration tuned for it.
	CostRequests, CostSubsets, SubsetSize, RefIndexes int
}

func (s *daemonSpec) continuous() bool { return s.Batches > 0 }

const (
	sessionName = "bench"
	refWorkload = "reference"
	pollEvery   = time.Millisecond
)

type daemonWorkload struct {
	spec daemonSpec
	tr   *tracer
	dir  string // journals live here

	// The generator samples constants from its own copy of the
	// session's database; refDefs is tuned once on that copy.
	gen     *generator
	refText string
	refDefs []catalog.IndexDef

	// writes are the round's state-changing requests, kept for the
	// traced run (see traceWithoutJournal); collected says that the
	// heap was collected since the last of them.
	writes    []write
	collected bool
}

// calibrate is rec.calibrate, whose collection is remembered for the
// next write.
func (d *daemonWorkload) calibrate(rec *recorder) {
	rec.calibrate()
	d.collected = true
}

func newDaemonWorkload(spec daemonSpec, seed int64, tr *tracer, dir string) (*daemonWorkload, error) {
	db, err := datagen.BuildNamed(spec.DB, spec.Scale, corpusDBSeed)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(db, spec.Templates, spec.Disjunctions)
	if err != nil {
		return nil, err
	}
	d := &daemonWorkload{spec: spec, tr: tr, dir: dir, gen: gen}
	d.refText = gen.text(subRNG(seed, -1, 0), 0, spec.Templates, spec.Templates, 0)
	w, err := sql.ParseWorkload(strings.NewReader(d.refText), db.Schema())
	if err != nil {
		return nil, err
	}
	d.refDefs, err = advisor.BuildInitialConfiguration(advisor.New(db, optimizer.New(db)), w, spec.RefIndexes, initialSeed)
	return d, err
}

// daemon is one running server behind a loopback listener.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
}

func startDaemon(journal string) (*daemon, error) {
	srv, err := server.New(server.Config{
		Workers:     1,
		JournalPath: journal,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	// One keep-alive connection: the benchmark is a single closed-loop
	// client that waits for each reply.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return &daemon{srv: srv, ts: ts, hc: hc}, nil
}

func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Drain(ctx)
}

// stop stops the round's daemon between two timings of the calibration
// kernel, which should not differ: the daemon is idle.
func (d *daemonWorkload) stop(dm *daemon, rec *recorder) error {
	beside := rec.calibrate()
	err := dm.stop()
	rec.sample("calibration.beside_daemon_pct", 100*(beside/rec.calibrate()-1))
	return err
}

// caller issues the benchmark's requests to one daemon, one span each.
type caller struct {
	d   *daemon
	tr  *tracer
	rec *recorder
}

// call sends one request and decodes the reply into out when the
// status is the wanted one; anything else fails the operation.
func (c *caller) call(span, method, path string, in, out any, want int) ([]byte, time.Duration, bool) {
	var body []byte
	var status int
	start := time.Now()
	err := c.tr.do(span, func() error {
		var rd io.Reader
		if in != nil {
			data, err := json.Marshal(in)
			if err != nil {
				return err
			}
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, c.d.ts.URL+path, rd)
		if err != nil {
			return err
		}
		resp, err := c.d.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		return err
	})
	took := time.Since(start)
	if err == nil && status == want && out != nil {
		err = json.Unmarshal(body, out)
	}
	ok := c.rec.op(err == nil && status == want, "%s %s: status %d (want %d), error %v: %.200s", method, path, status, want, err, body)
	return body, took, ok
}

// adviseMetric keeps traced operations apart from untraced ones.
func (c *caller) adviseMetric() string {
	if c.tr != nil {
		return "traced_advise_s"
	}
	return "advise_s"
}

func sessionPath(rest string) string { return "/v1/sessions/" + sessionName + rest }

func (d *daemonWorkload) createSession(name string, continuous bool) server.CreateSessionRequest {
	req := server.CreateSessionRequest{Name: name, DB: d.spec.DB, Scale: d.spec.Scale, Seed: corpusDBSeed}
	if continuous {
		req.Continuous = &server.ContinuousSpec{Seed: 1, Constraint: d.spec.Constraint}
	}
	return req
}

// write posts one state-changing request, remembers it for the traced
// run and records its latency under metric when it succeeds.
func (d *daemonWorkload) write(c *caller, span string, wr write, out any) (time.Duration, bool) {
	wr.afterCollect, d.collected = d.collected, false
	d.writes = append(d.writes, wr)
	_, took, ok := c.call(span, "POST", wr.path, wr.body, out, wr.want)
	if ok && wr.metric != "" {
		c.rec.millis(wr.metric, took)
	}
	return took, ok
}

// awaitJob polls a job to a terminal state, as a client would, and
// also returns how long it slept between polls.
func (c *caller) awaitJob(id string) (st server.JobStatus, slept time.Duration, ok bool) {
	for {
		if _, _, ok := c.call("server.poll", "GET", "/v1/jobs/"+id, nil, &st, http.StatusOK); !ok {
			return st, slept, false
		}
		if !pending(st) {
			return st, slept, c.rec.op(st.State == string(server.JobDone), "job %s ended %s: %s", id, st.State, st.Error)
		}
		start := time.Now()
		time.Sleep(pollEvery)
		slept += time.Since(start)
	}
}

func pending(st server.JobStatus) bool {
	return st.State == string(server.JobQueued) || st.State == string(server.JobRunning)
}

// costRequests times n synchronous costing requests on the reference
// workload and returns the last answer.
func (c *caller) costRequests(subsets [][]catalog.IndexDef, first, n int) float64 {
	var resp server.CostResponse
	for i := first; i < first+n; i++ {
		req := server.CostRequest{Workload: refWorkload, Indexes: server.NewIndexDefPayloads(subsets[i%len(subsets)])}
		if _, took, ok := c.call("server.cost", "POST", sessionPath("/cost"), req, &resp, http.StatusOK); ok {
			c.rec.latency("cost_req_p50_us", took)
		}
	}
	return resp.Cost
}

func (d *daemonWorkload) round(ctx context.Context, seed int64, round int, rec *recorder) error {
	s := &d.spec
	dir, err := os.MkdirTemp(d.dir, "round-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal.jsonl")
	rec.calibrate()

	// Set-up: a fresh daemon on an empty journal to a created session.
	start := time.Now()
	dm, err := startDaemon(journal)
	if err != nil {
		return err
	}
	// A traced run traces every other round, which gives the tracing
	// overhead from one run.
	tr := d.tr
	if round%2 == 0 {
		tr = nil
	}
	c := &caller{d: dm, tr: tr, rec: rec}
	tr.nextOp()
	_, took, ok := c.call("server.session_create", "POST", "/v1/sessions", d.createSession(sessionName, s.continuous()), nil, http.StatusCreated)
	if !ok {
		_ = dm.stop()
		return fmt.Errorf("session creation failed: %v", rec.failures)
	}
	rec.seconds("setup_s", time.Since(start))
	rec.millis("server.session_create_ms", took)
	d.calibrate(rec)
	d.writes = d.writes[:0]
	d.write(c, "server.register", write{path: sessionPath("/workloads"), want: http.StatusCreated,
		body: server.RegisterWorkloadRequest{Name: refWorkload, SQL: d.refText}}, nil)
	subsets := costSubsets(subRNG(seed, round, -1), d.refDefs, s.CostSubsets, s.SubsetSize)

	for cycle := 0; cycle < s.Cycles; cycle++ {
		d.calibrate(rec)
		tr.nextOp()
		if s.continuous() {
			d.driftCycle(c, seed, round, cycle)
		} else {
			d.jobCycle(ctx, c, seed, round, cycle)
		}
		// The cycle's garbage is not the cost requests' to collect.
		runtime.GC()
		c.costRequests(subsets, cycle*s.CostRequests, s.CostRequests)
	}
	rec.calibrate()
	rec.sample("live_heap_mb", liveHeapMB())
	if d.tr != nil {
		if err := d.traceLayers(ctx, c, journal, subsets); err != nil {
			_ = dm.stop()
			return err
		}
	}

	// Restart on the journal: ready means the first costing request is
	// answered, and the recovered state must be the state left behind.
	before := d.observe(c, subsets[0])
	if err := d.stop(dm, rec); err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	start = time.Now()
	dm, err = startDaemon(journal)
	if err != nil {
		return fmt.Errorf("restart on journal: %w", err)
	}
	rec.millis("server.replay_ms", time.Since(start))
	c.d = dm
	tr.nextOp()
	cost := c.costRequests(subsets, 0, 1)
	rec.seconds("restart_ready_s", time.Since(start))
	rec.calibrate()
	after := d.observe(c, subsets[0])
	rec.op(cost == before.cost && reflect.DeepEqual(before, after),
		"state after restart differs:\nbefore %+v\nafter  %+v (first cost %v)", before, after, cost)
	if err := d.stop(dm, rec); err != nil {
		return err
	}
	if d.tr != nil {
		return d.traceWithoutJournal(rec, subsets)
	}
	return nil
}

// observed is the state a restart must preserve.
type observed struct {
	cost      float64
	workloads []string
	applied   []server.IndexDefPayload
	jobs      map[string]string // id -> state
}

func (d *daemonWorkload) observe(c *caller, subset []catalog.IndexDef) observed {
	var o observed
	var cost server.CostResponse
	c.call("server.cost", "POST", sessionPath("/cost"), server.CostRequest{Workload: refWorkload, Indexes: server.NewIndexDefPayloads(subset)}, &cost, http.StatusOK)
	o.cost = cost.Cost
	var info server.SessionInfo
	c.call("server.session_info", "GET", sessionPath(""), nil, &info, http.StatusOK)
	o.workloads = info.Workloads
	if info.Continuous != nil {
		o.applied = info.Continuous.Applied
	}
	var jobs []server.JobStatus
	c.call("server.jobs_list", "GET", "/v1/jobs", nil, &jobs, http.StatusOK)
	o.jobs = map[string]string{}
	for _, j := range jobs {
		o.jobs[j.ID] = j.State
	}
	return o
}

// jobCycle registers a fresh workload by SQL text, runs a compressed
// merge job on it and fetches the result.
func (d *daemonWorkload) jobCycle(ctx context.Context, c *caller, seed int64, round, cycle int) {
	s, rec := &d.spec, c.rec
	text := d.gen.text(subRNG(seed, round, cycle), 0, s.Templates, s.Statements, 0)
	name := fmt.Sprintf("w%d", cycle)

	took, ok := d.write(c, "server.register", write{path: sessionPath("/workloads"), want: http.StatusCreated,
		body: server.RegisterWorkloadRequest{Name: name, SQL: text}, metric: "server.register_ms", sql: text}, nil)
	if !ok {
		return
	}
	rec.rate("ingest_stmts_per_s", float64(s.Statements), took)

	submit := server.SubmitJobRequest{
		Workload: name,
		Initial:  &server.InitialSpec{N: s.InitialN, Seed: initialSeed},
		Options:  server.JobOptions{Constraint: s.Constraint, CostModel: "compressed", Parallelism: 1},
	}
	var result server.JobResult
	var body []byte
	var status server.JobStatus
	var slept time.Duration
	start := time.Now()
	alloc, _ := allocDelta(func() error {
		return c.tr.do("advise", func() error {
			var accepted server.SubmitJobResponse
			if _, _, ok = c.call("server.submit", "POST", sessionPath("/jobs"), submit, &accepted, http.StatusAccepted); !ok {
				return nil
			}
			if status, slept, ok = c.awaitJob(accepted.ID); !ok {
				return nil
			}
			body, _, ok = c.call("server.result", "GET", "/v1/jobs/"+accepted.ID+"/result", nil, &result, http.StatusOK)
			return nil
		})
	})
	took = time.Since(start)
	if !ok || !rec.op(result.Merge != nil, "job result without merge payload: %.200s", body) {
		return
	}
	rec.seconds(c.adviseMetric(), took)
	rec.count("advise_alloc_mb", float64(alloc)/(1<<20))
	rec.count("storage_reduction_pct", result.Merge.StorageReductionPct)
	rec.count("core.cost_increase_pct", result.Merge.CostIncreasePct)
	recordJob(rec, status, took, slept)
	recordMerge(rec, result.Merge)

	// The recommendation, re-costed through the costing endpoint, must
	// stay within the constraint.
	var initial, final server.CostResponse
	c.call("server.cost", "POST", sessionPath("/cost"), server.CostRequest{Workload: name, Indexes: result.Merge.Initial}, &initial, http.StatusOK)
	c.call("server.cost", "POST", sessionPath("/cost"), server.CostRequest{Workload: name, Indexes: result.Merge.Final}, &final, http.StatusOK)
	rec.op(final.Cost > 0 && final.Cost <= initial.Cost*(1+s.Constraint)*(1+1e-9) && closeTo(final.Cost, result.Merge.FinalCost),
		"re-costed recommendation: %v -> %v, result says %v -> %v", initial.Cost, final.Cost, result.Merge.InitialCost, result.Merge.FinalCost)

	// Once per round, the same input through the in-process facade must
	// give the same result bytes.
	if cycle == 0 {
		b := batchSpec{InitialN: s.InitialN, Constraint: s.Constraint, Compressed: true}
		opts := b.options()
		opts.Resilience = &indexmerge.ResilienceOptions{} // jobs run resilient by default
		a, err := b.advise(ctx, d.gen.db, text, opts)
		served, _ := json.Marshal(result.Merge)
		rec.op(err == nil && bytes.Equal(stripElapsed(a.payload), stripElapsed(served)),
			"daemon result differs from in-process facade result (error %v)", err)
	}
}

// driftCycle streams the cycle's batches into the window, runs one
// re-tune cycle and reads the applied configuration back.
func (d *daemonWorkload) driftCycle(c *caller, seed int64, round, cycle int) {
	s, rec := &d.spec, c.rec
	// The active template range slides, so each retune meets shapes the
	// window has not seen and cannot skip its search.
	lo := cycle * s.Slide
	for b := 0; b < s.Batches; b++ {
		text := d.gen.text(subRNG(seed, round, cycle*s.Batches+b), lo, lo+s.ActiveTemplates, s.BatchStatements, 0)
		var resp server.IngestResponse
		took, ok := d.write(c, "server.ingest", write{path: sessionPath("/ingest"), want: http.StatusOK,
			body: server.IngestRequest{SQL: text}, metric: "server.ingest_req_ms", sql: text}, &resp)
		if ok && rec.op(resp.Statements > 0 && !resp.Shed, "ingest folded nothing: %+v", resp) {
			rec.rate("ingest_stmts_per_s", float64(s.BatchStatements), took)
		}
	}

	// The journal-less replay of a traced run must retune here too: an
	// applied configuration makes every later ingest cost its batch.
	d.writes = append(d.writes, write{path: sessionPath("/retune"), want: http.StatusAccepted, job: true})
	var result server.JobResult
	var info server.SessionInfo
	var status server.JobStatus
	var slept time.Duration
	ok := false
	start := time.Now()
	alloc, _ := allocDelta(func() error {
		return c.tr.do("advise", func() error {
			var accepted server.SubmitJobResponse
			if _, _, ok = c.call("server.submit", "POST", sessionPath("/retune"), nil, &accepted, http.StatusAccepted); !ok {
				return nil
			}
			if status, slept, ok = c.awaitJob(accepted.ID); !ok {
				return nil
			}
			if _, _, ok = c.call("server.result", "GET", "/v1/jobs/"+accepted.ID+"/result", nil, &result, http.StatusOK); !ok {
				return nil
			}
			_, _, ok = c.call("server.session_info", "GET", sessionPath(""), nil, &info, http.StatusOK)
			return nil
		})
	})
	took := time.Since(start)
	if !ok || !rec.op(result.Retune != nil && info.Continuous != nil, "retune result or continuous state missing") {
		return
	}
	rt := result.Retune
	// A skipped cycle did no advisory work; the sliding range is meant
	// to rule it out.
	if !rec.op(!rt.Skipped && len(rt.Indexes) > 0, "retune skipped or recommended nothing: %+v", rt) {
		return
	}
	rec.op(!rt.Applied || reflect.DeepEqual(info.Continuous.Applied, rt.Indexes),
		"applied configuration is not the recommendation")
	rec.op(rt.EstCost > 0 && (!rt.Applied || rt.EstCost < rt.CurrentCost),
		"applied a recommendation that does not cost less: %v -> %v", rt.CurrentCost, rt.EstCost)
	rec.seconds(c.adviseMetric(), took)
	rec.count("advise_alloc_mb", float64(alloc)/(1<<20))
	if p := status.Progress; p.InitialBytes > 0 {
		rec.count("storage_reduction_pct", 100*float64(p.SavedBytes)/float64(p.InitialBytes))
	}
	rec.count("core.iterations", float64(status.Progress.Steps))
	rec.count("core.constraint_checks", float64(status.Progress.CostEvaluations))
	rec.count("core.configs_explored", float64(status.Progress.ConfigsExplored))
	rec.count("optimizer.calls", float64(status.Progress.OptimizerCalls))
	rec.count("wscale.templates", float64(rt.WindowTemplates))
	recordJob(rec, status, took, slept)
}

// recordJob splits an advisory operation's wall time by the job's own
// timestamps into queue wait, run and what the service added. The time
// the client slept between polls is the client's and is reported apart.
// (On the one core the benchmark runs at, a job shorter than the
// scheduler's 10 ms time slice finishes before the client reads the
// reply to its submission, and the client never sleeps.)
func recordJob(rec *recorder, st server.JobStatus, total, slept time.Duration) {
	if st.StartedAt == nil || st.FinishedAt == nil {
		return
	}
	run := st.FinishedAt.Sub(*st.StartedAt)
	rec.millis("server.job_queue_wait_ms", st.StartedAt.Sub(st.CreatedAt))
	rec.millis("server.job_run_ms", run)
	rec.millis("server.job_poll_sleep_ms", slept)
	rec.millis("server.job_overhead_ms", total-run-slept)
}

// recordMerge records the counters of one merge result.
func recordMerge(rec *recorder, m *server.MergeResultPayload) {
	rec.count("wscale.templates", float64(m.Templates))
	rec.count("wscale.dedup_ratio", m.DedupRatio)
	rec.count("wscale.table_hits", float64(m.CostTableHits))
	rec.count("wscale.table_misses", float64(m.CostTableMisses))
	if lookups := m.CostTableHits + m.CostTableMisses; lookups > 0 {
		rec.count("wscale.table_hit_ratio", float64(m.CostTableHits)/float64(lookups))
	}
	rec.count("wscale.pruned_checks", float64(m.PrunedChecks))
	rec.count("optimizer.calls", float64(m.OptimizerCalls))
	rec.count("core.iterations", float64(len(m.Steps)))
	rec.count("core.constraint_checks", float64(m.CostEvaluations))
	rec.count("core.configs_explored", float64(m.ConfigsExplored))
}
