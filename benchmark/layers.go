package main

import (
	"context"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"indexmerge"
	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/server"
	"indexmerge/internal/sql"
	"indexmerge/internal/wscale"
)

// Per-layer measurements of a traced run. They call each layer
// directly, on the inputs the round used, once per round; the spans
// around the unrolled operation and the HTTP calls supply the rest.

// measureText times the statement-level layers on one SQL text: parse,
// fingerprint, prepare, and costing under cfg.
func measureText(ctx context.Context, rec *recorder, db *engine.Database, text string, cfg []catalog.IndexDef) error {
	lines := float64(strings.Count(text, "\n"))
	runtime.GC()
	start := time.Now()
	w, err := sql.ParseWorkload(strings.NewReader(text), db.Schema())
	if err != nil {
		return err
	}
	rec.duration("sql.parse_us_per_stmt", time.Since(start).Seconds()*1e6/lines)

	n := float64(len(w.Queries))
	start = time.Now()
	for _, q := range w.Queries {
		_ = q.Stmt.Fingerprint()
	}
	rec.duration("sql.fingerprint_us_per_stmt", time.Since(start).Seconds()*1e6/n)

	opt := optimizer.New(db)
	start = time.Now()
	pw, err := opt.PrepareWorkload(w)
	if err != nil {
		return err
	}
	rec.duration("optimizer.prepare_us_per_query", time.Since(start).Seconds()*1e6/n)

	// Warm once so the timed pass meets the allocation-free steady state.
	oc := optimizer.Configuration(cfg)
	if _, err := opt.WorkloadCostPrepared(pw, oc); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	for _, pq := range pw.Queries {
		if _, err := opt.CostPrepared(pq, oc); err != nil {
			return err
		}
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	rec.duration("optimizer.cost_prepared_ns_per_call", took.Seconds()*1e9/n)
	rec.sample("optimizer.cost_prepared_allocs_per_call", float64(after.Mallocs-before.Mallocs)/n)

	// The tree-building path, on a bounded sample: it is ~10x slower.
	sample := w.Queries[:min(len(w.Queries), 300)]
	start = time.Now()
	for _, q := range sample {
		if _, err := opt.Optimize(q.Stmt, oc); err != nil {
			return err
		}
	}
	rec.duration("optimizer.optimize_us_per_query", time.Since(start).Seconds()*1e6/float64(len(sample)))

	// One constraint check on a cold and then a warm what-if cache.
	base, err := opt.WorkloadCostPrepared(pw, oc)
	if err != nil {
		return err
	}
	check := core.NewOptimizerChecker(opt, w, base, 0.10)
	check.Parallelism, check.Prepared = 1, pw
	conf := core.NewConfiguration(cfg)
	for _, name := range []string{"core.check_miss_us", "core.check_hit_us"} {
		start = time.Now()
		if _, err := check.WorkloadCostContext(ctx, conf); err != nil {
			return err
		}
		rec.micros(name, time.Since(start))
	}
	return nil
}

// measureEngine times the database layer on a database of its own:
// Snapshot freezes its origin for good.
func measureEngine(rec *recorder, name string, scale float64) error {
	runtime.GC()
	start := time.Now()
	db, err := datagen.BuildNamed(name, scale, corpusDBSeed)
	if err != nil {
		return err
	}
	rec.millis("engine.build_ms", time.Since(start))
	start = time.Now()
	db.AnalyzeAll()
	rec.millis("engine.analyze_ms", time.Since(start))
	snap := db.Snapshot()
	start = time.Now()
	const forks = 100
	for i := 0; i < forks; i++ {
		_ = snap.Fork()
	}
	rec.duration("engine.snapshot_fork_us", time.Since(start).Seconds()*1e6/forks)
	rec.count("engine.data_mb", float64(db.DataBytes())/(1<<20))
	return nil
}

func (b *batchWorkload) traceLayers(ctx context.Context, rec *recorder, db *engine.Database, text string, last *advice) error {
	if err := measureText(ctx, rec, db, text, last.initial); err != nil {
		return err
	}
	return measureEngine(rec, b.spec.DB, b.spec.Scale)
}

// measureWindow feeds the round's ingest batches to a window of its
// own, with the server's default settings, and times the write path of
// the sliding window: fold, age, snapshot and the first pricing of the
// snapshot through a persistent cost table.
func measureWindow(ctx context.Context, rec *recorder, db *engine.Database, texts []string) error {
	win := wscale.NewWindow(wscale.WindowConfig{Seed: 1})
	opt := optimizer.New(db)
	table := costcache.NewBounded(0, 1<<20)
	for _, text := range texts {
		w, err := sql.ParseWorkload(strings.NewReader(text), db.Schema())
		if err != nil {
			return err
		}
		items := make([]wscale.IngestItem, len(w.Queries))
		for i, q := range w.Queries {
			pq, err := opt.PrepareQuery(q.Stmt)
			if err != nil {
				return err
			}
			items[i] = wscale.IngestItem{Stmt: q.Stmt, PQ: pq, Freq: q.Freq}
		}
		start := time.Now()
		win.Ingest(items)
		rec.duration("wscale.window_ingest_us_per_stmt", time.Since(start).Seconds()*1e6/float64(len(items)))
	}
	start := time.Now()
	win.Age()
	rec.micros("wscale.window_age_us", time.Since(start))
	start = time.Now()
	snap := win.Snapshot()
	rec.micros("wscale.window_snapshot_us", time.Since(start))
	start = time.Now()
	wp, err := wscale.PrepareWindowed(snap, opt, table)
	if err != nil {
		return err
	}
	if _, err := wp.WorkloadCostContext(ctx, core.NewConfiguration(nil)); err != nil {
		return err
	}
	rec.millis("wscale.prepare_windowed_ms", time.Since(start))
	rec.count("wscale.window_bytes", float64(win.Bytes()))
	return nil
}

// write is one state-changing request of a round, kept so that the
// traced run can repeat it against a daemon without a journal. metric
// names the latency it was timed under, if any.
type write struct {
	path   string
	body   any
	want   int
	metric string
	sql    string
	job    bool // the reply names a job to wait for
	// afterCollect says the round collected the heap before this write.
	afterCollect bool
}

// lastTexts returns the SQL of the round's last n writes that had any.
func (d *daemonWorkload) lastTexts(n int) []string {
	var texts []string
	for i := len(d.writes) - 1; i >= 0 && len(texts) < n; i-- {
		if sql := d.writes[i].sql; sql != "" {
			texts = append([]string{sql}, texts...)
		}
	}
	return texts
}

func (d *daemonWorkload) traceLayers(ctx context.Context, c *caller, journal string, subsets [][]catalog.IndexDef) error {
	rec, s := c.rec, &d.spec
	for i := 0; i < 50; i++ {
		if _, took, ok := c.call("server.healthz", "GET", "/healthz", nil, nil, http.StatusOK); ok {
			rec.latency("server.http_floor_us", took)
		}
	}
	if body, took, ok := c.call("server.metrics", "GET", "/metrics", nil, nil, http.StatusOK); ok {
		rec.micros("server.metrics_scrape_us", took)
		series := 0
		for _, line := range strings.Split(string(body), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				series++
			}
		}
		rec.count("server.metrics_series", float64(series))
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		return err
	}
	rec.sample("server.journal_bytes", float64(len(data))) // timestamps vary in length
	rec.count("server.journal_records", float64(strings.Count(string(data), "\n")))

	// The same costing calls without the service around them.
	w, err := sql.ParseWorkload(strings.NewReader(d.refText), d.gen.db.Schema())
	if err != nil {
		return err
	}
	m, err := indexmerge.NewMerger(d.gen.db, w)
	if err != nil {
		return err
	}
	for i := 0; i < s.CostRequests; i++ {
		start := time.Now()
		_, err := m.WorkloadCost(subsets[i%len(subsets)])
		rec.latency("facade.cost_us", time.Since(start))
		if err != nil {
			return err
		}
	}
	if err := measureText(ctx, rec, d.gen.db, d.lastTexts(1)[0], d.refDefs); err != nil {
		return err
	}
	if s.continuous() {
		if err := measureWindow(ctx, rec, d.gen.db, d.lastTexts(s.Batches)); err != nil {
			return err
		}
	}
	return measureEngine(rec, s.DB, s.Scale)
}

// traceWithoutJournal repeats the round's writes on a daemon without a
// journal — what is left of their latency is what the journal costs —
// and then sends costing requests while a plain-model job keeps the
// only worker busy on a second session. It runs after the round's own
// daemon has stopped, so that both meet the same heap.
func (d *daemonWorkload) traceWithoutJournal(rec *recorder, subsets [][]catalog.IndexDef) error {
	s := &d.spec
	plain, err := startDaemon("")
	if err != nil {
		return err
	}
	pc := &caller{d: plain, rec: rec}
	pc.call("", "POST", "/v1/sessions", d.createSession(sessionName, s.continuous()), nil, http.StatusCreated)
	for _, wr := range d.writes {
		// Collect where the round did, so that both sides pay for the
		// same garbage.
		if wr.afterCollect {
			runtime.GC()
		}
		var accepted server.SubmitJobResponse
		_, took, ok := pc.call("", "POST", wr.path, wr.body, &accepted, wr.want)
		if ok && wr.metric != "" {
			rec.millis("nojournal."+wr.metric, took)
		}
		if ok && wr.job {
			_, _, _ = pc.awaitJob(accepted.ID)
		}
	}
	busy := "/v1/sessions/busy"
	pc.call("", "POST", "/v1/sessions", d.createSession("busy", false), nil, http.StatusCreated)
	pc.call("", "POST", busy+"/workloads", server.RegisterWorkloadRequest{Name: "load", SQL: d.lastTexts(1)[0]}, nil, http.StatusCreated)
	var accepted server.SubmitJobResponse
	if _, _, ok := pc.call("", "POST", busy+"/jobs", server.SubmitJobRequest{
		Workload: "load",
		Initial:  &server.InitialSpec{N: s.RefIndexes, Seed: initialSeed},
		Options:  server.JobOptions{Constraint: s.Constraint, Parallelism: 1},
	}, &accepted, http.StatusAccepted); ok {
		for i, running := 0, true; running && i < busyRequests; i++ {
			req := server.CostRequest{Workload: refWorkload, Indexes: server.NewIndexDefPayloads(subsets[i%len(subsets)])}
			if _, took, ok := pc.call("", "POST", sessionPath("/cost"), req, nil, http.StatusOK); ok {
				rec.latency("server.cost_busy_p50_us", took)
			}
			if i%8 == 7 {
				var st server.JobStatus
				_, _, ok := pc.call("", "GET", "/v1/jobs/"+accepted.ID, nil, &st, http.StatusOK)
				running = ok && pending(st)
			}
		}
		pc.call("", "POST", "/v1/jobs/"+accepted.ID+"/cancel", nil, nil, http.StatusAccepted)
	}
	return plain.stop()
}

// busyRequests bounds the costing requests sent while the second
// session's job runs; the job is canceled after them.
const busyRequests = 1000
