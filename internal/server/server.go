package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"indexmerge"
	"indexmerge/internal/catalog"
	"indexmerge/internal/distrib"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/server/quota"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// Config tunes a Server.
type Config struct {
	// Workers is the job worker pool size (default 2). Jobs on distinct
	// sessions run in parallel up to this bound.
	Workers int
	// QueueCap bounds pending jobs (default 8); submissions beyond it
	// get 429.
	QueueCap int
	// CacheMaxEntries bounds each registered workload's cost table, which
	// holds both cost models' cells, and each continuous window's table
	// (default 1 << 20 entries each; <= 0 means unbounded).
	CacheMaxEntries int
	// Logger receives structured request and job logs (default
	// slog.Default()).
	Logger *slog.Logger
	// JournalPath, when non-empty, enables the durable session/job
	// journal: state-changing requests are appended (fsynced) to this
	// JSONL file, and on startup the file is replayed — sessions and
	// workloads are rebuilt deterministically, terminal jobs reappear
	// as pollable records, and jobs interrupted by a crash are marked
	// failed with an explicit recovery reason.
	JournalPath string
	// CostWorkers lists what-if worker base URLs (cmd/idxmergew
	// processes serving the same database specs as this server's
	// sessions). When set, merge jobs batch cache-missed costings to
	// the pool; results are byte-identical at any worker count and any
	// worker failure falls back to local costing.
	CostWorkers []string
	// Quota sets per-tenant admission limits (zero fields = unlimited).
	Quota quota.Limits
	// MemoryBudgetBytes is the GLOBAL byte-accounted memory budget
	// (windows + cost tables, summed over every session)
	// that drives the brownout ladder: pressure >= 75% of it shrinks
	// windows and evicts cold cost state, >= 90% forces compressed
	// costing and sheds ingest/retunes, >= 97% rejects new work.
	// <= 0 disables memory-driven brownout (queue pressure still
	// applies).
	MemoryBudgetBytes int64
}

// Server is the idxmerged HTTP API: sessions, workloads, synchronous
// what-if costing, and asynchronous tune/merge jobs.
type Server struct {
	reg     *Registry
	jobs    *Manager
	metrics *Metrics
	log     *slog.Logger
	mux     *http.ServeMux
	journal *Journal
	pool    *distrib.Pool // nil without Config.CostWorkers

	// memBudget is the global accounted-memory budget behind the
	// brownout ladder (<= 0 = no memory pressure); stage is the
	// currently active brownout stage (0 = healthy), recomputed at
	// every admission point.
	memBudget int64
	stage     atomic.Int32
}

// New assembles a server and starts its worker pool. With a journal
// configured, the existing journal (if any) is replayed before the
// server accepts traffic, then kept open for appending; a journal
// that cannot be opened or replayed fails construction.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 8
	}
	if cfg.CacheMaxEntries == 0 {
		cfg.CacheMaxEntries = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	var pool *distrib.Pool
	if len(cfg.CostWorkers) > 0 {
		pool = distrib.NewPool(cfg.CostWorkers, distrib.Options{})
	}
	s := &Server{
		reg:       NewRegistry(cfg.CacheMaxEntries, pool, quota.NewController(cfg.Quota)),
		metrics:   NewMetrics(),
		log:       cfg.Logger,
		mux:       http.NewServeMux(),
		pool:      pool,
		memBudget: cfg.MemoryBudgetBytes,
	}
	s.jobs = NewManager(cfg.Workers, cfg.QueueCap, s.metrics, s.log)

	if cfg.JournalPath != "" {
		if err := s.recoverFromJournal(cfg.JournalPath); err != nil {
			return nil, err
		}
		jr, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = jr
		s.jobs.onEnd = func(st JobStatus) {
			s.journalAppend(journalEvent{T: evJobEnd, JobID: st.ID, State: st.State, Error: st.Error})
		}
	}

	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("POST /v1/sessions", s.handleCreateSession)
	s.handle("GET /v1/sessions", s.handleListSessions)
	// Session routes: the brownout stage each sheds at (0 = never) and
	// what it then refuses. Ingest and retune check the ladder later, in
	// their own order (after the continuous check; ingest after its
	// quotas, and by shedding the fold, not the request).
	s.sessionRoute("GET /v1/sessions/{name}", 0, "", s.handleGetSession)
	s.sessionRoute("DELETE /v1/sessions/{name}", 0, "", s.handleDeleteSession)
	s.sessionRoute("POST /v1/sessions/{name}/workloads", 3, "workload registration", s.handleRegisterWorkload)
	s.sessionRoute("GET /v1/sessions/{name}/workloads", 0, "", s.handleListWorkloads)
	// Sync costing is the first load shed: it is cheap for the client to
	// retry and every call burns optimizer CPU the job queue needs.
	s.sessionRoute("POST /v1/sessions/{name}/cost", 1, "synchronous costing", s.handleCost)
	s.sessionRoute("POST /v1/sessions/{name}/ingest", 0, "", s.handleIngest)
	s.sessionRoute("POST /v1/sessions/{name}/retune", 0, "", s.handleRetune)
	s.sessionRoute("POST /v1/sessions/{name}/jobs", 3, "job submission", s.handleSubmitJob)
	s.handle("GET /v1/jobs", s.handleListJobs)
	s.handle("GET /v1/jobs/{id}", s.handleGetJob)
	s.handle("POST /v1/jobs/{id}/cancel", s.handleCancelJob)
	s.handle("GET /v1/jobs/{id}/result", s.handleJobResult)
	return s, nil
}

// journalAppend writes one event, logging (not failing) on error:
// losing durability degrades a future recovery, not this request.
func (s *Server) journalAppend(ev journalEvent) {
	if err := s.journal.Append(ev); err != nil { // a nil journal (none configured) appends nothing
		s.log.Error("journal append failed", "event", ev.T, "err", err)
	}
}

// recoverFromJournal rebuilds registry and job state from a previous
// process's journal by calling, in journal order and alone, the same
// function the live path called for each event: Registry.Create and
// Delete, Session.RegisterWorkload, and the five transitions of
// continuous. Sessions are recreated deterministically from their
// creation requests, workloads re-parsed or re-generated, and job
// records restored: jobs with a terminal event reappear as-is (result
// payloads are not journaled; their result endpoint serves a state
// stub), jobs without one are marked failed with a recovery reason.
// Replayed state is not re-journaled — the file already contains it.
func (s *Server) recoverFromJournal(path string) error {
	events, err := ReadJournal(path)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return nil
	}
	// A job is its job record plus, once it ended, its job_end. The two
	// are written by different goroutines (the submitting request, the
	// worker), so a quick job's job_end can precede its job record: ends
	// are kept by ID and attached to whichever side arrives second. An
	// end whose job record never arrives restores nothing.
	jobs := make(map[string]journalEvent)
	ends := make(map[string]journalEvent)
	var jobOrder []string
	var sessions, workloads int
	for _, ev := range events {
		// The five continuous events name a session that exists and is
		// continuous; one that does not (its creation failed on replay) is
		// logged and skipped, like a workload's.
		var cs *Session
		switch ev.T {
		case evIngest, evAge, evShrink, evApply, evRollback:
			var ok bool
			if cs, ok = s.reg.Get(ev.SessionName); !ok || cs.cont == nil {
				s.log.Error("journal replay: continuous event for missing session",
					"event", ev.T, "session", ev.SessionName)
				continue
			}
		}
		switch ev.T {
		case evSession:
			if ev.Session == nil {
				continue
			}
			if _, err := s.reg.Create(*ev.Session); err != nil {
				if !errors.Is(err, ErrSessionExists) {
					s.log.Error("journal replay: recreate session failed",
						"session", ev.Session.Name, "err", err)
				}
				continue
			}
			sessions++
		case evSessionDeleted:
			_ = s.reg.Delete(ev.SessionName)
		case evWorkload:
			if ev.Workload == nil {
				continue
			}
			sess, ok := s.reg.Get(ev.SessionName)
			if !ok {
				continue
			}
			wl, err := buildWorkload(sess, ev.Workload.SQL, ev.Workload.Generate)
			if err == nil {
				_, err = sess.RegisterWorkload(ev.Workload.Name, wl, ev.Workload.Replace)
			}
			if err != nil {
				if !errors.Is(err, ErrWorkloadExists) {
					s.log.Error("journal replay: rebuild workload failed",
						"session", ev.SessionName, "workload", ev.Workload.Name, "err", err)
				}
				continue
			}
			workloads++
		case evJob:
			if _, ok := jobs[ev.JobID]; ev.JobID != "" && !ok {
				jobs[ev.JobID] = ev
				jobOrder = append(jobOrder, ev.JobID)
			}
		case evJobEnd:
			ends[ev.JobID] = ev
		case evIngest:
			if ev.Ingest == nil {
				continue
			}
			// Re-parse and re-fold: the window's seeded reservoir makes
			// this reproduce the exact pre-crash member sets. The
			// observed-cost guardrail is NOT re-run — its outcomes are
			// separate journal events.
			items, err := prepareIngest(cs, *ev.Ingest)
			if err != nil {
				s.log.Error("journal replay: rebuild ingest batch failed",
					"session", ev.SessionName, "batch", ev.Batch, "err", err)
				continue
			}
			// The record carries the number the live fold returned. Binaries
			// that recorded a fold outside the session's order could write
			// two batches in the other order than they folded them; such a
			// journal still replays, to the window its order describes.
			if batch := cs.cont.fold(items); batch != ev.Batch {
				s.log.Error("journal replay: ingest record out of fold order; the replayed window may differ from the one acknowledged",
					"session", ev.SessionName, "recorded_batch", ev.Batch, "replayed_batch", batch)
			}
		case evAge:
			cs.cont.age()
		case evShrink:
			cs.cont.shrink(ev.Bound)
		case evApply, evRollback:
			// The record carries the whole configuration now applied; a
			// rollback's is empty when it restored "no indexes".
			var cfg *appliedConfig
			if ev.T == evApply || len(ev.Indexes) > 0 {
				defs, err := resolveDefs(cs, ev.Indexes)
				if err != nil {
					s.log.Error("journal replay: resolve applied indexes failed",
						"event", ev.T, "session", ev.SessionName, "err", err)
					continue
				}
				cfg = &appliedConfig{defs: defs, est: ev.Est}
			}
			if ev.T == evApply {
				cs.cont.apply(cfg)
			} else {
				cs.cont.rollback(cfg, ev.Ratio)
			}
		default:
			// An event type this binary does not know is a state
			// transition it cannot reconstruct; replaying around it would
			// silently resurrect a different history than the one the
			// journal acknowledged.
			return fmt.Errorf("journal %s: unknown event type %q (record version %d, binary supports %d); refusing partial replay",
				path, ev.T, ev.V, journalVersion)
		}
	}
	interrupted := 0
	for _, id := range jobOrder {
		ev := jobs[id]
		state := JobFailed
		errMsg := "interrupted by server restart; recovered from journal"
		if end, ok := ends[id]; ok {
			state = JobState(end.State)
			errMsg = end.Error
		} else {
			interrupted++
		}
		s.jobs.RecoverJob(id, ev.Kind, ev.SessionName, ev.WorkloadName, state, errMsg, ev.At.Time)
	}
	s.metrics.recoveredSessions.Add(int64(sessions))
	s.metrics.recoveredJobs.Add(int64(len(jobOrder)))
	s.metrics.recoveredInterrupted.Add(int64(interrupted))
	// Recovered continuous sessions resume their background re-tuners.
	for _, sess := range s.reg.List() {
		s.startContinuous(sess)
	}
	s.log.Info("journal replayed", "path", path, "sessions", sessions,
		"workloads", workloads, "jobs", len(jobOrder), "interrupted", interrupted)
	return nil
}

// Handler returns the root handler (request logging + metrics wrap
// every route).
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting jobs and waits for in-flight ones; see
// Manager.Drain.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.Drain(ctx) }

// handle registers a route, wrapping it with request logging and
// per-route metrics. pattern is a Go 1.22 "METHOD /path/{wildcard}"
// mux pattern, also used as the metrics route label.
func (s *Server) handle(pattern string, fn http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				// A panicking handler answers 500 (when nothing was
				// written yet) and the process keeps serving.
				s.metrics.handlerPanics.Add(1)
				s.log.Error("handler panicked", "method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if !rec.wrote {
					writeErr(rec, http.StatusInternalServerError, "internal error")
				}
			}
			elapsed := time.Since(start)
			s.metrics.observeRequest(pattern, rec.code, elapsed.Seconds())
			if pattern != "GET /healthz" && pattern != "GET /metrics" {
				s.log.Info("request", "method", r.Method, "path", r.URL.Path,
					"status", rec.code, "elapsed_ms", float64(elapsed.Microseconds())/1000)
			}
		}()
		fn(rec, r)
	})
}

// sessionRoute registers a route under /v1/sessions/{name}. It is the
// one admission preamble: the session is resolved (404), a claimed
// tenant must be its owner (403), and the route's brownout threshold is
// enforced (429) before fn sees the *Session — a session route cannot be
// written without the ownership check.
func (s *Server) sessionRoute(pattern string, stage int, what string, fn func(http.ResponseWriter, *http.Request, *Session)) {
	s.handle(pattern, func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.reg.Get(r.PathValue("name"))
		if !ok {
			writeErr(w, http.StatusNotFound, "session %q not found", r.PathValue("name"))
			return
		}
		err := checkTenant(r, sess)
		if err == nil && stage > 0 {
			err = s.shedAt(stage, what)
		}
		if err != nil {
			s.reject(w, sess.tenant, err)
			return
		}
		fn(w, r, sess)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// writeJSON answers code with v as indented JSON. It encodes before it
// writes the status, so a value encoding/json refuses (a NaN or ±Inf
// field) is a 500 with an ErrorResponse, not a code over an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.MarshalIndent(ErrorResponse{Error: "encode response: " + err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps JSON request bodies (1 MiB); larger bodies fail
// decoding with a *http.MaxBytesError instead of buffering unbounded
// client input.
const maxBodyBytes = 1 << 20

// decodeJSON parses a request body strictly: unknown fields, trailing
// garbage and oversized bodies are answered 400 here (the caller just
// returns), surfacing client mistakes early.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.Decode(new(json.RawMessage)) == nil {
		err = errors.New("unexpected data after JSON body")
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
	}
	return err == nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.List()
	gauges := make([]SessionGauges, len(sessions))
	for i, sess := range sessions {
		gauges[i] = sess.gauges()
	}
	var pg *PoolGauges
	if s.pool != nil {
		st := s.pool.PoolStats()
		pg = &PoolGauges{
			Workers: st.Workers, Healthy: st.Healthy, Batches: st.Batches,
			Items: st.Items, RPCs: st.RPCs, RPCErrors: st.RPCErrors, Hedges: st.Hedges,
		}
	}
	og := &OverloadGauges{
		BrownoutStage:  int(s.stage.Load()),
		AccountedBytes: s.reg.totalBytes(),
		MemoryBudget:   s.memBudget,
		Tenants:        s.reg.tenantGauges(),
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.Write(w, s.jobs.Gauges(), gauges, pg, og, s.reg.SnapshotReuses(), s.reg.ResidentSnapshots())
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Resolve tenant identity before anything is journaled, so replay
	// sees the same owner the live decision used.
	if claimed := requestTenant(r); claimed != "" {
		if req.Tenant == "" {
			req.Tenant = claimed
		} else if req.Tenant != claimed {
			writeErr(w, http.StatusBadRequest,
				"tenant mismatch: body says %q, X-Tenant header says %q", req.Tenant, claimed)
			return
		}
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	err := s.shedAt(3, "session creation")
	var sess *Session
	if err == nil {
		sess, err = s.reg.Create(req)
	}
	if err != nil {
		s.reject(w, tenant, err)
		return
	}
	s.journalAppend(journalEvent{T: evSession, Session: &req})
	s.startContinuous(sess)
	writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.List()
	out := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		out[i] = sess.Info()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request, sess *Session) {
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request, sess *Session) {
	if err := s.reg.Delete(sess.name); err != nil {
		s.reject(w, sess.tenant, err)
		return
	}
	s.journalAppend(journalEvent{T: evSessionDeleted, SessionName: sess.name})
	writeJSON(w, http.StatusOK, map[string]string{"deleted": sess.name})
}

func (s *Server) handleRegisterWorkload(w http.ResponseWriter, r *http.Request, sess *Session) {
	if v := s.reg.Quota().CheckMemory(sess.tenant, s.reg.tenantBytes(sess.tenant)); !v.OK {
		s.reject(w, sess.tenant, &quotaError{tenant: sess.tenant, v: v})
		return
	}
	var req RegisterWorkloadRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if !validName(req.Name) {
		writeErr(w, http.StatusBadRequest, "invalid workload name %q (want [A-Za-z0-9_-]{1,64})", req.Name)
		return
	}
	wl, err := buildWorkload(sess, req.SQL, req.Generate)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rw, err := sess.RegisterWorkload(req.Name, wl, req.Replace)
	if err != nil {
		s.reject(w, sess.tenant, err)
		return
	}
	s.journalAppend(journalEvent{T: evWorkload, SessionName: sess.name, Workload: &req})
	writeJSON(w, http.StatusCreated, rw.info(req.Name))
}

// buildWorkload materializes a batch of statements against a session:
// parsing inline SQL or generating from a spec. Shared by workload
// registration, ingest batches and journal replay, so a replayed
// batch is built by the exact code path that built the original.
func buildWorkload(sess *Session, sqlText string, gen *GenerateSpec) (*sql.Workload, error) {
	if (sqlText == "") == (gen == nil) {
		return nil, errors.New("exactly one of sql or generate is required")
	}
	var wl *sql.Workload
	var err error
	if sqlText != "" {
		wl, err = sql.ParseWorkload(strings.NewReader(sqlText), sess.db.Schema())
		if err != nil {
			return nil, fmt.Errorf("parse workload: %w", err)
		}
	} else {
		spec := *gen
		if spec.Queries <= 0 {
			spec.Queries = 30
		}
		class := workload.Complex
		switch spec.Class {
		case "", "complex":
		case "projection":
			class = workload.ProjectionOnly
		default:
			return nil, fmt.Errorf("unknown workload class %q (want complex or projection)", spec.Class)
		}
		wl, err = workload.Generate(sess.db, workload.Options{
			Class: class, Queries: spec.Queries, Seed: spec.Seed,
			Duplication: spec.Duplication, Disjunctions: spec.Disjunctions,
		})
		if err != nil {
			return nil, fmt.Errorf("generate workload: %w", err)
		}
	}
	if wl.Len() == 0 {
		return nil, errors.New("workload is empty")
	}
	return wl, nil
}

func (s *Server) handleListWorkloads(w http.ResponseWriter, r *http.Request, sess *Session) {
	writeJSON(w, http.StatusOK, sess.WorkloadInfos())
}

// resolveDefs validates wire index definitions against the session's
// schema.
func resolveDefs(sess *Session, payloads []IndexDefPayload) ([]catalog.IndexDef, error) {
	defs := make([]catalog.IndexDef, len(payloads))
	for i, p := range payloads {
		def, err := catalog.NewIndexDef(sess.db.Schema(), p.Name, p.Table, p.Columns)
		if err != nil {
			return nil, fmt.Errorf("index %d: %w", i, err)
		}
		defs[i] = def
	}
	return defs, nil
}

// handleCost answers a synchronous what-if costing request: the
// optimizer-estimated Cost(W, C) for an arbitrary configuration. It
// runs concurrently with jobs — the costing read path is safe to
// share and the request does not take the session's job slot.
func (s *Server) handleCost(w http.ResponseWriter, r *http.Request, sess *Session) {
	var req CostRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	rw, ok := sess.workloadEntry(req.Workload)
	if !ok {
		writeErr(w, http.StatusNotFound, "workload %q not found", req.Workload)
		return
	}
	defs, err := resolveDefs(sess, req.Indexes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Cost through the descriptors prepared at registration: no AST
	// re-walk or histogram probing per request, identical totals. The
	// loop checks for cancellation between queries, so an abandoned
	// request (client disconnect) stops burning optimizer calls
	// mid-workload.
	ctx := r.Context()
	pw := rw.compressed.PW
	total, costed, err := optimizer.New(sess.db).WorkloadCostPreparedContext(ctx, pw, optimizer.Configuration(defs))
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		s.metrics.requestsAbandoned.Add(1)
		s.log.Info("cost request abandoned by client", "session", sess.name,
			"workload", req.Workload, "costed", costed, "of", len(pw.W.Queries))
		writeErr(w, statusClientClosedRequest, "client closed request")
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "cost: %v", err)
		return
	}
	s.metrics.optimizerCalls.Add(int64(len(pw.W.Queries)))
	writeJSON(w, http.StatusOK, CostResponse{Cost: total})
}

// statusClientClosedRequest is the nginx-convention status for a
// request abandoned by its client before the response was written;
// nothing standard fits (the client is gone either way).
const statusClientClosedRequest = 499

// handleIngest streams one statement batch into a continuous
// session's workload window. The whole batch parses and prepares
// before anything folds (a bad batch is a clean 400, nothing
// mutated); the fold is journaled; then the observed-cost guardrail
// runs against the applied configuration.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, sess *Session) {
	if sess.cont == nil {
		writeErr(w, http.StatusBadRequest, "session %q is not continuous (create it with a continuous block)", sess.name)
		return
	}
	var req IngestRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	items, err := prepareIngest(sess, req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Admission: the per-tenant statement-rate bucket and memory budget
	// gate the fold. Rate is charged per statement, not per batch, so a
	// tenant cannot dodge its quota by batching harder.
	v := s.reg.Quota().AllowIngest(sess.tenant, len(items))
	if v.OK {
		v = s.reg.Quota().CheckMemory(sess.tenant, s.reg.tenantBytes(sess.tenant))
	}
	if !v.OK {
		s.reject(w, sess.tenant, &quotaError{tenant: sess.tenant, v: v})
		return
	}
	// Stage >= 2 sheds the fold but NOT the guardrail: the batch's
	// observed costs still feed rollback protection (a 200 with
	// shed=true, nothing journaled).
	shed := s.evalBrownout() >= 2
	if shed {
		s.metrics.observeShed("brownout_ingest", sess.tenant)
	}
	writeJSON(w, http.StatusOK, s.contIngest(sess, req, items, shed))
}

// handleRetune submits one on-demand re-tune cycle (the same cycle
// the background ticker runs) as an asynchronous job.
func (s *Server) handleRetune(w http.ResponseWriter, r *http.Request, sess *Session) {
	if sess.cont == nil {
		writeErr(w, http.StatusBadRequest, "session %q is not continuous (create it with a continuous block)", sess.name)
		return
	}
	job, err := s.submitRetune(sess)
	if err != nil {
		s.reject(w, sess.tenant, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitJobResponse{ID: job.id, State: string(JobQueued)})
}

// submit is the one admission path of asynchronous work — POST …/jobs,
// POST …/retune and the background re-tuner: the tenant's job slot
// (*quotaError), then the queue (ErrDraining, ErrQueueFull), then the
// job record. The slot goes back when the job ends, or at once if the
// queue refuses it.
func (s *Server) submit(kind string, sess *Session, workloadName string, timeout time.Duration, run jobRun) (*Job, error) {
	tenant := sess.tenant
	if v := s.reg.Quota().AcquireJob(tenant); !v.OK {
		return nil, &quotaError{tenant: tenant, v: v}
	}
	job, err := s.jobs.Submit(kind, sess, workloadName, SubmitOpts{
		Tenant:  tenant,
		Timeout: timeout,
		Release: func() { s.reg.Quota().ReleaseJob(tenant) },
	}, run)
	if err != nil {
		return nil, err
	}
	s.journalAppend(journalEvent{T: evJob, JobID: job.id, Kind: kind,
		SessionName: sess.name, WorkloadName: workloadName})
	return job, nil
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request, sess *Session) {
	var req SubmitJobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	kind := req.Kind
	if kind == "" {
		kind = "merge"
	}
	if kind != "merge" && kind != "tune" {
		writeErr(w, http.StatusBadRequest, "unknown job kind %q (want merge or tune)", kind)
		return
	}
	rw, ok := sess.workloadEntry(req.Workload)
	if !ok {
		writeErr(w, http.StatusNotFound, "workload %q not found", req.Workload)
		return
	}
	// Stage >= 2 (as this route's admission just evaluated it) forces the
	// compressed cost model on jobs that would run the full optimizer
	// model. The search is priced exactly either way, so from an explicit
	// or n > 0 initial configuration the brownout trades optimizer calls,
	// not quality; an n == 0 job then also tunes one representative per
	// template instead of every statement.
	if s.stage.Load() >= 2 && (req.Options.CostModel == "" || req.Options.CostModel == "opt") {
		req.Options.CostModel = "compressed"
	}
	opts, err := BuildMergeOptions(req.Options)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Validate the initial configuration's size or explicit definitions
	// now so the client gets a 400 instead of a failed job.
	var explicitDefs []catalog.IndexDef
	initial := InitialSpec{N: 10}
	if req.Initial != nil {
		initial = *req.Initial
		if err := indexmerge.CheckInitialN(initial.N); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(initial.Indexes) > 0 {
			explicitDefs, err = resolveDefs(sess, initial.Indexes)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
	}

	run := s.buildJobRun(kind, sess, req.Workload, rw, initial, explicitDefs, opts, req.Options.DualBudgetFrac)
	job, err := s.submit(kind, sess, req.Workload, jobTimeout(r, req.Options.TimeoutMS), run)
	if err != nil {
		s.reject(w, sess.tenant, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitJobResponse{ID: job.id, State: string(JobQueued)})
}

// BuildMergeOptions validates a job's merging knobs and translates them
// into facade options. cmd/idxmerge builds its options through it too,
// so the CLI and the service accept — and refuse — the same values.
func BuildMergeOptions(o JobOptions) (indexmerge.MergeOptions, error) {
	opts := indexmerge.MergeOptions{
		CostConstraint: o.Constraint,
		NoCostF:        o.NoCostF,
		NoCostP:        o.NoCostP,
		Parallelism:    o.Parallelism,
	}
	// The facade reads 0 as "the default"; a negative value would be read
	// the same way, silently, so it is refused here, and so are NaN and
	// +Inf, which no result can report.
	for _, v := range []struct {
		name string
		v    float64
	}{{"constraint", o.Constraint}, {"nocost_f", o.NoCostF}, {"nocost_p", o.NoCostP}} {
		if !(v.v >= 0) || math.IsInf(v.v, 1) {
			return opts, fmt.Errorf("%s %v out of range [0, +Inf) (0 selects the default)", v.name, v.v)
		}
	}
	switch o.MergePair {
	case "", "cost":
	case "syntactic":
		opts.MergePair = indexmerge.MergePairSyntactic
	case "exhaustive":
		opts.MergePair = indexmerge.MergePairExhaustive
	default:
		return opts, fmt.Errorf("unknown mergepair %q (want cost, syntactic or exhaustive)", o.MergePair)
	}
	switch o.Search {
	case "", "greedy":
	case "exhaustive":
		opts.Search = indexmerge.ExhaustiveSearch
	default:
		return opts, fmt.Errorf("unknown search %q (want greedy or exhaustive)", o.Search)
	}
	switch o.CostModel {
	case "", "opt":
	case "nocost":
		opts.CostModel = indexmerge.NoCost
	case "prefilter":
		opts.CostModel = indexmerge.PrefilteredOptimizerCost
	case "compressed":
		opts.CostModel = indexmerge.CompressedOptimizerCost
	default:
		return opts, fmt.Errorf("unknown costmodel %q (want opt, nocost, prefilter or compressed)", o.CostModel)
	}
	if !(o.DualBudgetFrac >= 0 && o.DualBudgetFrac < 1) {
		return opts, fmt.Errorf("dual_budget_frac %v out of range [0, 1)", o.DualBudgetFrac)
	}
	// Jobs run resilient by default ({"resilience": {"disable": true}}
	// opts out): transient costing faults are retried, and a persistent
	// optimizer outage degrades to the analytic model rather than
	// failing the job. Fault-free searches are unaffected — decisions
	// and results are bit-identical to the non-resilient path.
	if o.Resilience == nil || !o.Resilience.Disable {
		ro := &indexmerge.ResilienceOptions{}
		if r := o.Resilience; r != nil {
			ro.MaxRetries = r.MaxRetries
			ro.Backoff = time.Duration(r.BackoffMS) * time.Millisecond
			ro.AttemptTimeout = time.Duration(r.AttemptTimeoutMS) * time.Millisecond
			ro.NoDegraded = r.NoDegraded
		}
		opts.Resilience = ro
	}
	return opts, nil
}

// buildJobRun assembles the closure a worker executes: the facade calls
// the batch CLI makes, on the registration's Merger, so a server job and
// a cmd/idxmerge run over identical inputs produce byte-identical
// results. The Merger holds the workload's registration-time prepared
// descriptors and compressed form (one per registration, shared across
// its jobs), whose cost table carries both cost models' cells from one
// job on the registration to the next.
func (s *Server) buildJobRun(kind string, sess *Session, workloadName string, rw *registeredWorkload,
	initial InitialSpec, explicitDefs []catalog.IndexDef, opts indexmerge.MergeOptions,
	dualFrac float64) jobRun {

	m := rw.merger
	return func(ctx context.Context, j *Job) (*JobResult, error) {
		if kind == "tune" {
			// Whole-workload tuning; recommending nothing is a result.
			defs, err := m.InitialConfiguration(ctx, 0, 0, opts)
			if err != nil && !errors.Is(err, indexmerge.ErrNoInitialIndexes) {
				return nil, err
			}
			return &JobResult{Tune: &TuneResultPayload{
				Indexes:    NewIndexDefPayloads(defs),
				TotalBytes: sess.db.ConfigurationBytes(defs),
			}}, nil
		}

		defs := explicitDefs
		if defs == nil {
			var err error
			if defs, err = m.InitialConfiguration(ctx, initial.N, initial.Seed, opts); err != nil {
				return nil, err
			}
		}

		if dualFrac > 0 {
			budget := int64(float64(sess.db.ConfigurationBytes(defs)) * dualFrac)
			res, err := m.MergeDualContext(ctx, defs, budget)
			if err != nil {
				return nil, err
			}
			p := NewDualResultPayload(res)
			return &JobResult{Merge: &p}, nil
		}

		opts.Progress = s.jobs.progressOf(j)
		if opts.Resilience != nil {
			// One breaker per session: repeated costing failures in any
			// job open it for the whole session until the cooldown probe
			// succeeds.
			opts.Resilience.Breaker = sess.breaker
		}
		// Distributed costing: bound once per (session, workload). The
		// result payload carries no remote counters — it is byte-
		// identical at any worker count — so remote activity is
		// aggregated into /metrics instead.
		opts.Workers = sess.bindWorkers(ctx, workloadName, rw, s.log)

		res, err := m.MergeDefsContext(ctx, defs, opts)
		if err != nil {
			return nil, err
		}
		s.metrics.remoteBatches.Add(res.RemoteBatches)
		s.metrics.remoteItems.Add(res.RemoteItems)
		s.metrics.remoteFallbacks.Add(res.RemoteFallbacks)
		p := NewMergeResultPayload(res)
		return &JobResult{Merge: &p}, nil
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	res, done := j.Result()
	if !done {
		writeErr(w, http.StatusConflict, "job %s is %s; result not available yet", j.id, j.Status().State)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
