package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indexmerge/internal/core"
	"indexmerge/internal/server/quota"
)

// JobState is a job's lifecycle state.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker (or the session lock).
	JobQueued JobState = "queued"
	// JobRunning: a worker holds the session lock and is searching.
	JobRunning JobState = "running"
	// JobDone: finished successfully; the result is retrievable.
	JobDone JobState = "done"
	// JobFailed: finished with an error other than cancellation.
	JobFailed JobState = "failed"
	// JobCanceled: canceled by the client (or server drain) before
	// completing. The session remains usable.
	JobCanceled JobState = "canceled"
	// JobDeadlineExceeded: the job's own timeout (JobOptions.TimeoutMS
	// or a propagated request deadline) expired before the search
	// finished. Distinct from canceled so clients can tell "I stopped
	// it" from "it ran out of time". The session remains usable and the
	// job no longer counts against its tenant's quota.
	JobDeadlineExceeded JobState = "deadline_exceeded"
)

func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled || s == JobDeadlineExceeded
}

// Submission errors; reject maps them to HTTP statuses.
var (
	// ErrQueueFull signals backpressure (429).
	ErrQueueFull = errors.New("job queue full")
	// ErrDraining means the server is shutting down (503).
	ErrDraining = errors.New("server draining, not accepting jobs")
)

// Job is one asynchronous tune/merge run against a session.
type Job struct {
	id   string
	kind string
	// session is nil for jobs recovered from the journal (they are
	// terminal and never touch a worker); sessionName is always set
	// and is what Status reports.
	session     *Session
	sessionName string
	workload    string
	tenant      string // the session's; empty for recovered jobs

	ctx    context.Context
	cancel context.CancelFunc
	// timed marks a job running under its own deadline, so a
	// context.DeadlineExceeded maps to deadline_exceeded rather than
	// canceled.
	timed bool

	run jobRun

	mu         sync.Mutex
	state      JobState
	errMsg     string
	progress   ProgressPayload
	allocs     int64 // process-wide Mallocs delta across the run; approximate
	result     *JobResult
	recovered  bool // restored from the journal, not run by this process
	createdAt  time.Time
	startedAt  *time.Time
	finishedAt *time.Time
}

// setProgress publishes a search progress snapshot for polling.
// Progress is monotone: snapshots arriving after the job reached a
// terminal state, or reporting less work than already published, are
// dropped — a poller must never observe progress moving backwards.
func (j *Job) setProgress(p ProgressPayload) {
	j.mu.Lock()
	if j.state.terminal() ||
		p.CostEvaluations < j.progress.CostEvaluations ||
		p.Steps < j.progress.Steps {
		j.mu.Unlock()
		return
	}
	j.progress = p
	j.mu.Unlock()
}

// progressOf returns the search progress callback of a running job:
// publish the snapshot for pollers, then run the test hook.
func (m *Manager) progressOf(j *Job) func(core.Progress) {
	return func(p core.Progress) {
		pp := NewProgressPayload(p)
		j.setProgress(pp)
		if m.progressHook != nil {
			m.progressHook(j.id, pp)
		}
	}
}

// Status snapshots the job's pollable state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is Status with j.mu held. The degraded flag, the
// compression stats and a retune's auto-apply outcome are read off the
// result, so pollers see them without fetching the payload.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:         j.id,
		Kind:       j.kind,
		Session:    j.sessionName,
		Workload:   j.workload,
		Tenant:     j.tenant,
		State:      string(j.state),
		Error:      j.errMsg,
		Progress:   j.progress,
		Allocs:     j.allocs,
		CreatedAt:  j.createdAt,
		StartedAt:  j.startedAt,
		FinishedAt: j.finishedAt,
		Recovered:  j.recovered,
	}
	if r := j.result; r != nil {
		if mp := r.Merge; mp != nil {
			st.Degraded = mp.Degraded
			st.Templates = mp.Templates
			st.DedupRatio = mp.DedupRatio
			st.CostTableHits = mp.CostTableHits
		}
		st.Applied = r.Retune != nil && r.Retune.Applied
	}
	return st
}

// Result returns the terminal payload, or ok=false while the job is
// still queued or running.
func (j *Job) Result() (*JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() {
		return nil, false
	}
	if j.result != nil {
		return j.result, true
	}
	return &JobResult{ID: j.id, State: string(j.state)}, true
}

// Manager owns the bounded worker pool and the job registry. Jobs on
// distinct sessions run in parallel (up to the worker count); jobs on
// one session are serialized by the session lock.
//
// Lock order: j.mu before m.mu. end takes m.mu inside j.mu to drop the
// job from its tenant's count before the terminal state is visible, so
// nothing takes a job's mutex while holding m.mu (List copies the jobs
// out first).
type Manager struct {
	queue    chan *Job
	queueCap int
	quota    *quota.Controller
	metrics  *Metrics
	log      *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	active   map[string]int // tenant -> queued+running jobs; no entry at 0
	draining bool

	nextID atomic.Int64
	wg     sync.WaitGroup

	baseCtx   context.Context
	cancelAll context.CancelFunc

	// progressHook, when non-nil, is invoked synchronously after every
	// progress snapshot. Tests use it to pace searches deterministically.
	progressHook func(jobID string, p ProgressPayload)

	// onEnd, when non-nil, is invoked once per job by end, after the
	// terminal state is visible; the server journals the transition there.
	onEnd func(st JobStatus)
}

// NewManager starts workers goroutines consuming a queue of queueCap
// pending jobs. Submissions beyond running+queued capacity are
// rejected with ErrQueueFull, and a tenant's beyond its job quota under
// qc. New has applied the defaults: workers and queueCap are at least 1
// and log is not nil.
func NewManager(workers, queueCap int, qc *quota.Controller, metrics *Metrics, log *slog.Logger) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		queue:     make(chan *Job, queueCap),
		queueCap:  queueCap,
		quota:     qc,
		metrics:   metrics,
		log:       log,
		jobs:      make(map[string]*Job),
		active:    make(map[string]int),
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// jobRun is the closure a worker executes. It must honor ctx.
type jobRun = func(ctx context.Context, j *Job) (*JobResult, error)

// Submit registers and enqueues a job. kind and run are trusted (the
// handler validated the request already). A positive timeout bounds the
// job's queued+running lifetime; expiry ends it deadline_exceeded.
// Admission, under m.mu, in order: the tenant's job quota (its queued
// and running jobs, *quotaError), then draining (ErrDraining), then the
// queue (ErrQueueFull).
func (m *Manager) Submit(kind string, sess *Session, workloadName string, timeout time.Duration, run jobRun) (*Job, error) {
	var jctx context.Context
	var jcancel context.CancelFunc
	if timeout > 0 {
		jctx, jcancel = context.WithTimeout(m.baseCtx, timeout)
	} else {
		jctx, jcancel = context.WithCancel(m.baseCtx)
	}
	j := &Job{
		id:          fmt.Sprintf("job-%d", m.nextID.Add(1)),
		kind:        kind,
		session:     sess,
		sessionName: sess.name,
		workload:    workloadName,
		tenant:      sess.tenant,
		ctx:         jctx,
		cancel:      jcancel,
		timed:       timeout > 0,
		run:         run,
		state:       JobQueued,
		createdAt:   time.Now(),
	}

	var err error
	m.mu.Lock()
	if v := m.quota.CheckJobs(m.active[j.tenant]); !v.OK {
		err = &quotaError{tenant: j.tenant, v: v}
	} else if m.draining {
		err = ErrDraining
	} else {
		select {
		case m.queue <- j:
			m.jobs[j.id] = j
			m.order = append(m.order, j.id)
			m.active[j.tenant]++
		default:
			err = ErrQueueFull
		}
	}
	m.mu.Unlock()
	if err != nil {
		jcancel()
		if err == ErrQueueFull {
			m.metrics.jobsRejected.Add(1)
		}
		return nil, err
	}
	m.metrics.jobsSubmitted.Add(1)
	return j, nil
}

// QueueDepth reports how many jobs are waiting for a worker, and the
// queue's capacity — the queue-pressure inputs to the brownout ladder.
func (m *Manager) QueueDepth() (queued, cap int) {
	return len(m.queue), m.queueCap
}

// Get looks up a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every job's status in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation. A queued job ends canceled here, at
// once (the worker that later drains it off the queue, or wins the
// session lock for it, finds it ended and drops it); a running job's
// context is canceled and its worker ends it when the search observes
// that. Canceling a terminal job is a no-op. Returns the post-cancel
// status.
func (m *Manager) Cancel(id string) (JobStatus, bool) {
	j, ok := m.Get(id)
	if !ok {
		return JobStatus{}, false
	}
	j.cancel()
	m.end(j, JobQueued, JobCanceled, context.Canceled.Error(), nil)
	return j.Status(), true
}

// activeByTenant copies the tenants' queued+running job counts.
func (m *Manager) activeByTenant() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.active)
}

// Gauges counts non-terminal jobs for the metrics scrape.
func (m *Manager) Gauges() JobGauges {
	var g JobGauges
	for _, st := range m.List() {
		switch JobState(st.State) {
		case JobQueued:
			g.Queued++
		case JobRunning:
			g.Running++
		}
	}
	return g
}

// Drain stops accepting jobs, then waits for queued+running jobs to
// finish. If ctx expires first, every remaining job is canceled and
// Drain waits for the (now fast) wind-down before returning ctx's
// error.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if !already {
		close(m.queue)
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.cancelAll()
		<-done
		return ctx.Err()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// abortState maps a context error to the job's terminal state: a timed
// job whose own deadline expired is deadline_exceeded; everything else
// (client cancel, server drain) is canceled.
func (j *Job) abortState(err error) JobState {
	if j.timed && errors.Is(err, context.DeadlineExceeded) {
		return JobDeadlineExceeded
	}
	return JobCanceled
}

func (m *Manager) runJob(j *Job) {
	// Serialize per session: wait for the session lock, abandoning the
	// wait if the job is canceled (or its deadline expires) first.
	if err := j.session.acquire(j.ctx); err != nil {
		m.end(j, JobQueued, j.abortState(err), err.Error(), nil)
		return
	}

	// Queued → Running under j.mu, and only if the job is still queued:
	// Cancel may have ended it while this worker waited (acquire can win
	// its select even with a canceled context), and flipping an ended job
	// to "running" would resurrect it. From here until end, running means
	// this worker holds the session lock.
	now := time.Now()
	j.mu.Lock()
	live := j.state == JobQueued && !j.session.deleted.Load()
	if live {
		j.state = JobRunning
		j.startedAt = &now
	}
	j.mu.Unlock()
	if !live {
		// Ended while this worker waited (the end below finds it so and
		// does nothing), or still queued on a session deleted meanwhile.
		j.session.release()
		m.end(j, JobQueued, JobFailed, "session deleted", nil)
		return
	}
	m.log.Info("job started", "job", j.id, "kind", j.kind,
		"session", j.session.name, "workload", j.workload)

	// Bracket the run with allocation counters. The delta is process-
	// wide (concurrent jobs and HTTP requests inflate it), so it is an
	// approximate efficiency signal rather than an exact attribution.
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	result, err := m.safeRun(j)
	runtime.ReadMemStats(&msAfter)
	allocs := int64(msAfter.Mallocs - msBefore.Mallocs)
	j.mu.Lock()
	j.allocs = allocs
	j.mu.Unlock()
	m.metrics.jobAllocs.Add(allocs)

	switch {
	case err == nil:
		result.ID = j.id
		result.State = string(JobDone)
		m.end(j, JobRunning, JobDone, "", result)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.end(j, JobRunning, j.abortState(err), err.Error(), nil)
	default:
		m.end(j, JobRunning, JobFailed, err.Error(), nil)
	}
}

// end is the one terminal transition. Every exit of a job calls it —
// canceled while queued, aborted waiting for its session, session
// deleted, done, failed, panicked, deadline — naming the state it
// believes the job is in; if the job has left that state (a queued
// cancel and the job's worker can race to end it) the call does nothing,
// so a job ends exactly once. In order: the session lock (a running
// job's, and only a running job's, is held by the caller) is returned
// and the job leaves its tenant's count, then the terminal state is
// stored — all under j.mu, which Status takes, so a poller that reads a
// terminal state can resubmit or delete the session at once; then the
// metrics; then onEnd writes the job_end record. Neither step can block
// for long: the lock token is this job's, and m.mu is never held while
// waiting for a job's mutex.
func (m *Manager) end(j *Job, from, state JobState, errMsg string, result *JobResult) {
	now := time.Now()
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return
	}
	var elapsed float64
	if from == JobRunning {
		elapsed = now.Sub(*j.startedAt).Seconds()
		j.session.release()
	}
	m.mu.Lock()
	m.active[j.tenant]--
	if m.active[j.tenant] == 0 {
		delete(m.active, j.tenant)
	}
	m.mu.Unlock()
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.finishedAt = &now
	j.run = nil // the record outlives the job; the closure would pin the registration it captured
	st := j.statusLocked()
	j.mu.Unlock()
	j.cancel() // the job's context (and its deadline timer) has no further use

	m.metrics.observeJobEnd(state, elapsed, st.Progress.OptimizerCalls, st.Progress.CostEvaluations)
	if result != nil && result.Merge != nil {
		mp := result.Merge
		m.metrics.costingDegraded.Add(mp.DegradedChecks)
		m.metrics.costingPanics.Add(mp.PanicsRecovered)
		if mp.Degraded {
			m.metrics.degradedJobs.Add(1)
		}
	}
	if m.onEnd != nil {
		m.onEnd(st)
	}
	m.log.Info("job ended", "job", j.id, "state", st.State, "elapsed_s", elapsed,
		"steps", st.Progress.Steps, "saved_bytes", st.Progress.SavedBytes, "error", st.Error)
}

// safeRun executes the job closure, converting a panic into an error
// so one poisoned search marks its job failed (with the stack in the
// error) instead of killing the worker — and with it the process.
func (m *Manager) safeRun(j *Job) (result *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.metrics.workerPanics.Add(1)
			stack := debug.Stack()
			m.log.Error("job panicked", "job", j.id, "panic", fmt.Sprint(r))
			result, err = nil, fmt.Errorf("job panicked: %v\n%s", r, stack)
		}
	}()
	return j.run(j.ctx, j)
}

// RecoverJob restores a terminal job record from the journal: it is
// pollable (status, result stub) but was not run by this process. The
// numeric suffix of its ID raises the ID floor so post-restart jobs
// can never collide with pre-crash ones.
func (m *Manager) RecoverJob(id, kind, sessionName, workloadName string, state JobState, errMsg string, createdAt time.Time) {
	if !state.terminal() {
		state = JobFailed
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	now := time.Now()
	if createdAt.IsZero() {
		createdAt = now
	}
	j := &Job{
		id:          id,
		kind:        kind,
		sessionName: sessionName,
		workload:    workloadName,
		ctx:         ctx,
		cancel:      cancel,
		state:       state,
		errMsg:      errMsg,
		recovered:   true,
		createdAt:   createdAt,
		finishedAt:  &now,
	}
	m.mu.Lock()
	if _, ok := m.jobs[id]; !ok {
		m.jobs[id] = j
		m.order = append(m.order, id)
	}
	m.mu.Unlock()
	if n, ok := parseJobID(id); ok {
		for {
			cur := m.nextID.Load()
			if n <= cur || m.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
}

// parseJobID extracts the numeric suffix of a "job-N" ID.
func parseJobID(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
