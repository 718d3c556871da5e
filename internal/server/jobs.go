package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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
	// job's quota slot is freed.
	JobDeadlineExceeded JobState = "deadline_exceeded"
)

func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled || s == JobDeadlineExceeded
}

// Submission errors, mapped to HTTP statuses by the handlers.
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
	tenant      string

	ctx    context.Context
	cancel context.CancelFunc
	// timed marks a job running under its own deadline, so a
	// context.DeadlineExceeded maps to deadline_exceeded rather than
	// canceled.
	timed bool
	// release returns the job's tenant quota slot; releaseOnce guards it
	// so every terminal path (worker finish, queued cancel, drain) frees
	// the slot exactly once.
	release func()
	relOnce sync.Once

	// run executes the search. It must honor ctx.
	run func(ctx context.Context, j *Job) (*JobResult, error)

	mu       sync.Mutex
	state    JobState
	errMsg   string
	progress ProgressPayload
	allocs   int64 // process-wide Mallocs delta across the run; approximate
	result   *JobResult
	degraded bool // result carries the Degraded flag
	// Compression stats mirrored from a compressed-costmodel merge
	// result so pollers see them without fetching the payload.
	templates     int
	dedupRatio    float64
	costTableHits int64
	applied       bool // retune result auto-applied its recommendation
	recovered     bool // restored from the journal, not run by this process
	createdAt     time.Time
	startedAt     *time.Time
	finishedAt    *time.Time
}

// releaseOnce frees the job's quota slot (if any) exactly once.
func (j *Job) releaseOnce() {
	j.relOnce.Do(func() {
		if j.release != nil {
			j.release()
		}
	})
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

// Status snapshots the job's pollable state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:            j.id,
		Kind:          j.kind,
		Session:       j.sessionName,
		Workload:      j.workload,
		Tenant:        j.tenant,
		State:         string(j.state),
		Error:         j.errMsg,
		Progress:      j.progress,
		Allocs:        j.allocs,
		CreatedAt:     j.createdAt,
		StartedAt:     j.startedAt,
		FinishedAt:    j.finishedAt,
		Degraded:      j.degraded,
		Recovered:     j.recovered,
		Templates:     j.templates,
		DedupRatio:    j.dedupRatio,
		CostTableHits: j.costTableHits,
		Applied:       j.applied,
	}
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

// finish transitions to a terminal state exactly once.
func (j *Job) finish(state JobState, errMsg string, result *JobResult) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	now := time.Now()
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.finishedAt = &now
	return true
}

// Manager owns the bounded worker pool and the job registry. Jobs on
// distinct sessions run in parallel (up to the worker count); jobs on
// one session are serialized by the session lock.
type Manager struct {
	queue    chan *Job
	queueCap int
	metrics  *Metrics
	log      *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	draining bool

	nextID atomic.Int64
	wg     sync.WaitGroup

	baseCtx   context.Context
	cancelAll context.CancelFunc

	// progressHook, when non-nil, is invoked synchronously after every
	// progress snapshot. Tests use it to pace searches deterministically.
	progressHook func(jobID string, p ProgressPayload)

	// onEnd, when non-nil, is invoked once per job after it reaches a
	// terminal state; the server journals the transition there.
	onEnd func(st JobStatus)
}

// NewManager starts workers goroutines consuming a queue of queueCap
// pending jobs. Submissions beyond running+queued capacity are
// rejected with ErrQueueFull.
func NewManager(workers, queueCap int, metrics *Metrics, log *slog.Logger) *Manager {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	if log == nil {
		log = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		queue:     make(chan *Job, queueCap),
		queueCap:  queueCap,
		metrics:   metrics,
		log:       log,
		jobs:      make(map[string]*Job),
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// SubmitOpts carries per-job admission metadata.
type SubmitOpts struct {
	// Tenant is surfaced in status payloads and metrics labels.
	Tenant string
	// Timeout, when positive, bounds the job's total queued+running
	// lifetime; expiry terminates the job with state deadline_exceeded.
	Timeout time.Duration
	// Release frees the tenant's job quota slot. The manager calls it
	// exactly once: when the job reaches a terminal state, or
	// immediately if submission is rejected.
	Release func()
}

// Submit registers and enqueues a job. kind and run are trusted (the
// handler validated the request already). On rejection opts.Release
// (if set) is invoked before returning.
func (m *Manager) Submit(kind string, sess *Session, workloadName string, opts SubmitOpts,
	run func(ctx context.Context, j *Job) (*JobResult, error)) (*Job, error) {

	var jctx context.Context
	var jcancel context.CancelFunc
	if opts.Timeout > 0 {
		jctx, jcancel = context.WithTimeout(m.baseCtx, opts.Timeout)
	} else {
		jctx, jcancel = context.WithCancel(m.baseCtx)
	}
	j := &Job{
		id:          fmt.Sprintf("job-%d", m.nextID.Add(1)),
		kind:        kind,
		session:     sess,
		sessionName: sess.name,
		workload:    workloadName,
		tenant:      opts.Tenant,
		ctx:         jctx,
		cancel:      jcancel,
		timed:       opts.Timeout > 0,
		release:     opts.Release,
		run:         run,
		state:       JobQueued,
		createdAt:   time.Now(),
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		jcancel()
		j.releaseOnce()
		return nil, ErrDraining
	}
	select {
	case m.queue <- j:
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.mu.Unlock()
		m.metrics.jobsSubmitted.Add(1)
		return j, nil
	default:
		m.mu.Unlock()
		jcancel()
		j.releaseOnce()
		m.metrics.jobsRejected.Add(1)
		return nil, ErrQueueFull
	}
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

// Cancel requests cancellation. A queued job transitions to canceled
// immediately; a running job's context is canceled and the search
// stops at its next cancellation point. Canceling a terminal job is a
// no-op. Returns the post-cancel status.
func (m *Manager) Cancel(id string) (JobStatus, bool) {
	j, ok := m.Get(id)
	if !ok {
		return JobStatus{}, false
	}
	j.cancel()
	j.mu.Lock()
	if j.state == JobQueued {
		// Finish immediately; the worker skips it when it drains off
		// the queue. A running job is finished by its worker once the
		// search observes the canceled context.
		now := time.Now()
		j.state = JobCanceled
		j.errMsg = context.Canceled.Error()
		j.finishedAt = &now
		j.mu.Unlock()
		j.releaseOnce()
		m.metrics.observeJobEnd(JobCanceled, 0, 0, 0)
		if m.onEnd != nil {
			m.onEnd(j.Status())
		}
	} else {
		j.mu.Unlock()
	}
	return j.Status(), true
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
	// Every exit path frees the job's quota slot (idempotent; Cancel may
	// have released a queued job already).
	defer j.releaseOnce()

	// Skip jobs canceled while queued.
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()

	// Serialize per session: wait for the session lock, abandoning the
	// wait if the job is canceled (or its deadline expires) first.
	if err := j.session.acquire(j.ctx); err != nil {
		state := j.abortState(err)
		if j.finish(state, err.Error(), nil) {
			m.metrics.observeJobEnd(state, 0, 0, 0)
			if m.onEnd != nil {
				m.onEnd(j.Status())
			}
		}
		m.log.Info("job aborted while queued", "job", j.id,
			"session", j.session.name, "state", string(state))
		return
	}
	defer j.session.release()

	if j.session.deleted.Load() {
		if j.finish(JobFailed, "session deleted", nil) {
			m.metrics.observeJobEnd(JobFailed, 0, 0, 0)
			if m.onEnd != nil {
				m.onEnd(j.Status())
			}
		}
		return
	}

	// Transition Queued → Running under the lock, and only if the job
	// is still live. Cancel may have finished the job while this worker
	// waited for the session lock (acquire can win its select even with
	// a canceled context); overwriting that terminal state here would
	// resurrect a canceled job — state regressing to "running", a
	// second terminal transition, and double-counted metrics.
	now := time.Now()
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.startedAt = &now
	j.mu.Unlock()
	m.log.Info("job started", "job", j.id, "kind", j.kind,
		"session", j.session.name, "workload", j.workload)

	// Bracket the run with allocation counters. The delta is process-
	// wide (concurrent jobs and HTTP requests inflate it), so it is an
	// approximate efficiency signal rather than an exact attribution.
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	result, err := m.safeRun(j)
	elapsed := time.Since(now).Seconds()

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	allocs := int64(msAfter.Mallocs - msBefore.Mallocs)
	j.mu.Lock()
	j.allocs = allocs
	j.mu.Unlock()

	var state JobState
	switch {
	case err == nil:
		state = JobDone
		result.ID = j.id
		result.State = string(JobDone)
		if mp := result.Merge; mp != nil {
			j.mu.Lock()
			j.degraded = mp.Degraded
			j.templates = mp.Templates
			j.dedupRatio = mp.DedupRatio
			j.costTableHits = mp.CostTableHits
			j.mu.Unlock()
			m.metrics.costingRetries.Add(mp.Retries)
			m.metrics.costingDegraded.Add(mp.DegradedChecks)
			m.metrics.costingPanics.Add(mp.PanicsRecovered)
			if mp.Degraded {
				m.metrics.degradedJobs.Add(1)
			}
		}
		if rp := result.Retune; rp != nil {
			j.mu.Lock()
			j.applied = rp.Applied
			j.mu.Unlock()
		}
		j.finish(JobDone, "", result)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = j.abortState(err)
		j.finish(state, err.Error(), nil)
	default:
		state = JobFailed
		j.finish(JobFailed, err.Error(), nil)
	}

	st := j.Status()
	m.metrics.observeJobEnd(state, elapsed, st.Progress.OptimizerCalls, st.Progress.CostEvaluations)
	m.metrics.jobAllocs.Add(allocs)
	if m.onEnd != nil {
		m.onEnd(st)
	}
	m.log.Info("job finished", "job", j.id, "state", string(state),
		"elapsed_s", elapsed, "steps", st.Progress.Steps,
		"saved_bytes", st.Progress.SavedBytes, "error", st.Error)
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
