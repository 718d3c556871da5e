package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"indexmerge/internal/faults"
)

// The brownout ladder. Global pressure is the worse of two ratios —
// accounted memory over the configured budget, and queued jobs over
// the queue capacity — multiplied by the brownout.stage fault factor
// (chaos tests force the ladder deterministically through it). Each
// stage keeps everything the previous one does and sheds more, in
// strict priority order: synchronous costing is the cheapest work to
// refuse, user-submitted tune/merge jobs the most valuable to keep.
//
//	stage 1 (>= 75%): shed sync costing; shrink continuous windows to
//	  brownoutWindowMax members per template and evict cold cost-table
//	  entries until memory is back under the stage-1 threshold.
//	stage 2 (>= 90%): also shed ingest folds (the observed-cost
//	  guardrail still runs — rollback protection must survive
//	  overload), shed re-tune cycles, and force compressed costing on
//	  new jobs (exact, recommendation parity; just cheaper).
//	stage 3 (>= 97%): also reject new sessions, workloads and
//	  user-submitted jobs. Applied-configuration guardrails stay live.
const (
	brownoutStage1 = 0.75
	brownoutStage2 = 0.90
	brownoutStage3 = 0.97
	// brownoutWindowMax is the absolute reservoir bound stage >= 1
	// shrinks continuous windows to. Absolute (not relative) so
	// repeated evaluations are idempotent.
	brownoutWindowMax = 8
	// evictChunk is how many cold entries each eviction round drops
	// from each table while memory is over the stage-1 line.
	evictChunk = 256
)

// brownoutError reports work refused by the ladder; reject answers it
// with a 429.
type brownoutError struct {
	stage int
	what  string
}

func (e *brownoutError) Error() string {
	return fmt.Sprintf("brownout stage %d: shedding %s", e.stage, e.what)
}

// shedAt refuses work the ladder sheds at stage min: it re-evaluates the
// pressure and returns a *brownoutError if the active stage has reached
// min.
func (s *Server) shedAt(min int, what string) error {
	if stage := s.evalBrownout(); stage >= min {
		return &brownoutError{stage: stage, what: what}
	}
	return nil
}

// evalBrownout recomputes global pressure and returns the active
// stage, journaling window shrinks and evicting cold state on the way
// up. Called at every admission point — the ladder reacts within one
// request of pressure changing.
func (s *Server) evalBrownout() int {
	var memRatio float64
	if s.memBudget > 0 {
		memRatio = float64(s.reg.totalBytes()) / float64(s.memBudget)
	}
	queued, qcap := s.jobs.QueueDepth()
	queueRatio := float64(queued) / float64(qcap)
	factor := faults.Factor(faults.BrownoutStage)
	memRatio *= factor
	queueRatio *= factor

	stageOf := func(p float64) int {
		switch {
		case p >= brownoutStage3:
			return 3
		case p >= brownoutStage2:
			return 2
		case p >= brownoutStage1:
			return 1
		}
		return 0
	}
	// Queue pressure saturates at stage 2: a full queue already has its
	// own structured rejection (queue_full, per-submission), so stage 3
	// — refusing sessions and workloads too — is reserved for memory
	// exhaustion, the one pressure that admission alone cannot relieve.
	stage := stageOf(memRatio)
	qs := stageOf(queueRatio)
	if qs > 2 {
		qs = 2
	}
	if qs > stage {
		stage = qs
	}
	pressure := memRatio
	if queueRatio > pressure {
		pressure = queueRatio
	}
	prev := int(s.stage.Swap(int32(stage)))
	if stage != prev {
		s.metrics.brownoutTransitions.Add(1)
		s.log.Info("brownout stage change", "from", prev, "to", stage,
			"pressure", pressure, "mem_ratio", memRatio, "queue_ratio", queueRatio)
	}
	if stage >= 1 {
		s.shedColdState()
	}
	return stage
}

// shedColdState is the stage-1 action: clamp continuous windows to
// the brownout reservoir bound (recorded in the session's order, so
// replay drives the seeded reservoirs down the same sampling paths),
// then evict cold cost-table entries until accounted memory is back
// under the stage-1 threshold. Idempotent: windows already at the bound
// and memory already under the line are left alone.
func (s *Server) shedColdState() {
	sessions := s.reg.List()
	for _, sess := range sessions {
		c := sess.cont
		if c == nil || c.window.MaxPerTemplate() <= brownoutWindowMax {
			continue
		}
		c.order.Lock()
		// Checked again inside the order: two admissions can both have
		// seen the wide bound, and one shrink is one record.
		if c.window.MaxPerTemplate() > brownoutWindowMax {
			dropped := c.shrink(brownoutWindowMax)
			s.journalAppend(journalEvent{T: evShrink, SessionName: sess.name, Bound: brownoutWindowMax})
			s.log.Info("brownout window shrink", "session", sess.name,
				"bound", brownoutWindowMax, "members_dropped", dropped)
		}
		c.order.Unlock()
	}
	if s.memBudget <= 0 {
		return
	}
	target := int64(float64(s.memBudget) * brownoutStage1)
	// Bounded rounds: each round drops up to evictChunk entries per
	// table per session; stop once under target or nothing evictable
	// remains (unbounded tables keep no order and never evict).
	for round := 0; round < 1024; round++ {
		if s.reg.totalBytes() <= target {
			return
		}
		dropped := 0
		for _, sess := range sessions {
			dropped += sess.evictCold(evictChunk)
		}
		if dropped == 0 {
			return
		}
	}
}

// evictCold drops up to n of the oldest entries from each of the
// session's cost stores: every registered workload's cost table and the
// continuous windowed table. Returns how many entries went.
func (s *Session) evictCold(n int) int {
	dropped := 0
	s.mu.Lock()
	rws := make([]*registeredWorkload, 0, len(s.workloads))
	for _, rw := range s.workloads {
		rws = append(rws, rw)
	}
	s.mu.Unlock()
	for _, rw := range rws {
		dropped += rw.compressed.TableEvictOldest(n)
	}
	if s.cont != nil {
		dropped += s.cont.table.EvictOldest(n)
	}
	return dropped
}

// requestTenant reads the caller's tenant claim from the X-Tenant
// header ("" when absent — an unclaimed request acts on any session).
func requestTenant(r *http.Request) string { return r.Header.Get("X-Tenant") }

// tenantError reports a request that claimed a tenant other than the
// session's owner.
type tenantError struct {
	session, owner, claimed string
}

func (e *tenantError) Error() string {
	return fmt.Sprintf("session %q belongs to tenant %q, not %q", e.session, e.owner, e.claimed)
}

// checkTenant enforces tenant identity on a session: a request that
// claims a tenant must claim the session's owner. Requests with no
// X-Tenant header pass (existing single-tenant clients keep working).
func checkTenant(r *http.Request, sess *Session) error {
	if claimed := requestTenant(r); claimed != "" && claimed != sess.tenant {
		return &tenantError{session: sess.name, owner: sess.tenant, claimed: claimed}
	}
	return nil
}

// observeShed counts one refusal under reason. Its tenant label is the
// tenant the request acted for while that tenant holds a live session,
// and "" otherwise: the label takes no value a client can mint, such as
// a foreign X-Tenant claim or the tenant of a session never created.
func (s *Server) observeShed(reason, tenant string) {
	if !s.reg.liveTenant(tenant) {
		tenant = ""
	}
	s.metrics.observeShed(reason, tenant)
}

// reject is the one place a refusal becomes a response: status, the
// machine-readable body (code, tenant, quota, limit, current,
// retry_after_sec), the Retry-After header that mirrors it, and the
// shed counter. tenant is the tenant the refused request acted for:
// the session's owner on session routes, the creator on POST
// /v1/sessions.
// Quota verdicts, brownout and a full queue are 429s a client should
// retry; a foreign tenant claim is a 403; draining is a 503; the
// registry's conflicts are 409s and its misses 404s; anything else is
// the client's mistake (400).
func (s *Server) reject(w http.ResponseWriter, tenant string, err error) {
	var resp ErrorResponse
	status := http.StatusBadRequest
	var qe *quotaError
	var be *brownoutError
	var te *tenantError
	switch {
	case errors.As(err, &qe):
		status = http.StatusTooManyRequests
		resp = ErrorResponse{Code: qe.v.Code, Tenant: qe.tenant, Quota: qe.v.Quota,
			Limit: qe.v.Limit, Current: qe.v.Current,
			RetryAfterSec: max(1, int64(qe.v.RetryAfter/time.Second))}
	case errors.As(err, &be):
		status = http.StatusTooManyRequests
		resp = ErrorResponse{Code: "brownout", Tenant: tenant, Quota: "brownout_stage",
			Current: int64(be.stage), RetryAfterSec: 1}
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
		queued, qcap := s.jobs.QueueDepth()
		resp = ErrorResponse{Code: "queue_full", Tenant: tenant, Quota: "job_queue",
			Limit: int64(qcap), Current: int64(queued), RetryAfterSec: 1}
	case errors.As(err, &te):
		status = http.StatusForbidden
		resp = ErrorResponse{Code: "tenant_mismatch", Tenant: te.claimed}
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrSessionExists), errors.Is(err, ErrWorkloadExists), errors.Is(err, ErrSessionBusy):
		status = http.StatusConflict
	case errors.Is(err, ErrSessionNotFound):
		status = http.StatusNotFound
	}
	resp.Error = err.Error()
	if resp.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(resp.RetryAfterSec, 10))
	}
	if resp.Code != "" {
		s.observeShed(resp.Code, tenant)
	}
	writeJSON(w, status, resp)
}

// jobTimeout resolves a job's deadline: the per-job timeout option,
// tightened by the HTTP request's own deadline when the serving stack
// set one — the tighter of the two wins, so a request admitted under
// a server-side deadline cannot park a job that outlives it.
func jobTimeout(r *http.Request, timeoutMS int) time.Duration {
	timeout := time.Duration(timeoutMS) * time.Millisecond
	if dl, ok := r.Context().Deadline(); ok {
		if until := time.Until(dl); timeout <= 0 || until < timeout {
			timeout = until
		}
	}
	if timeout < 0 {
		timeout = time.Millisecond
	}
	return timeout
}
