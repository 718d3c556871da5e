package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"indexmerge"
	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/faults"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/wscale"
)

// continuous is a session's online-advising state: the sliding
// workload window statements stream into, the persistent windowed
// (template, atom) cost table that carries member-cost sums across
// re-tune cycles, and the applied-configuration guardrail loop.
//
// Lifecycle: created with the session when the creation request opts
// in, its ticker (if a period is configured) started once the creation
// is journaled, stopped at session deletion.
type continuous struct {
	spec   ContinuousSpec // normalized: every field has its default applied
	window *wscale.Window
	// table is the windowed cost table shared by every re-tune cycle.
	// Keys carry the template fingerprint and reservoir epoch (see
	// wscale.PrepareWindowed), so entries survive weight-only changes
	// and invalidate exactly when a member set changes.
	table *costcache.Cache

	mu          sync.Mutex
	applied     *appliedConfig // auto-applied configuration (nil = none)
	prevApplied *appliedConfig // what a guardrail rollback restores
	lastFPHash  uint64         // window fingerprint set at the last search
	lastRatio   float64        // last batch's observed/estimated ratio

	applies     atomic.Int64
	rollbacks   atomic.Int64
	retunes     atomic.Int64
	retuneSkips atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
}

// appliedConfig is one auto-applied recommendation and the estimate
// the guardrail judges observed costs against.
type appliedConfig struct {
	defs []catalog.IndexDef
	// est is the estimated per-weight window cost under defs at apply
	// time (FinalCost / TotalWeight) — the denominator of the
	// observed/estimated guardrail ratio.
	est float64
	at  time.Time
}

// Built-in continuous-mode defaults (the last fallback after the
// session spec and the server flags).
const (
	defaultMinImprovement = 0.05
	defaultRollbackRatio  = 2.0
	defaultConstraint     = 0.10
)

// mergeContinuousSpec overlays a session's spec on the server
// defaults: each zero field inherits the server's value.
func mergeContinuousSpec(spec, defaults ContinuousSpec) ContinuousSpec {
	if spec.RetunePeriodMS == 0 {
		spec.RetunePeriodMS = defaults.RetunePeriodMS
	}
	if spec.WindowMax == 0 {
		spec.WindowMax = defaults.WindowMax
	}
	if spec.Decay == 0 {
		spec.Decay = defaults.Decay
	}
	if spec.MinWeight == 0 {
		spec.MinWeight = defaults.MinWeight
	}
	if spec.MinImprovement == 0 {
		spec.MinImprovement = defaults.MinImprovement
	}
	if spec.RollbackRatio == 0 {
		spec.RollbackRatio = defaults.RollbackRatio
	}
	if spec.Constraint == 0 {
		spec.Constraint = defaults.Constraint
	}
	if spec.Seed == 0 {
		spec.Seed = defaults.Seed
	}
	return spec
}

// newContinuous builds the continuous state for one session. tableMax
// bounds the windowed cost table (<= 0 unbounded), matching the
// session's cache bound.
func newContinuous(spec ContinuousSpec, tableMax int) *continuous {
	if spec.MinImprovement <= 0 {
		spec.MinImprovement = defaultMinImprovement
	}
	if spec.RollbackRatio <= 0 {
		spec.RollbackRatio = defaultRollbackRatio
	}
	if spec.Constraint <= 0 {
		spec.Constraint = defaultConstraint
	}
	return &continuous{
		spec: spec,
		window: wscale.NewWindow(wscale.WindowConfig{
			MaxPerTemplate: spec.WindowMax,
			Decay:          spec.Decay,
			MinWeight:      spec.MinWeight,
			Seed:           spec.Seed,
		}),
		table: costcache.NewBounded(0, tableMax),
		stop:  make(chan struct{}),
	}
}

// stopTicker shuts the background re-tuner down (idempotent).
func (c *continuous) stopTicker() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// bytes is the loop's accounted footprint: the windowed cost table
// plus the workload window's resident members.
func (c *continuous) bytes() int64 {
	return c.table.Bytes() + c.window.Bytes()
}

// info snapshots the loop for SessionInfo.
func (c *continuous) info() *ContinuousInfo {
	st := c.window.Stats()
	ci := &ContinuousInfo{
		WindowTemplates: st.Templates,
		WindowMembers:   st.Members,
		WindowWeight:    st.Weight,
		Generation:      st.Generation,
		Batches:         st.Batches,
		Statements:      st.Statements,
		Applies:         c.applies.Load(),
		Rollbacks:       c.rollbacks.Load(),
		Retunes:         c.retunes.Load(),
		RetuneSkips:     c.retuneSkips.Load(),
	}
	c.mu.Lock()
	if c.applied != nil {
		ci.Applied = NewIndexDefPayloads(c.applied.defs)
		ci.AppliedEst = c.applied.est
	}
	ci.LastObservedRatio = c.lastRatio
	c.mu.Unlock()
	return ci
}

// prepareIngest parses and prepares an ingest batch without mutating
// anything: every statement must prepare cleanly before any of the
// batch folds into the window, so a bad batch is a clean 400.
func prepareIngest(sess *Session, req IngestRequest) ([]wscale.IngestItem, error) {
	wl, err := buildWorkload(sess, req.SQL, req.Generate)
	if err != nil {
		return nil, err
	}
	o := optimizer.New(sess.db)
	items := make([]wscale.IngestItem, len(wl.Queries))
	for i, q := range wl.Queries {
		pq, err := o.PrepareQuery(q.Stmt)
		if err != nil {
			return nil, err
		}
		items[i] = wscale.IngestItem{Stmt: q.Stmt, PQ: pq, Freq: q.Freq, Text: q.Text, Fingerprint: q.Fingerprint}
	}
	return items, nil
}

// contIngest folds one prepared batch into a session's window,
// journals it, and runs the observed-cost guardrail: the batch is
// costed under the applied configuration, the observed/estimated
// per-weight ratio is compared against the rollback threshold, and a
// breach rolls the applied configuration back (journaled before the
// in-memory swap, so replay reconstructs the same decision).
// Under brownout stage >= 2 (shed=true) the fold itself is skipped —
// nothing enters the window, nothing is journaled — but the guardrail
// still observes the batch, because rollback protection is the one
// thing overload must not disable.
func (s *Server) contIngest(sess *Session, req IngestRequest, items []wscale.IngestItem, shed bool) IngestResponse {
	c := sess.cont
	var resp IngestResponse
	if shed {
		st := c.window.Stats()
		resp = IngestResponse{
			Shed:            true,
			Statements:      len(items),
			WindowTemplates: st.Templates,
			WindowWeight:    st.Weight,
			Generation:      st.Generation,
		}
		s.reg.Quota().RecordIngestShed(sess.tenant, len(items))
	} else {
		batch := c.window.Ingest(items)
		s.journalAppend(journalEvent{T: evIngest, SessionName: sess.name, Ingest: &req, Batch: batch})

		st := c.window.Stats()
		resp = IngestResponse{
			Batch:           batch,
			Statements:      len(items),
			WindowTemplates: st.Templates,
			WindowWeight:    st.Weight,
			Generation:      st.Generation,
		}
		s.metrics.ingestBatches.Add(1)
		s.metrics.ingestStatements.Add(int64(len(items)))
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.applied == nil || c.applied.est <= 0 {
		return resp
	}
	// Observe: the batch's actual per-weight cost under the applied
	// configuration. The faults hook lets chaos tests and CI inflate
	// the observation deterministically to force a rollback.
	o := optimizer.New(sess.db)
	cfg := optimizer.Configuration(c.applied.defs)
	sum, wsum := 0.0, 0.0
	for _, it := range items {
		cost, err := o.CostPrepared(it.PQ, cfg)
		if err != nil {
			s.log.Warn("continuous observe costing failed; skipping guardrail for batch",
				"session", sess.name, "batch", resp.Batch, "err", err)
			return resp
		}
		f := it.Freq
		if f <= 0 {
			f = 1
		}
		sum += cost * f
		wsum += f
	}
	if wsum <= 0 {
		return resp
	}
	sum *= faults.Factor(faults.ContinuousObserve)
	ratio := (sum / wsum) / c.applied.est
	c.lastRatio = ratio
	resp.ObservedRatio = ratio
	if ratio <= c.spec.RollbackRatio {
		return resp
	}
	// Guardrail breach: restore the previous configuration. Journal
	// first (WAL ordering) with the full restored state so replay needs
	// no inference.
	restored := c.prevApplied
	ev := journalEvent{T: evRollback, SessionName: sess.name, Ratio: ratio}
	if restored != nil {
		ev.Indexes = NewIndexDefPayloads(restored.defs)
		ev.Est = restored.est
	}
	s.journalAppend(ev)
	c.applied = restored
	c.prevApplied = nil
	c.lastFPHash = 0 // force the next re-tune cycle to search again
	c.rollbacks.Add(1)
	s.metrics.contRollbacks.Add(1)
	resp.RolledBack = true
	s.log.Info("continuous rollback", "session", sess.name, "batch", resp.Batch, "ratio", ratio)
	return resp
}

// submitRetune queues one re-tune cycle on the session's job slot,
// journaling it like any other job. Re-tunes are admitted below user
// jobs on the shed ladder: brownout stage >= 2 refuses them, and they
// consume the tenant's job quota like any other job.
func (s *Server) submitRetune(sess *Session) (*Job, error) {
	if sess.cont == nil {
		return nil, errors.New("session is not continuous")
	}
	if stage := s.evalBrownout(); stage >= 2 {
		return nil, &brownoutError{stage: stage, what: "re-tune cycle"}
	}
	if v := s.reg.Quota().AcquireJob(sess.tenant); !v.OK {
		return nil, &quotaError{tenant: sess.tenant, v: v}
	}
	tenant := sess.tenant
	job, err := s.jobs.Submit("retune", sess, windowWorkloadName, SubmitOpts{
		Tenant:  tenant,
		Release: func() { s.reg.Quota().ReleaseJob(tenant) },
	}, s.buildRetuneRun(sess))
	if err != nil {
		return nil, err
	}
	s.journalAppend(journalEvent{T: evJob, JobID: job.id, Kind: "retune",
		SessionName: sess.name, WorkloadName: windowWorkloadName})
	return job, nil
}

// windowWorkloadName labels retune jobs in job listings; it is not a
// registrable name (validName rejects '~'), so it can never collide
// with a client workload.
const windowWorkloadName = "~window"

// buildRetuneRun assembles one re-tune cycle: age the window, skip if
// its template fingerprint set is unchanged since the last search,
// otherwise snapshot it, run the same tune+merge machinery batch jobs
// use (priced through the session's persistent windowed cost table),
// and auto-apply the recommendation when it clears the improvement
// guardrail.
func (s *Server) buildRetuneRun(sess *Session) func(ctx context.Context, j *Job) (*JobResult, error) {
	c := sess.cont
	return func(ctx context.Context, j *Job) (*JobResult, error) {
		gen, dropped := c.window.Age()
		s.journalAppend(journalEvent{T: evAge, SessionName: sess.name, Generation: gen})

		st := c.window.Stats()
		if st.Templates == 0 {
			c.retuneSkips.Add(1)
			s.metrics.contRetuneSkips.Add(1)
			return &JobResult{Retune: &RetuneResultPayload{Skipped: true, Generation: gen, Dropped: dropped}}, nil
		}
		h := c.window.FingerprintHash()
		c.mu.Lock()
		unchanged := h == c.lastFPHash
		c.mu.Unlock()
		if unchanged {
			// Same query shapes as the last search: weights alone cannot
			// introduce new candidate indexes, so the previous decision
			// stands.
			c.retuneSkips.Add(1)
			s.metrics.contRetuneSkips.Add(1)
			return &JobResult{Retune: &RetuneResultPayload{
				Skipped: true, WindowTemplates: st.Templates, Generation: gen, Dropped: dropped,
			}}, nil
		}

		snap := c.window.Snapshot()
		wp, err := wscale.PrepareWindowed(snap, optimizer.New(sess.db), c.table)
		if err != nil {
			return nil, err
		}
		m, err := indexmerge.NewMerger(sess.db, snap.W)
		if err != nil {
			return nil, err
		}
		c.retunes.Add(1)
		s.metrics.contRetunes.Add(1)

		res := &RetuneResultPayload{WindowTemplates: st.Templates, Generation: gen, Dropped: dropped}
		defs, err := m.TuneTemplatesContext(ctx)
		if err != nil {
			return nil, err
		}
		if len(defs) == 0 {
			// Nothing recommendable for this window; remember its shape so
			// the next identical window skips.
			c.mu.Lock()
			c.lastFPHash = h
			c.mu.Unlock()
			return &JobResult{Retune: res}, nil
		}

		opts := indexmerge.MergeOptions{
			CostConstraint: c.spec.Constraint,
			CostModel:      indexmerge.CompressedOptimizerCost,
			Compressed:     wp,
			Prepared:       snap.PW,
			Resilience:     &indexmerge.ResilienceOptions{Breaker: sess.breaker},
			Progress: func(p indexmerge.SearchProgress) {
				pp := NewProgressPayload(p)
				j.setProgress(pp)
				if s.jobs.progressHook != nil {
					s.jobs.progressHook(j.id, pp)
				}
			},
		}
		mres, err := m.MergeDefsContext(ctx, defs, opts)
		if err != nil {
			return nil, err
		}
		newDefs := mres.Final.Defs()
		newCost := mres.FinalCost

		// Current cost: the same window priced under the configuration
		// the session is actually running (the applied one, or no
		// indexes) — same cost table, same units, so the improvement
		// fraction compares like with like.
		c.mu.Lock()
		var curDefs []catalog.IndexDef
		if c.applied != nil {
			curDefs = c.applied.defs
		}
		c.mu.Unlock()
		curCost, err := wp.WorkloadCostContext(ctx, core.NewConfiguration(curDefs))
		if err != nil {
			return nil, err
		}

		res.EstCost = newCost
		res.CurrentCost = curCost
		res.Indexes = NewIndexDefPayloads(newDefs)
		if curCost > 0 {
			res.Improvement = 1 - newCost/curCost
		}

		if res.Improvement >= c.spec.MinImprovement && snap.TotalWeight > 0 {
			est := newCost / snap.TotalWeight
			s.journalAppend(journalEvent{T: evApply, SessionName: sess.name,
				Indexes: res.Indexes, Est: est, Weight: snap.TotalWeight})
			c.mu.Lock()
			c.prevApplied = c.applied
			c.applied = &appliedConfig{defs: newDefs, est: est, at: time.Now()}
			c.lastFPHash = h
			c.mu.Unlock()
			c.applies.Add(1)
			s.metrics.contApplies.Add(1)
			res.Applied = true
			s.log.Info("continuous apply", "session", sess.name,
				"indexes", len(newDefs), "improvement", res.Improvement)
		} else {
			c.mu.Lock()
			c.lastFPHash = h
			c.mu.Unlock()
		}
		return &JobResult{Retune: res}, nil
	}
}

// startContinuous launches the session's background re-tuner if a
// period is configured. The goroutine exits when the session is
// deleted. Cycles are submitted through the normal job queue — the
// session's cap-1 lock serializes them against client jobs, and
// unchanged-window cycles cost one fingerprint hash.
func (s *Server) startContinuous(sess *Session) {
	c := sess.cont
	if c == nil || c.spec.RetunePeriodMS <= 0 {
		return
	}
	period := time.Duration(c.spec.RetunePeriodMS) * time.Millisecond
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				if _, err := s.submitRetune(sess); err != nil {
					s.log.Warn("continuous retune submit failed", "session", sess.name, "err", err)
				}
			}
		}
	}()
}
