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

	// order is held across each journaled transition of this session —
	// fold, age, shrink, apply, rollback below — and the append of its
	// record, so the journal lists them in the order the state took them.
	// Replay calls the same five functions in journal order, alone, which
	// is why it arrives at the state the live process had. Taken before
	// mu, never after it.
	order sync.Mutex

	mu          sync.Mutex
	applied     *appliedConfig // auto-applied configuration (nil = none)
	prevApplied *appliedConfig // what a guardrail rollback restores
	agedFP      uint64         // window fingerprint at the last age: the shapes the cycle after it examines
	lastFPHash  uint64         // agedFP of the last cycle that searched; an equal one skips
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
}

// fold is the ingest transition: one prepared batch enters the window.
// Returns the batch number.
func (c *continuous) fold(items []wscale.IngestItem) int64 { return c.window.Ingest(items) }

// age is the age transition: the window decays one generation, and the
// template set left is what the re-tune cycle that follows examines.
func (c *continuous) age() (generation int64, dropped int) {
	generation, dropped = c.window.Age()
	h := c.window.FingerprintHash()
	c.mu.Lock()
	c.agedFP = h
	c.mu.Unlock()
	return generation, dropped
}

// shrink is the shrink transition: a brownout clamps every reservoir to
// bound. Returns the members dropped.
func (c *continuous) shrink(bound int) int { return c.window.Shrink(bound) }

// apply is the apply transition: cfg becomes the applied configuration,
// the one it replaces is what a rollback restores, and an unchanged
// window skips the next cycle.
func (c *continuous) apply(cfg *appliedConfig) {
	c.mu.Lock()
	c.prevApplied, c.applied = c.applied, cfg
	c.lastFPHash = c.agedFP
	c.mu.Unlock()
	c.applies.Add(1)
}

// rollback is the rollback transition: the guardrail saw ratio and
// restored (nil = no indexes) is applied again.
func (c *continuous) rollback(restored *appliedConfig, ratio float64) {
	c.mu.Lock()
	c.applied, c.prevApplied = restored, nil
	c.lastFPHash = 0 // force the next re-tune cycle to search again
	c.lastRatio = ratio
	c.mu.Unlock()
	c.rollbacks.Add(1)
}

// searched records that the cycle examined the window as last aged
// without applying anything, so an identical window skips.
func (c *continuous) searched() {
	c.mu.Lock()
	c.lastFPHash = c.agedFP
	c.mu.Unlock()
}

// Built-in continuous-mode defaults for the fields a session's spec
// leaves zero (the window's own are wscale.WindowConfig's).
const (
	defaultMinImprovement = 0.05
	defaultRollbackRatio  = 2.0
	defaultConstraint     = 0.10
)

// newContinuous builds the continuous state for one session from its
// journaled spec and the built-in defaults alone, so replay rebuilds
// the loop the live process ran whatever the restarted process's
// configuration. tableMax bounds the windowed cost table (<= 0
// unbounded), as it bounds each registration's.
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
// batch folds into the window, so a bad batch is a clean 400. The batch
// is prepared as a workload — once per template, the other statements
// bound to it — like a registration.
func prepareIngest(sess *Session, req IngestRequest) ([]wscale.IngestItem, error) {
	wl, err := buildWorkload(sess, req.SQL, req.Generate)
	if err != nil {
		return nil, err
	}
	pw, err := optimizer.PrepareWorkload(wl, sess.db)
	if err != nil {
		return nil, err
	}
	items := make([]wscale.IngestItem, len(wl.Queries))
	for i, q := range wl.Queries {
		items[i] = wscale.IngestItem{Stmt: q.Stmt, PQ: pw.Queries[i], Freq: q.Freq, Text: q.Text, Fingerprint: q.Fingerprint}
	}
	return items, nil
}

// contIngest folds one prepared batch into a session's window and
// records it, then runs the observed-cost guardrail: the batch is costed
// under the applied configuration, the observed/estimated per-weight
// ratio is compared against the rollback threshold, and a breach rolls
// the applied configuration back (recorded with the full restored
// state, so replay infers nothing). The whole of it runs inside the
// session's order lock: concurrent batches fold, and are recorded, one
// after the other.
// Under brownout stage >= 2 (shed=true) the fold itself is skipped —
// nothing enters the window, nothing is journaled — but the guardrail
// still observes the batch, because rollback protection is the one
// thing overload must not disable.
func (s *Server) contIngest(sess *Session, req IngestRequest, items []wscale.IngestItem, shed bool) IngestResponse {
	c := sess.cont
	c.order.Lock()
	defer c.order.Unlock()
	resp := IngestResponse{Shed: shed, Statements: len(items)}
	if shed {
		s.reg.Quota().RecordIngestShed(sess.tenant, len(items))
	} else {
		resp.Batch = c.fold(items)
		s.journalAppend(journalEvent{T: evIngest, SessionName: sess.name, Ingest: &req, Batch: resp.Batch})
		s.metrics.ingestBatches.Add(1)
		s.metrics.ingestStatements.Add(int64(len(items)))
	}
	st := c.window.Stats()
	resp.WindowTemplates = st.Templates
	resp.WindowWeight = st.Weight
	resp.Generation = st.Generation

	applied := c.applied // written by apply and rollback only, both under order
	if applied == nil || applied.est <= 0 {
		return resp
	}
	// Observe: the batch's actual per-weight cost under the applied
	// configuration. The faults hook lets chaos tests and CI inflate
	// the observation deterministically to force a rollback.
	batch := &optimizer.PreparedWorkload{Queries: make([]*optimizer.PreparedQuery, len(items))}
	members := make([]int, len(items))
	weights := make([]float64, len(items))
	wsum := 0.0
	for i, it := range items {
		f := it.Freq
		if f <= 0 {
			f = 1
		}
		batch.Queries[i], members[i], weights[i] = it.PQ, i, f
		wsum += f
	}
	sum, _, err := optimizer.New(sess.db).CostPreparedSum(context.Background(), batch, members, weights, optimizer.Configuration(applied.defs))
	if err != nil {
		s.log.Warn("continuous observe costing failed; skipping guardrail for batch",
			"session", sess.name, "batch", resp.Batch, "err", err)
		return resp
	}
	if wsum <= 0 {
		return resp
	}
	sum *= faults.Factor(faults.ContinuousObserve)
	ratio := (sum / wsum) / applied.est
	resp.ObservedRatio = ratio
	if ratio <= c.spec.RollbackRatio {
		c.mu.Lock()
		c.lastRatio = ratio
		c.mu.Unlock()
		return resp
	}
	// Guardrail breach: restore the previous configuration.
	restored := c.prevApplied
	ev := journalEvent{T: evRollback, SessionName: sess.name, Ratio: ratio}
	if restored != nil {
		ev.Indexes = NewIndexDefPayloads(restored.defs)
		ev.Est = restored.est
	}
	c.rollback(restored, ratio)
	s.journalAppend(ev)
	s.metrics.contRollbacks.Add(1)
	resp.RolledBack = true
	s.log.Info("continuous rollback", "session", sess.name, "batch", resp.Batch, "ratio", ratio)
	return resp
}

// submitRetune queues one re-tune cycle — the on-demand route and the
// background ticker both come through here. Re-tunes are admitted below
// user jobs on the shed ladder: brownout stage >= 2 refuses them, and
// they take a slot of the tenant's job quota like any other job.
func (s *Server) submitRetune(sess *Session) (*Job, error) {
	if err := s.shedAt(2, "re-tune cycle"); err != nil {
		return nil, err
	}
	return s.submit("retune", sess, windowWorkloadName, 0, s.buildRetuneRun(sess))
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
func (s *Server) buildRetuneRun(sess *Session) jobRun {
	c := sess.cont
	return func(ctx context.Context, j *Job) (*JobResult, error) {
		c.order.Lock()
		gen, dropped := c.age()
		s.journalAppend(journalEvent{T: evAge, SessionName: sess.name, Generation: gen})
		c.order.Unlock()

		st := c.window.Stats()
		if st.Templates == 0 {
			c.retuneSkips.Add(1)
			s.metrics.contRetuneSkips.Add(1)
			return &JobResult{Retune: &RetuneResultPayload{Skipped: true, Generation: gen, Dropped: dropped}}, nil
		}
		c.mu.Lock()
		unchanged := c.agedFP == c.lastFPHash
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

		// One Merger per snapshot, over the snapshot's own descriptors
		// (prepared with their ingest batch) and the session's persistent windowed
		// cost table: the cycle prepares and compresses nothing again.
		snap := c.window.Snapshot()
		wp, err := wscale.PrepareWindowed(snap, optimizer.New(sess.db), c.table)
		if err != nil {
			return nil, err
		}
		m, err := indexmerge.NewMergerOver(sess.db, wp)
		if err != nil {
			return nil, err
		}
		c.retunes.Add(1)
		s.metrics.contRetunes.Add(1)

		res := &RetuneResultPayload{WindowTemplates: st.Templates, Generation: gen, Dropped: dropped}
		opts := indexmerge.MergeOptions{
			CostConstraint: c.spec.Constraint,
			CostModel:      indexmerge.CompressedOptimizerCost,
			Resilience:     &indexmerge.ResilienceOptions{Breaker: sess.breaker},
			Progress:       s.jobs.progressOf(j),
		}
		defs, err := m.InitialConfiguration(ctx, 0, 0, opts)
		if errors.Is(err, indexmerge.ErrNoInitialIndexes) {
			// Nothing recommendable for this window; remember its shape so
			// the next identical window skips.
			c.searched()
			return &JobResult{Retune: res}, nil
		}
		if err != nil {
			return nil, err
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
			c.order.Lock()
			c.apply(&appliedConfig{defs: newDefs, est: est})
			s.journalAppend(journalEvent{T: evApply, SessionName: sess.name,
				Indexes: res.Indexes, Est: est, Weight: snap.TotalWeight})
			c.order.Unlock()
			s.metrics.contApplies.Add(1)
			res.Applied = true
			s.log.Info("continuous apply", "session", sess.name,
				"indexes", len(newDefs), "improvement", res.Improvement)
		} else {
			c.searched()
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
				_, err := s.submitRetune(sess)
				if errors.Is(err, ErrDraining) {
					return // the server is shutting down; no later cycle can be admitted
				}
				if err != nil {
					s.log.Warn("continuous retune submit failed", "session", sess.name, "err", err)
				}
			}
		}
	}()
}
