package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indexmerge"
	"indexmerge/internal/core"
	"indexmerge/internal/datagen"
	"indexmerge/internal/distrib"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/server/quota"
	"indexmerge/internal/sql"
	"indexmerge/internal/wscale"
)

// DefaultTenant owns sessions created with no tenant named — existing
// clients keep working and share one accounting bucket.
const DefaultTenant = "default"

// quotaError carries a non-OK admission verdict as an error; reject
// serializes the machine-readable rejection body from it.
type quotaError struct {
	tenant string
	v      quota.Verdict
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("tenant %q rejected: %s", e.tenant, e.v.String())
}

// Registry errors; reject maps them to HTTP statuses.
var (
	ErrSessionExists   = errors.New("session already exists")
	ErrSessionNotFound = errors.New("session not found")
	ErrSessionBusy     = errors.New("session has a running job")
	ErrWorkloadExists  = errors.New("workload already registered")
)

// Session is a named database instance (schema + generated data +
// analyzed statistics) that jobs and costing requests run against.
//
// Concurrency: the database is its spec's frozen snapshot, shared by
// pointer with every session on the spec and never mutated, so its
// read path (optimization, what-if costing) is safe to share. Search jobs are serialized per session by
// the cap-1 lock channel; jobs on different sessions run in parallel.
// The session holds no cost store: each registered workload's form owns
// its cells, as the continuous window owns its table.
type Session struct {
	name      string
	tenant    string
	dbName    string
	db        *engine.Database
	fp        uint64 // database fingerprint, captured at creation
	pool      *distrib.Pool
	createdAt time.Time
	deleted   atomic.Bool

	// breaker is the session's costing circuit breaker, shared by every
	// job on the session so consecutive failures in one job protect the
	// next (and a recovered optimizer recloses it for all).
	breaker *core.Breaker

	// lock serializes search jobs on this session. Cap 1: holding a
	// token in the channel means a job is running.
	lock chan struct{}

	// tableMax bounds each registered workload's cost table (<= 0
	// unbounded).
	tableMax int

	// snapKey is the snapshot-cache key this session holds a reference
	// on; Registry.Delete releases it so fully-abandoned snapshots are
	// evicted.
	snapKey string

	// cont is the continuous-advising state (nil for request/response
	// sessions).
	cont *continuous

	mu        sync.Mutex
	workloads map[string]*registeredWorkload
}

// registeredWorkload is a workload's compressed form — the workload
// compressed.C.W, its prepared descriptors compressed.PW, the templates
// and the cost table of both cost models' cells — built once at
// registration against the session's (immutable) statistics, and the
// Merger over it that every job on the workload runs on. Costing
// requests read the form directly. Journal replay rebuilds workloads
// through this same path, so recovered sessions re-derive the
// compression automatically.
type registeredWorkload struct {
	compressed *wscale.Prepared // never nil: RegisterWorkload is the only constructor
	merger     *indexmerge.Merger

	// binding is the workload's lazily-created worker-pool binding
	// (nil without a pool, or after a failed bind — the bind is
	// attempted once; jobs then cost locally).
	bindOnce sync.Once
	binding  *distrib.Binding
}

// bindWorkers returns the workload's worker-pool binding, binding on
// first use. The binding is named session/workload so one pool serves
// many sessions without name collisions. A failed bind is logged once
// and never retried: jobs on this workload then run with local
// costing, which is byte-identical anyway.
func (s *Session) bindWorkers(ctx context.Context, name string, rw *registeredWorkload, log *slog.Logger) *distrib.Binding {
	if s.pool == nil {
		return nil
	}
	rw.bindOnce.Do(func() {
		b, err := s.pool.Bind(ctx, s.name+"/"+name, s.fp, rw.compressed.C.W)
		if err != nil {
			if log != nil {
				log.Warn("worker pool bind failed; jobs will cost locally",
					"session", s.name, "workload", name, "err", err)
			}
			return
		}
		rw.binding = b
	})
	return rw.binding
}

// acquire takes the session's job slot, abandoning the wait when ctx
// is canceled.
func (s *Session) acquire(ctx context.Context) error {
	select {
	case s.lock <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryAcquire takes the job slot without blocking.
func (s *Session) tryAcquire() bool {
	select {
	case s.lock <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Session) release() { <-s.lock }

// RegisterWorkload adds a named workload, preparing its queries once
// against the session's statistics; registration fails if any query
// cannot be prepared. A duplicate name is rejected unless replace is
// set, in which case the name is atomically rebound: the new queries
// get freshly-built prepared descriptors and a fresh cost table, so
// nothing costed for the old queries can answer for the new ones, and
// the old cells go with the old registration — no other workload's
// cells are touched. Jobs already running keep the registration they
// captured at submit — old queries with old costs, internally
// consistent.
func (s *Session) RegisterWorkload(name string, w *sql.Workload, replace bool) (*registeredWorkload, error) {
	pw, err := optimizer.PrepareWorkload(w, s.db)
	if err != nil {
		return nil, fmt.Errorf("prepare workload: %w", err)
	}
	// Compress once at registration: template clustering and the
	// (template, atom) cost table are then shared by every job and
	// costing request on this workload for the session's lifetime, the
	// jobs through the one Merger built over them here.
	cp, err := wscale.Prepare(wscale.Compress(w), pw, optimizer.New(s.db), s.tableMax)
	if err != nil {
		return nil, fmt.Errorf("compress workload: %w", err)
	}
	m, err := indexmerge.NewMergerOver(s.db, cp)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.workloads[name]; ok && !replace {
		return nil, ErrWorkloadExists
	}
	rw := &registeredWorkload{compressed: cp, merger: m}
	s.workloads[name] = rw
	return rw, nil
}

// info describes the registration under the name it is bound to.
func (rw *registeredWorkload) info(name string) WorkloadInfo {
	return WorkloadInfo{
		Name: name, Queries: rw.compressed.C.W.Len(),
		Templates:  len(rw.compressed.C.Templates),
		DedupRatio: rw.compressed.C.DedupRatio(),
	}
}

// workloadEntry looks up a registered workload with its prepared form.
func (s *Session) workloadEntry(name string) (*registeredWorkload, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rw, ok := s.workloads[name]
	return rw, ok
}

// WorkloadInfos lists registered workloads sorted by name.
func (s *Session) WorkloadInfos() []WorkloadInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkloadInfo, 0, len(s.workloads))
	for name, rw := range s.workloads {
		out = append(out, rw.info(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info describes the session.
func (s *Session) Info() SessionInfo {
	infos := s.WorkloadInfos()
	names := make([]string, len(infos))
	for i, wi := range infos {
		names[i] = wi.Name
	}
	prepared := 0
	s.mu.Lock()
	for _, rw := range s.workloads {
		prepared += len(rw.compressed.PW.Queries)
	}
	s.mu.Unlock()
	info := SessionInfo{
		Name:            s.name,
		Tenant:          s.tenant,
		AccountedBytes:  s.accountedBytes(),
		DB:              s.dbName,
		Tables:          len(s.db.Schema().Tables()),
		DataBytes:       s.db.DataBytes(),
		Workloads:       names,
		PreparedQueries: prepared,
		CreatedAt:       s.createdAt,
	}
	if s.cont != nil {
		info.Continuous = s.cont.info()
	}
	return info
}

// accountedBytes is the session's byte-accounted memory footprint:
// each registered workload's cost table and — for continuous sessions —
// the windowed cost table plus the workload window itself. This is the
// figure tenant memory budgets and the global brownout pressure are
// computed over.
func (s *Session) accountedBytes() int64 {
	var total int64
	s.mu.Lock()
	for _, rw := range s.workloads {
		total += rw.compressed.TableBytes()
	}
	s.mu.Unlock()
	if s.cont != nil {
		total += s.cont.bytes()
	}
	return total
}

// gauges snapshots the session's cost-table counters for the metrics
// scrape.
func (s *Session) gauges() SessionGauges {
	g := SessionGauges{
		Name:               s.name,
		BreakerState:       s.breaker.State().String(),
		BreakerTransitions: s.breaker.Transitions(),
	}
	s.mu.Lock()
	for _, rw := range s.workloads {
		g.Templates += len(rw.compressed.C.Templates)
		th, tm, _ := rw.compressed.TableStats()
		g.CostTableEntries += rw.compressed.TableLen()
		g.CostTableHits += th
		g.CostTableMisses += tm
	}
	s.mu.Unlock()
	if s.cont != nil {
		ci := s.cont.info()
		g.Continuous = true
		g.WindowTemplates = ci.WindowTemplates
		g.WindowMembers = ci.WindowMembers
		g.WindowWeight = ci.WindowWeight
		g.WindowGeneration = ci.Generation
		g.AppliedIndexes = len(ci.Applied)
		g.ObservedRatio = ci.LastObservedRatio
		g.ContApplies = ci.Applies
		g.ContRollbacks = ci.Rollbacks
	}
	return g
}

// Registry holds the server's sessions.
type Registry struct {
	mu       sync.Mutex
	sessions map[string]*Session
	building map[string]bool   // names reserved while their DB builds
	tableMax int               // bound of every cost table (entries)
	pool     *distrib.Pool     // shared what-if worker pool (nil = local costing)
	quota    *quota.Controller // per-tenant admission control
	snaps    snapshotCache
}

// NewRegistry creates an empty registry. tableMax bounds each
// registered workload's and each continuous window's cost table (<= 0
// means unbounded); pool, when non-nil, is the shared what-if worker
// pool sessions bind workloads against; qc is the per-tenant admission
// controller (never nil).
func NewRegistry(tableMax int, pool *distrib.Pool, qc *quota.Controller) *Registry {
	return &Registry{
		sessions: make(map[string]*Session),
		building: make(map[string]bool),
		tableMax: tableMax,
		pool:     pool,
		quota:    qc,
	}
}

// Quota exposes the registry's admission controller.
func (r *Registry) Quota() *quota.Controller { return r.quota }

// tenantBytes sums accounted memory across one tenant's live sessions.
func (r *Registry) tenantBytes(tenant string) int64 {
	var total int64
	for _, s := range r.List() {
		if s.tenant == tenant {
			total += s.accountedBytes()
		}
	}
	return total
}

// totalBytes sums accounted memory across every live session — the
// global brownout pressure numerator.
func (r *Registry) totalBytes() int64 {
	var total int64
	for _, s := range r.List() {
		total += s.accountedBytes()
	}
	return total
}

// tenantGauges assembles the per-tenant metrics snapshot: quota usage
// from the controller joined with per-session byte accounting.
func (r *Registry) tenantGauges() []TenantGauges {
	bytes := make(map[string]int64)
	for _, s := range r.List() {
		bytes[s.tenant] += s.accountedBytes()
	}
	usage := r.quota.UsageAll()
	sort.Slice(usage, func(i, j int) bool { return usage[i].Tenant < usage[j].Tenant })
	out := make([]TenantGauges, len(usage))
	for i, u := range usage {
		out[i] = TenantGauges{
			Tenant:     u.Tenant,
			Sessions:   u.Sessions,
			Jobs:       u.Jobs,
			Bytes:      bytes[u.Tenant],
			IngestShed: u.IngestShed,
		}
	}
	return out
}

// snapshotCache dedupes session database construction: the first
// session over a given spec builds (or loads) the database and freezes
// it; every later session over the same spec holds that one frozen,
// read-only database by pointer. Sessions never write their database
// (what-if costing needs no materialized index), so sharing it cannot
// let them observe each other. File-backed specs key on (path, size,
// mtime) so replacing the snapshot file invalidates the cached build.
//
// Entries are refcounted by the sessions holding them: acquire takes
// a reference, Registry.Delete releases it, and an entry whose count
// reaches zero is evicted — session churn cannot grow the resident
// snapshot set beyond the live sessions' distinct specs.
type snapshotCache struct {
	mu      sync.Mutex
	entries map[string]*snapEntry
	reuses  atomic.Int64
}

// snapEntry is one frozen snapshot plus the number of live sessions
// holding it.
type snapEntry struct {
	snap *engine.Snapshot
	refs int
}

func snapshotKey(name string, scale float64, seed int64) (string, error) {
	if path, ok := strings.CutPrefix(name, "file:"); ok {
		fi, err := os.Stat(path)
		if err != nil {
			return "", fmt.Errorf("stat snapshot %q: %w", path, err)
		}
		return fmt.Sprintf("file:%s|%d|%d", path, fi.Size(), fi.ModTime().UnixNano()), nil
	}
	return fmt.Sprintf("%s|%g|%d", name, scale, seed), nil
}

// acquire returns the spec's frozen snapshot for one session, building
// it if this spec has not been seen. The returned key identifies the
// reference the caller now holds; pass it to release when the session
// is deleted.
func (c *snapshotCache) acquire(name string, scale float64, seed int64) (*engine.Snapshot, string, error) {
	key, err := snapshotKey(name, scale, seed)
	if err != nil {
		return nil, "", err
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*snapEntry)
	}
	if e := c.entries[key]; e != nil {
		e.refs++
		c.mu.Unlock()
		c.reuses.Add(1)
		return e.snap, key, nil
	}
	c.mu.Unlock()
	db, err := datagen.BuildNamed(name, scale, seed)
	if err != nil {
		return nil, "", err
	}
	snap := db.Snapshot()
	c.mu.Lock()
	// A concurrent build of the same spec may have won; both snapshots
	// are identical (deterministic build), keep the first.
	e := c.entries[key]
	if e != nil {
		c.reuses.Add(1)
	} else {
		e = &snapEntry{snap: snap}
		c.entries[key] = e
	}
	e.refs++
	c.mu.Unlock()
	return e.snap, key, nil
}

// release drops one session's reference on a snapshot, evicting the
// entry when no live session holds it anymore.
func (c *snapshotCache) release(key string) {
	if key == "" {
		return
	}
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		e.refs--
		if e.refs <= 0 {
			delete(c.entries, key)
		}
	}
	c.mu.Unlock()
}

// resident counts cached snapshots currently held by live sessions.
func (c *snapshotCache) resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SnapshotReuses counts sessions served from an already-built cached
// snapshot instead of rebuilding their database.
func (r *Registry) SnapshotReuses() int64 { return r.snaps.reuses.Load() }

// ResidentSnapshots counts frozen snapshots still referenced by live
// sessions — churn through create/delete must not grow this.
func (r *Registry) ResidentSnapshots() int { return r.snaps.resident() }

func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Create builds a session's database (outside the registry lock —
// generation takes seconds at scale) and registers it. The name is
// reserved for the duration of the build so two concurrent creates
// cannot race.
func (r *Registry) Create(req CreateSessionRequest) (*Session, error) {
	if !validName(req.Name) {
		return nil, fmt.Errorf("invalid session name %q (want [A-Za-z0-9_-]{1,64})", req.Name)
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	if !validName(tenant) {
		return nil, fmt.Errorf("invalid tenant %q (want [A-Za-z0-9_-]{1,64})", tenant)
	}
	scale := req.Scale
	if scale <= 0 {
		scale = 1.0
	}

	r.mu.Lock()
	if _, ok := r.sessions[req.Name]; ok || r.building[req.Name] {
		r.mu.Unlock()
		return nil, ErrSessionExists
	}
	r.building[req.Name] = true
	r.mu.Unlock()

	// Admit before the (expensive) database build, so an over-quota
	// tenant cannot burn seconds of build CPU just to be rejected.
	// Acquire/release exactly brackets a session's life: journal replay
	// re-drives this same path, rebuilding the accounting.
	if v := r.quota.AcquireSession(tenant); !v.OK {
		r.mu.Lock()
		delete(r.building, req.Name)
		r.mu.Unlock()
		return nil, &quotaError{tenant: tenant, v: v}
	}

	// Sessions over the same (db, scale, seed) share one frozen
	// database; the build cost (seconds at scale) and the fingerprint
	// are paid once per spec.
	snap, snapKey, err := r.snaps.acquire(req.DB, scale, req.Seed)

	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.building, req.Name)
	if err != nil {
		r.quota.ReleaseSession(tenant)
		return nil, err
	}
	s := &Session{
		name:      req.Name,
		tenant:    tenant,
		dbName:    req.DB,
		db:        snap.DB(),
		fp:        snap.Fingerprint(),
		pool:      r.pool,
		tableMax:  r.tableMax,
		breaker:   &core.Breaker{},
		createdAt: time.Now(),
		snapKey:   snapKey,
		lock:      make(chan struct{}, 1),
		workloads: make(map[string]*registeredWorkload),
	}
	if req.Continuous != nil {
		s.cont = newContinuous(*req.Continuous, r.tableMax)
	}
	r.sessions[req.Name] = s
	return s, nil
}

// Get looks up a session.
func (r *Registry) Get(name string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[name]
	return s, ok
}

// List returns sessions sorted by name.
func (r *Registry) List() []*Session {
	r.mu.Lock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Delete removes a session. A session with a running job is busy
// (ErrSessionBusy); jobs still queued against a deleted session fail
// with "session deleted" when a worker picks them up.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[name]
	if !ok {
		return ErrSessionNotFound
	}
	if !s.tryAcquire() {
		return ErrSessionBusy
	}
	// Mark deleted before releasing the slot: already-queued jobs then
	// acquire, observe the flag and fail fast instead of searching.
	s.deleted.Store(true)
	if s.cont != nil {
		s.cont.stopTicker()
	}
	s.release()
	delete(r.sessions, name)
	r.snaps.release(s.snapKey)
	r.quota.ReleaseSession(s.tenant)
	return nil
}
