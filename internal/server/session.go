package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indexmerge"
	"indexmerge/internal/datagen"
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
	createdAt time.Time
	deleted   atomic.Bool

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
// and the cost table of every cost model's cells — built once at
// registration against the session's (immutable) statistics, and the
// Merger over it that every job on the workload runs on. Costing
// requests read the form directly. Journal replay rebuilds workloads
// through this same path, so recovered sessions re-derive the
// compression automatically.
type registeredWorkload struct {
	compressed *wscale.Prepared // never nil: RegisterWorkload is the only constructor
	merger     *indexmerge.Merger
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
	hits, misses, _ := rw.compressed.TableStats()
	return WorkloadInfo{
		Name: name, Queries: rw.compressed.C.W.Len(),
		Templates:        len(rw.compressed.C.Templates),
		DedupRatio:       rw.compressed.C.DedupRatio(),
		CostTableEntries: rw.compressed.TableLen(),
		CostTableHits:    hits,
		CostTableMisses:  misses,
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
// each registered workload's cost table and the indexes its engine met
// and — for continuous sessions — the windowed cost table plus the
// workload window itself: what tenant memory budgets and the global
// brownout pressure are computed over.
func (s *Session) accountedBytes() int64 {
	var total int64
	s.mu.Lock()
	for _, rw := range s.workloads {
		total += rw.compressed.TableBytes() + rw.compressed.IndexBytes()
	}
	s.mu.Unlock()
	if s.cont != nil {
		total += s.cont.bytes()
	}
	return total
}

// Registry holds the server's sessions.
type Registry struct {
	mu       sync.Mutex
	sessions map[string]*Session
	building map[string]string // name -> tenant, reserved while its DB builds
	tableMax int               // bound of every cost table (entries)
	quota    *quota.Controller // per-tenant admission policy
	snaps    snapshotCache
}

// NewRegistry creates an empty registry. tableMax bounds each
// registered workload's and each continuous window's cost table (<= 0
// means unbounded); qc is the per-tenant admission controller (never
// nil).
func NewRegistry(tableMax int, qc *quota.Controller) *Registry {
	return &Registry{
		sessions: make(map[string]*Session),
		building: make(map[string]string),
		tableMax: tableMax,
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

// tenantSessionsLocked counts tenant's live sessions and in-flight
// builds; r.mu is held.
func (r *Registry) tenantSessionsLocked(tenant string) int {
	n := 0
	for _, s := range r.sessions {
		if s.tenant == tenant {
			n++
		}
	}
	for _, t := range r.building {
		if t == tenant {
			n++
		}
	}
	return n
}

// liveTenant reports whether tenant holds a live session.
func (r *Registry) liveTenant(tenant string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sessions {
		if s.tenant == tenant {
			return true
		}
	}
	return false
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
	if _, ok := r.sessions[req.Name]; ok || r.building[req.Name] != "" {
		r.mu.Unlock()
		return nil, ErrSessionExists
	}
	// Admit before the (expensive) database build, so an over-quota
	// tenant cannot burn seconds of build CPU just to be rejected. A build
	// in flight counts as a session, so concurrent creates cannot all pass.
	if v := r.quota.CheckSessions(r.tenantSessionsLocked(tenant)); !v.OK {
		r.mu.Unlock()
		return nil, &quotaError{tenant: tenant, v: v}
	}
	r.building[req.Name] = tenant
	r.mu.Unlock()
	// However the build ends — a session, an error or a panic — the
	// name's reservation goes, and a built session takes its place.
	var built *Session
	defer func() {
		r.mu.Lock()
		delete(r.building, req.Name)
		if built != nil {
			r.sessions[req.Name] = built
		}
		r.mu.Unlock()
		r.quota.Sweep()
	}()

	// Sessions over the same (db, scale, seed) share one frozen
	// database; the build cost (seconds at scale) is paid once per spec.
	snap, snapKey, err := r.snaps.acquire(req.DB, scale, req.Seed)
	if err != nil {
		return nil, err
	}
	s := &Session{
		name:      req.Name,
		tenant:    tenant,
		dbName:    req.DB,
		db:        snap.DB(),
		tableMax:  r.tableMax,
		createdAt: time.Now(),
		snapKey:   snapKey,
		lock:      make(chan struct{}, 1),
		workloads: make(map[string]*registeredWorkload),
	}
	if req.Continuous != nil {
		s.cont = newContinuous(*req.Continuous, r.tableMax)
	}
	built = s
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
	r.quota.Sweep()
	return nil
}
