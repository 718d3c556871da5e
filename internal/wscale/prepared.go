package wscale

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/optimizer"
)

// Cache-key separators, mirroring core's checker keys: '\x1f' joins
// index keys inside an atom, '\x1d' separates the template namespace
// prefix. Neither occurs in table or column names.
const (
	keySepIndex = "\x1f"
	keySepNS    = "\x1d"
)

// maxBoundEntries caps the per-template list of exactly-costed atoms
// kept for lower-bound pruning; older entries are overwritten
// ring-style.
const maxBoundEntries = 16

// boundEntry is one exactly costed atom: its sorted index keys and
// cost. By cost monotonicity (adding indexes only adds access paths,
// and cost is a min over paths), any atom whose index set is a SUBSET
// of an entry's costs at least the entry's cost — an admissible lower
// bound for atoms not yet in the table.
type boundEntry struct {
	keys []string
	cost float64
}

// Prepared is a compressed workload ready for decomposed costing: the
// templates, the source workload's prepared descriptors, a relevance
// memo, the per-(template, atom) cost table, and the pruning bounds.
// Build once per (workload, statistics) pair — sessions build it at
// workload registration — and share across any number of concurrent
// searches.
type Prepared struct {
	C  *Compressed
	PW *optimizer.PreparedWorkload

	srv   core.CostServer
	table *costcache.Cache

	// Window mode (PrepareWindowed): tplKeys replace the positional
	// "t<i>" cache-key namespaces with fingerprint+epoch prefixes that
	// stay stable across window snapshots, and scales multiply the
	// table's unweighted member-cost sums by the template's current
	// weight/members factor at read time — so ingestion and decay
	// change costs without invalidating a single entry. Both nil in
	// registration mode, whose keys and entries stay byte-identical.
	tplKeys []string
	scales  []float64

	// rel answers which templates an index is relevant to, memoized for
	// the registration's lifetime. It is asked over Members[0] of every
	// template: members share tables, columns and operators, so
	// relevance is a template property.
	rel *optimizer.Relevance

	mu     sync.RWMutex
	bounds [][]boundEntry // per template, ring-capped
	nextBE []int          // per template, next ring slot

	optCalls atomic.Int64

	remoteBatches   atomic.Int64 // batched RPCs dispatched to workers
	remoteAtoms     atomic.Int64 // atoms costed remotely
	remoteFallbacks atomic.Int64 // batches that fell back to local sweeps
}

// Prepare pairs a compressed workload with its prepared descriptors
// and an empty cost table. maxEntries bounds the cost table's size
// (<= 0 means unbounded); srv prices members on table misses.
func Prepare(c *Compressed, pw *optimizer.PreparedWorkload, srv core.CostServer, maxEntries int) (*Prepared, error) {
	if len(pw.Queries) != len(c.W.Queries) {
		return nil, fmt.Errorf("wscale: prepared workload has %d queries, compressed workload %d",
			len(pw.Queries), len(c.W.Queries))
	}
	return newPrepared(c, pw, srv, costcache.NewBounded(0, maxEntries)), nil
}

func newPrepared(c *Compressed, pw *optimizer.PreparedWorkload, srv core.CostServer, table *costcache.Cache) *Prepared {
	reps := make([]*optimizer.PreparedQuery, len(c.Templates))
	for ti, t := range c.Templates {
		reps[ti] = pw.Queries[t.Members[0]]
	}
	return &Prepared{
		C:      c,
		PW:     pw,
		srv:    srv,
		table:  table,
		rel:    (&optimizer.PreparedWorkload{Queries: reps}).NewRelevance(),
		bounds: make([][]boundEntry, len(c.Templates)),
		nextBE: make([]int, len(c.Templates)),
	}
}

// PrepareWindowed pairs a window snapshot with a PERSISTENT cost table
// shared across snapshots: entries are keyed by the snapshot's
// fingerprint+epoch template prefixes and store unweighted member-cost
// sums, scaled by the template's current weight at read time. A
// re-tune over a drifted window therefore re-prices only templates
// whose member set changed (epoch bump) or that it has never seen —
// everything else is a table hit, no matter how the weights moved.
// Remote (worker-pool) filling is not supported in window mode; the
// caller must not set a RemoteCoster.
func PrepareWindowed(snap *WindowSnapshot, srv core.CostServer, table *costcache.Cache) (*Prepared, error) {
	if len(snap.PW.Queries) != len(snap.W.Queries) {
		return nil, fmt.Errorf("wscale: window snapshot has %d prepared queries, %d workload entries",
			len(snap.PW.Queries), len(snap.W.Queries))
	}
	if len(snap.TplKeys) != len(snap.C.Templates) || len(snap.Scales) != len(snap.C.Templates) {
		return nil, fmt.Errorf("wscale: window snapshot has %d templates, %d keys, %d scales",
			len(snap.C.Templates), len(snap.TplKeys), len(snap.Scales))
	}
	if table == nil {
		table = costcache.NewBounded(0, 0)
	}
	p := newPrepared(snap.C, snap.PW, srv, table)
	p.tplKeys, p.scales = snap.TplKeys, snap.Scales
	return p, nil
}

// scale returns the template's read-time multiplier (1 in registration
// mode, whose entries are already weighted).
func (p *Prepared) scale(ti int) float64 {
	if p.scales == nil {
		return 1
	}
	return p.scales[ti]
}

// tableGet reads a (template, atom) entry, applying the window-mode
// scale. All cost-table reads go through here (or costAtom) so the two
// modes cannot mix units.
func (p *Prepared) tableGet(ti int, key string) (float64, bool) {
	v, ok := p.table.Get(key)
	if !ok {
		return 0, false
	}
	return v * p.scale(ti), true
}

// TableStats returns the cost table's hit/miss/dedup counters.
func (p *Prepared) TableStats() (hits, misses, dedups int64) { return p.table.Stats() }

// TableLen returns the number of cached (template, atom) entries.
func (p *Prepared) TableLen() int { return p.table.Len() }

// TableBytes returns the cost table's approximate resident footprint
// (see costcache.Bytes) — the accounting basis for memory budgets.
func (p *Prepared) TableBytes() int64 { return p.table.Bytes() }

// TableEvictOldest sheds up to n of the table's oldest entries (see
// costcache.EvictOldest); the brownout ladder uses it under memory
// pressure.
func (p *Prepared) TableEvictOldest(n int) int { return p.table.EvictOldest(n) }

// OptimizerCalls counts CostPrepared invocations made to fill the
// table.
func (p *Prepared) OptimizerCalls() int64 { return p.optCalls.Load() }

// maxStackRels sizes the callers' stack buffers for relevance: a
// configuration of up to this many indexes is priced without a heap
// allocation for its relevance list.
const maxStackRels = 64

// relevant returns the templates whose queries the index can contribute
// an access path to.
func (p *Prepared) relevant(ix *core.Index) optimizer.QuerySet {
	return p.rel.Queries(ix.Key(), ix.Def)
}

// relevance appends relevant(ix) for every index of cfg, aligned with
// cfg.Indexes: one memo lookup per index, a bit test per template after.
func (p *Prepared) relevance(rels []optimizer.QuerySet, cfg *core.Configuration) []optimizer.QuerySet {
	for _, ix := range cfg.Indexes {
		rels = append(rels, p.relevant(ix))
	}
	return rels
}

// atom computes the template's atomic configuration under cfg, whose
// per-index relevance is rels: the relevant indexes in sorted-key order
// (cost is a min over access paths, so index order cannot change it —
// sorting makes the cache key canonical). Returns the cache key, the
// defs to cost against, and the sorted index keys for bound pruning.
func (p *Prepared) atom(ti int, cfg *core.Configuration, rels []optimizer.QuerySet) (key string, defs []catalog.IndexDef, keys []string) {
	var sel []*core.Index
	for i, ix := range cfg.Indexes {
		if rels[i].Has(ti) {
			sel = append(sel, ix)
		}
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].Key() < sel[j].Key() })
	keys = make([]string, len(sel))
	defs = make([]catalog.IndexDef, len(sel))
	var b strings.Builder
	if p.tplKeys != nil {
		b.WriteString(p.tplKeys[ti])
	} else {
		b.WriteString("t")
		b.WriteString(strconv.Itoa(ti))
	}
	b.WriteString(keySepNS)
	for i, ix := range sel {
		keys[i] = ix.Key()
		defs[i] = ix.Def
		b.WriteString(keys[i])
		b.WriteString(keySepIndex)
	}
	return b.String(), defs, keys
}

// costAtom returns the template's weighted exact cost under the atom,
// from the table or by summing Freq × CostPrepared over every member.
// Exactness: an index outside the atom contributes no access path to
// any member (optimizer.PreparedQuery.IndexRelevant), so the sum
// equals the members' costs under the full configuration. In window
// mode the table entry is the UNWEIGHTED member-cost sum and the
// template's scale is applied on the way out, so the entry survives
// any later weight change.
func (p *Prepared) costAtom(ctx context.Context, ti int, key string, defs []catalog.IndexDef, keys []string, calls *atomic.Int64) (float64, error) {
	if v, ok := p.tableGet(ti, key); ok {
		return v, nil
	}
	v, err := p.table.Do(key, func() (float64, error) {
		t := p.C.Templates[ti]
		cfg := optimizer.Configuration(defs)
		var sum float64
		for _, mi := range t.Members {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			c, err := p.srv.CostPrepared(p.PW.Queries[mi], cfg)
			if err != nil {
				return 0, err
			}
			p.optCalls.Add(1)
			if calls != nil {
				calls.Add(1)
			}
			if p.scales != nil {
				sum += c
			} else {
				sum += c * p.C.W.Queries[mi].Freq
			}
		}
		return sum, nil
	})
	if err != nil {
		return 0, err
	}
	v *= p.scale(ti)
	p.recordBound(ti, keys, v)
	return v, nil
}

// recordBound remembers an exactly costed atom for lower-bound
// pruning.
func (p *Prepared) recordBound(ti int, keys []string, cost float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.bounds[ti] {
		if stringSlicesEqual(e.keys, keys) {
			return
		}
	}
	e := boundEntry{keys: append([]string(nil), keys...), cost: cost}
	if len(p.bounds[ti]) < maxBoundEntries {
		p.bounds[ti] = append(p.bounds[ti], e)
		return
	}
	p.bounds[ti][p.nextBE[ti]%maxBoundEntries] = e
	p.nextBE[ti]++
}

// lowerBound returns an admissible lower bound for the atom's cost: the
// maximum recorded cost among exactly costed SUPERSETS of its index
// set (a subset of a configuration can never cost less than the
// configuration), or 0 when no superset has been costed. The bound
// inherits the degenerate caveat of the intersection arm cap
// (maxIntersectArms) — see DESIGN.md §12 — which is why pruning only
// ever fast-rejects; accepts are always exact.
func (p *Prepared) lowerBound(ti int, keys []string) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lb := 0.0
	for _, e := range p.bounds[ti] {
		if e.cost > lb && isSubset(keys, e.keys) {
			lb = e.cost
		}
	}
	return lb
}

// isSubset reports sub ⊆ super for sorted string slices.
func isSubset(sub, super []string) bool {
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j >= len(super) || super[j] != s {
			return false
		}
		j++
	}
	return true
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WorkloadCostContext prices the whole workload under cfg by
// decomposition. Totals sum in template order, so the delta and full
// paths of the checker agree bit for bit; they can differ from the
// workload-order summation of optimizer.WorkloadCostPrepared in the
// last ulp.
func (p *Prepared) WorkloadCostContext(ctx context.Context, cfg *core.Configuration) (float64, error) {
	return p.WorkloadCostRemoteContext(ctx, cfg, nil)
}

// WorkloadCostRemoteContext is WorkloadCostContext with cost-table
// misses batched to a worker pool (identical totals; local fallback
// on any failure).
func (p *Prepared) WorkloadCostRemoteContext(ctx context.Context, cfg *core.Configuration, remote RemoteCoster) (float64, error) {
	_, total, err := p.templateCosts(ctx, cfg, 1, nil, remote)
	return total, err
}

// templateCosts prices every template under cfg, filling table misses
// remotely (when remote is non-nil) or with up to parallelism
// concurrent member sweeps, and returns the per-template costs plus
// their template-order sum.
func (p *Prepared) templateCosts(ctx context.Context, cfg *core.Configuration, parallelism int, calls *atomic.Int64, remote RemoteCoster) ([]float64, float64, error) {
	n := len(p.C.Templates)
	costs := make([]float64, n)
	var misses []pendingAtom
	var relBuf [maxStackRels]optimizer.QuerySet
	rels := p.relevance(relBuf[:0], cfg)
	for ti := 0; ti < n; ti++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		key, defs, keys := p.atom(ti, cfg, rels)
		if v, ok := p.tableGet(ti, key); ok {
			costs[ti] = v
			continue
		}
		misses = append(misses, pendingAtom{ti: ti, key: key, defs: defs, keys: keys})
	}
	if err := p.fillMisses(ctx, misses, costs, parallelism, calls, remote); err != nil {
		return nil, 0, err
	}
	total := 0.0
	for _, c := range costs {
		total += c
	}
	return costs, total, nil
}

// pendingAtom is one uncached (template, atom) pair awaiting exact
// costing.
type pendingAtom struct {
	ti   int
	key  string
	defs []catalog.IndexDef
	keys []string
}

// RemoteAtom is one (template, atomic-configuration) pair shipped to
// a what-if worker pool for exact costing.
type RemoteAtom struct {
	Template int
	Defs     []catalog.IndexDef
}

// RemoteCoster prices a batch of template atoms in a single round
// trip — the coordinator→worker-pool contract for distributed
// cost-table filling (internal/distrib provides the implementation).
// Each returned cost must be the exact member sum Σ Freq ×
// CostPrepared the local sweep would produce, bit for bit;
// implementations in doubt return an error and the caller sweeps
// locally.
type RemoteCoster interface {
	CostTemplateBatch(ctx context.Context, atoms []RemoteAtom) ([]float64, error)
}

// fillMissesRemote installs every pending atom from one batched
// worker-pool call, through the same cost-table Do path — and with
// the same optimizer-call accounting (one per template member) — as
// the local sweep, so table contents and counters stay byte-identical
// to a local run. Returns false, with costs untouched, on any RPC
// error, short response, or non-finite cost.
func (p *Prepared) fillMissesRemote(ctx context.Context, misses []pendingAtom, costs []float64, calls *atomic.Int64, remote RemoteCoster) bool {
	atoms := make([]RemoteAtom, len(misses))
	for i, m := range misses {
		atoms[i] = RemoteAtom{Template: m.ti, Defs: m.defs}
	}
	vals, err := remote.CostTemplateBatch(ctx, atoms)
	if err != nil || len(vals) != len(misses) {
		return false
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	for i, m := range misses {
		m := m
		v, err := p.table.Do(m.key, func() (float64, error) {
			n := int64(len(p.C.Templates[m.ti].Members))
			p.optCalls.Add(n)
			if calls != nil {
				calls.Add(n)
			}
			return vals[i], nil
		})
		if err != nil {
			return false
		}
		costs[m.ti] = v
		p.recordBound(m.ti, m.keys, v)
	}
	return true
}

// RemoteStats reports distributed cost-table activity: batched RPCs
// dispatched, atoms costed remotely, and batches that fell back to
// the local member sweep.
func (p *Prepared) RemoteStats() (batches, atoms, fallbacks int64) {
	return p.remoteBatches.Load(), p.remoteAtoms.Load(), p.remoteFallbacks.Load()
}

// fillMisses computes the pending atoms exactly — in one batched
// worker-pool round trip when remote is non-nil (falling back locally
// on any failure), otherwise with up to parallelism concurrent member
// sweeps behind core.EvalEach's panic boundary.
func (p *Prepared) fillMisses(ctx context.Context, misses []pendingAtom, costs []float64, parallelism int, calls *atomic.Int64, remote RemoteCoster) error {
	if len(misses) == 0 {
		return nil
	}
	if p.scales != nil {
		// Window mode stores unweighted sums; the remote protocol ships
		// weighted ones. Local sweeps only.
		remote = nil
	}
	if remote != nil {
		if p.fillMissesRemote(ctx, misses, costs, calls, remote) {
			p.remoteBatches.Add(1)
			p.remoteAtoms.Add(int64(len(misses)))
			return nil
		}
		p.remoteFallbacks.Add(1)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	eval := func(i int) error {
		m := misses[i]
		v, err := p.costAtom(ctx, m.ti, m.key, m.defs, m.keys, calls)
		if err != nil {
			return err
		}
		costs[m.ti] = v
		return nil
	}
	return core.EvalEach(len(misses), parallelism, eval)
}
