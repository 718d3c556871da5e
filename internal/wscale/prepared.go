package wscale

import (
	"fmt"
	"strconv"
	"sync"

	"indexmerge/internal/core"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/optimizer"
)

// keySepNS ends a template's key prefix; it occurs in no table or column
// name.
const keySepNS = "\x1d"

// Prepared is a compressed workload ready for decomposed costing: the
// templates, the source workload's prepared descriptors, and core's
// pricing engines over its cost table — one unit per template, and on
// first use one unit per query (QueryPricer). Build once per (workload,
// statistics) pair — sessions build it at workload registration — and
// share across any number of concurrent searches.
type Prepared struct {
	C  *Compressed
	PW *optimizer.PreparedWorkload

	// Pricer prices configurations over the template units; its
	// WorkloadCostContext, OptimizerCalls and RemoteStats are Prepared's.
	*core.Pricer
	table *costcache.Cache

	// ownsTable says the table lives exactly as long as this form, so the
	// per-query engine's cells, which encode positions and frequencies, may
	// live in it too. A window's table outlives every snapshot.
	ownsTable bool
	srv       core.CostServer
	queryOnce sync.Once
	queries   *core.Pricer
}

// Prepare pairs a compressed workload with its prepared descriptors
// and an empty cost table. maxEntries bounds the cost table's size
// (<= 0 means unbounded); srv prices members on table misses. A
// template's cell is its members' frequency-weighted cost under keys
// "t<template>\x1d…", read as is.
func Prepare(c *Compressed, pw *optimizer.PreparedWorkload, srv core.CostServer, maxEntries int) (*Prepared, error) {
	if len(pw.Queries) != len(c.W.Queries) {
		return nil, fmt.Errorf("wscale: prepared workload has %d queries, compressed workload %d",
			len(pw.Queries), len(c.W.Queries))
	}
	weights := make([]float64, 0, len(c.W.Queries))
	units := make([]core.Unit, len(c.Templates))
	for ti, t := range c.Templates {
		lo := len(weights)
		for _, mi := range t.Members {
			weights = append(weights, c.W.Queries[mi].Freq)
		}
		units[ti] = core.Unit{Members: t.Members, Weights: weights[lo:], Scale: 1, Prefix: "t" + strconv.Itoa(ti) + keySepNS}
	}
	p := newPrepared(c, pw, srv, units, costcache.NewBounded(0, maxEntries))
	p.ownsTable = true
	return p, nil
}

func newPrepared(c *Compressed, pw *optimizer.PreparedWorkload, srv core.CostServer, units []core.Unit, table *costcache.Cache) *Prepared {
	return &Prepared{C: c, PW: pw, table: table, srv: srv,
		Pricer: core.NewPricer("Cost-Opt-Compressed", srv, pw, units, table)}
}

// PrepareWindowed pairs a window snapshot with a PERSISTENT cost table
// shared across snapshots: a template's cell is its members' unweighted
// cost sum under the snapshot's fingerprint+epoch key, scaled by the
// template's current weight/members factor when it is read. A re-tune
// over a drifted window therefore re-prices only templates whose member
// set changed (epoch bump) or that it has never seen — everything else
// is a table hit, no matter how the weights moved. The snapshot's
// per-query engine keeps its cells in a store of its own.
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
	ones := make([]float64, len(snap.W.Queries))
	for i := range ones {
		ones[i] = 1
	}
	units := make([]core.Unit, len(snap.C.Templates))
	for ti, t := range snap.C.Templates {
		units[ti] = core.Unit{Members: t.Members, Weights: ones[:len(t.Members)], Scale: snap.Scales[ti], Prefix: snap.TplKeys[ti] + keySepNS}
	}
	return newPrepared(snap.C, snap.PW, srv, units, table), nil
}

// QueryPricer returns the engine over one unit per workload query — the
// plain cost model's units — built on first use. A form Prepare built
// keeps its cells in the cost table beside the templates' (keys
// "q<position>|…"), so they live, are bounded, counted and evicted with
// the registration; a window snapshot's keeps them in a private store.
func (p *Prepared) QueryPricer() *core.Pricer {
	p.queryOnce.Do(func() {
		store := p.table
		if !p.ownsTable {
			store = costcache.New(0)
		}
		p.queries = core.NewQueryPricer(p.srv, p.C.W, p.PW, store)
	})
	return p.queries
}

// TableStats returns the cost table's hit/miss/dedup counters, over the
// cells of both engines when the table holds both.
func (p *Prepared) TableStats() (hits, misses, dedups int64) { return p.table.Stats() }

// TableLen returns the number of cells in the cost table.
func (p *Prepared) TableLen() int { return p.table.Len() }

// TableBytes returns the cost table's approximate resident footprint
// (see costcache.Bytes) — the accounting basis for memory budgets.
func (p *Prepared) TableBytes() int64 { return p.table.Bytes() }

// TableEvictOldest sheds up to n of the table's oldest entries (see
// costcache.EvictOldest); the brownout ladder uses it under memory
// pressure.
func (p *Prepared) TableEvictOldest(n int) int { return p.table.EvictOldest(n) }
