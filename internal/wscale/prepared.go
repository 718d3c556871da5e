package wscale

import (
	"fmt"

	"indexmerge/internal/core"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/optimizer"
)

// Prepared is a compressed workload ready for decomposed costing: the
// templates, the source workload's prepared descriptors, and core's
// pricing engine over its cost table, one unit per template. Every
// optimizer-backed cost model prices the workload through this one
// engine: at dedup ratio 1 a template unit is a query's. Build once per
// (workload, statistics) pair — sessions build it at workload
// registration — and share across any number of concurrent searches.
type Prepared struct {
	C  *Compressed
	PW *optimizer.PreparedWorkload

	// Pricer prices configurations over the template units; its
	// WorkloadCostContext and OptimizerCalls are Prepared's.
	*core.Pricer
	table *costcache.Cache
}

// Prepare pairs a compressed workload with its prepared descriptors
// and an empty cost table. maxEntries bounds the cost table's size
// (<= 0 means unbounded); srv prices members on table misses. A
// template's cell is its members' frequency-weighted cost, identified
// by the template's ordinal and read as is.
func Prepare(c *Compressed, pw *optimizer.PreparedWorkload, srv core.CostServer, maxEntries int) (*Prepared, error) {
	if len(pw.Queries) != len(c.W.Queries) {
		return nil, fmt.Errorf("wscale: prepared workload has %d queries, compressed workload %d",
			len(pw.Queries), len(c.W.Queries))
	}
	weights := make([]float64, 0, len(c.W.Queries))
	ids := make([]uint32, len(c.Templates))
	units := make([]core.Unit, len(c.Templates))
	for ti, t := range c.Templates {
		lo := len(weights)
		for _, mi := range t.Members {
			weights = append(weights, c.W.Queries[mi].Freq)
		}
		ids[ti] = uint32(ti)
		units[ti] = core.Unit{Members: t.Members, Weights: weights[lo:], Scale: 1, ID: ids[ti : ti+1 : ti+1]}
	}
	return newPrepared(c, pw, srv, units, costcache.NewBounded(0, maxEntries)), nil
}

func newPrepared(c *Compressed, pw *optimizer.PreparedWorkload, srv core.CostServer, units []core.Unit, table *costcache.Cache) *Prepared {
	return &Prepared{C: c, PW: pw, table: table, Pricer: core.NewPricer(srv, pw, units, table)}
}

// PrepareWindowed pairs a window snapshot with a PERSISTENT cost table
// shared across snapshots: a template's cell is its members' unweighted
// cost sum, identified by the template's fingerprint digest and epoch
// (TemplateKey), scaled by the template's current weight/members factor
// when it is read. A re-tune over a drifted window therefore re-prices
// only templates whose member set changed (a new epoch) or that it has
// never seen — everything else is a table hit, no matter how the weights
// moved.
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
		table = costcache.New()
	}
	ones := make([]float64, len(snap.W.Queries))
	for i := range ones {
		ones[i] = 1
	}
	ids := make([]uint32, 0, 4*len(snap.C.Templates))
	units := make([]core.Unit, len(snap.C.Templates))
	for ti, t := range snap.C.Templates {
		lo := len(ids)
		ids = snap.TplKeys[ti].appendWords(ids)
		units[ti] = core.Unit{Members: t.Members, Weights: ones[:len(t.Members)], Scale: snap.Scales[ti], ID: ids[lo:len(ids):len(ids)]}
	}
	return newPrepared(snap.C, snap.PW, srv, units, table), nil
}

// TableStats returns the cost table's counters: hits, misses, and fills
// that lost a race (see costcache.Stats).
func (p *Prepared) TableStats() (hits, misses, races int64) { return p.table.Stats() }

// TableLen returns the number of cells in the cost table.
func (p *Prepared) TableLen() int { return p.table.Len() }

// TableBytes returns the cost table's approximate resident footprint
// (see costcache.Bytes) — the accounting basis for memory budgets.
func (p *Prepared) TableBytes() int64 { return p.table.Bytes() }

// TableEvictOldest sheds up to n of the table's oldest entries (see
// costcache.EvictOldest); the brownout ladder uses it under memory
// pressure.
func (p *Prepared) TableEvictOldest(n int) int { return p.table.EvictOldest(n) }
