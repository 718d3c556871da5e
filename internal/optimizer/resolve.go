package optimizer

import "indexmerge/internal/catalog"

// indexInfo is one configuration index as the planner compares it: the
// table it is on, its key columns as ordinals of that table's columns
// (noColumn for a name the table lacks) in key order and as a set, and
// the stored width of its key, from which indexSize prices it.
// Everything here depends on the index alone, never on the query.
type indexInfo struct {
	table *catalog.Table // nil when the schema has no such table
	cols  []int32
	set   colSet
	width int
	ok    bool // resolved (see begin and planner.index)

	// pages and height size the index over sizedRows rows, kept from the
	// first plan that sized it (see indexSize) while the planner holds
	// the entry.
	sized     bool
	sizedRows int64
	pages     int64
	height    int
}

// resolved is a configuration as the planner compares it, aligned with
// it, and the backing arrays of its entries' ordinals and set words,
// which a pooled planner keeps for reuse.
type resolved struct {
	schema *catalog.Schema // resolved in full against it for a loop; nil otherwise
	ix     []indexInfo
	ords   []int32
	words  []uint64
}

// add resolves key columns cols of an index on table t into x,
// appending to r's arrays, which x then aliases. It fills x in place: an
// indexInfo is too wide to return by value on the planner's hot path.
func (r *resolved) add(x *indexInfo, t *catalog.Table, cols []string) {
	x.table, x.set, x.width, x.ok, x.sized = t, colSet{}, 0, true, false
	if n := (len(t.Columns) - 1) / 64; n > 0 {
		from := len(r.words)
		for range n {
			r.words = append(r.words, 0)
		}
		x.set.hi = r.words[from : from+n : from+n]
	}
	from := len(r.ords)
	for _, c := range cols {
		i := int32(t.ColumnIndex(c))
		if i >= 0 {
			x.width += t.Columns[i].Width
		}
		r.ords = append(r.ords, i)
		x.set.add(i)
	}
	x.cols = r.ords[from:len(r.ords):len(r.ords)]
}

// resolve resolves every index of cfg against sc.
func (r *resolved) resolve(sc *catalog.Schema, cfg Configuration) {
	r.reset(cfg)
	r.schema = sc
	for i := range cfg {
		if t, ok := sc.Table(cfg[i].Table); ok {
			r.add(&r.ix[i], t, cfg[i].Columns)
		}
	}
}

// ResolvedIndex is an index definition resolved once against a schema:
// what the planner compares of it. A caller that prices one index under
// many configurations — a merge search — resolves it once and hands
// CostPreparedSum the resolved indexes beside their definitions, so that
// no call turns its names into ordinals again. Read-only once built.
type ResolvedIndex struct {
	schema *catalog.Schema
	info   indexInfo
}

// Resolve resolves def against the schema the workload's first
// descriptor was prepared against (a workload without descriptors
// resolves nothing). A descriptor prepared against another schema has
// the definition resolved again, by name, for itself.
func (pw *PreparedWorkload) Resolve(def catalog.IndexDef) *ResolvedIndex {
	rx := new(ResolvedIndex)
	if len(pw.Queries) == 0 {
		return rx
	}
	rx.schema = pw.Queries[0].schema
	if t, ok := rx.schema.Table(def.Table); ok {
		new(resolved).add(&rx.info, t, def.Columns)
	}
	return rx
}

// use readies r for a loop over cfg, given cfg's indexes resolved by the
// caller (rxs, aligned with it, or nil): resolved in full against their
// schema when they share one, else left for begin to resolve by name.
func (r *resolved) use(cfg Configuration, rxs []*ResolvedIndex) {
	r.schema = nil
	if len(rxs) == 0 || len(rxs) != len(cfg) {
		return
	}
	r.reset(cfg)
	for i, rx := range rxs {
		if rx.schema != rxs[0].schema {
			return
		}
		r.ix[i] = rx.info
	}
	r.schema = rxs[0].schema
}

// reset empties r for cfg: no entry resolved, the arrays reused.
func (r *resolved) reset(cfg Configuration) {
	if cap(r.ix) < len(cfg) {
		r.ix = make([]indexInfo, len(cfg))
	}
	r.ix = r.ix[:len(cfg)]
	clear(r.ix)
	r.schema = nil
	r.ords, r.words = r.ords[:0], r.words[:0]
}

// begin readies the planner for one call: pq under cfg, and the
// positions of the indexes on each of pq's tables. A call of a loop
// (pass set, see each) finds cfg resolved in full by an earlier call of
// the loop, or resolves it now — on the loop's first call, and again
// for a descriptor prepared against another schema. A one-off call
// starts afresh and resolves an index on one of the query's tables the
// first time the plan touches it (index). With a warm planner neither
// allocates.
func (p *planner) begin(pq *PreparedQuery, cfg Configuration, pass bool) {
	p.pq, p.cfg = pq, cfg
	r := &p.res
	switch {
	case !pass:
		r.reset(cfg)
	case r.schema != pq.schema:
		r.resolve(pq.schema, cfg)
	}
	p.on, p.onEnd = p.on[:0], p.onEnd[:0]
	for _, ti := range pq.tables {
		for i := range cfg {
			if pass && r.ix[i].table != ti.table || !pass && cfg[i].Table != ti.name {
				continue
			}
			p.on = append(p.on, int32(i))
		}
		p.onEnd = append(p.onEnd, len(p.on))
	}
}

// before reports whether configuration index i comes before j in key
// order (catalog.CompareKeys), the position deciding between two
// definitions of one key. Every choice the planner makes between equals
// goes to the index first in that order, so that a plan — and its cost —
// is the one of the configuration listed in key order, whatever order
// the caller lists it in.
func (p *planner) before(i, j int32) bool {
	if c := catalog.CompareKeys(&p.cfg[i], &p.cfg[j]); c != 0 {
		return c < 0
	}
	return i < j
}

// earlier reports whether access path a, enumerated after b, comes
// before it in key order: both read an index, and a's comes first (see
// before). Enumeration order stands for every other pair: the heap scan
// first, an index's covering scan before its seek, intersections after
// every index path and unions last.
func (p *planner) earlier(a, b *accessPath) bool {
	return (a.kind == indexScan || a.kind == indexSeek) && (b.kind == indexScan || b.kind == indexSeek) &&
		a.idx != b.idx && p.before(a.idx, b.idx)
}

// indexesOn returns the configuration positions of the indexes on the
// query's table t, in configuration order.
func (p *planner) indexesOn(t int) []int32 {
	from := 0
	if t > 0 {
		from = p.onEnd[t-1]
	}
	return p.on[from:p.onEnd[t]]
}

// index returns configuration index i, which is on table ti, resolved:
// as it stands, or now, if this is the first time a one-off call needs
// it.
func (p *planner) index(i int32, ti *tableInfo) *indexInfo {
	x := &p.res.ix[i]
	if !x.ok {
		p.res.add(x, ti.table, p.cfg[i].Columns)
	}
	return x
}
