package optimizer

import (
	"fmt"
	"math/bits"
)

// maxDPTables bounds the dynamic-programming join search; wider joins
// would need a greedy fallback, which the workloads here never hit.
const maxDPTables = 10

// dpCell is the cheapest left-deep plan found for one subset of the
// query's tables, with the choice that produced it: the table joined
// last, the join algorithm and, for an index nested-loop join, the
// configuration position of the inner seek's index. Single-table
// subsets hold the table's cheapest access path (planner.base).
type dpCell struct {
	cost, rows float64
	ok         bool
	last       int8
	kind       JoinKind
	inner      int32
}

// outputRows is the row estimate the subset's plan reports and finish
// consumes. Joins above read dpCell.rows, which is floored at one row;
// a cross product reports its own unfloored estimate.
func (p *planner) outputRows(mask int) float64 {
	c := &p.dp[mask]
	if c.kind != NLJoin {
		return c.rows
	}
	return p.dp[mask&^(1<<uint(c.last))].rows * p.pq.tables[c.last].filteredRows
}

// joinOrder performs left-deep join-order search over the query's
// tables, considering hash joins and index nested-loop joins (the
// inner side parameterized by the join columns). It leaves the cell of
// every subset in p.dp — the full set's is the last — and each table's
// cheapest access path in p.base, for the build step.
func (p *planner) joinOrder() error {
	tables := p.pq.tables
	n := len(tables)
	if n > maxDPTables {
		return fmt.Errorf("optimizer: %d-way joins unsupported (max %d)", n, maxDPTables)
	}
	size := 1 << uint(n)
	if cap(p.base) < n {
		p.base = make([]accessPath, n)
	}
	p.base = p.base[:n]
	if cap(p.dp) < size {
		p.dp = make([]dpCell, size)
	}
	p.dp = p.dp[:size]
	for i := range p.dp {
		p.dp[i] = dpCell{}
	}

	// Base: the cheapest access path per table, which a join step also
	// uses for its right side.
	for i := range tables {
		paths := p.enumeratePaths(i)
		best := &paths[0]
		for j := 1; j < len(paths); j++ {
			if paths[j].cost < best.cost {
				best = &paths[j]
			}
		}
		p.base[i] = *best
		p.dp[1<<uint(i)] = dpCell{cost: best.cost, rows: best.rows, ok: true}
	}

	for mask := 3; mask < size; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		var entry dpCell
		for t := 0; t < n; t++ {
			bit := 1 << uint(t)
			if mask&bit == 0 {
				continue
			}
			rest := mask &^ bit
			if !p.dp[rest].ok {
				continue
			}
			if cand := p.joinCost(rest, t); !entry.ok || cand.cost < entry.cost {
				entry = cand
			}
		}
		p.dp[mask] = entry
	}
	if !p.dp[size-1].ok {
		return fmt.Errorf("optimizer: no join plan found")
	}
	return nil
}

// joinCost joins the best plan for subset `rest` with table t and
// returns the cheapest of hash join (nested-loop cross product when no
// predicate connects them) and index nested-loop join.
func (p *planner) joinCost(rest, t int) dpCell {
	pq := p.pq
	ti := pq.tables[t]
	left := &p.dp[rest]
	jsel := 1.0
	connected := false
	for k := range pq.joins {
		if pq.joins[k].connects(rest, t) {
			jsel *= pq.joins[k].sel
			connected = true
		}
	}
	rightRows := ti.filteredRows
	outRows := left.rows * rightRows * clampSel(jsel)
	if outRows < 1 {
		outRows = 1
	}
	outer := left.rows
	if outer < 1 {
		outer = 1
	}
	cell := dpCell{rows: outRows, ok: true, last: int8(t)}
	if !connected {
		cell.kind = NLJoin
		cell.cost = left.cost + outer*p.base[t].cost + left.rows*rightRows*CPUOpCost
		return cell
	}
	buildRows, probeRows := rightRows, left.rows
	if left.rows < rightRows {
		buildRows, probeRows = left.rows, rightRows
	}
	cell.kind = HashJoin
	cell.cost = left.cost + p.base[t].cost + hashJoinCost(buildRows, probeRows) + outRows*CPUOpCost
	// Index nested-loop join: parameterize the inner by the join columns.
	if innerCost, inner, ok := p.innerSeek(rest, t); ok {
		if c := left.cost + outer*innerCost + outRows*CPUOpCost; c < cell.cost {
			cell.kind, cell.cost, cell.inner = IndexNLJoin, c, inner
		}
	}
	return cell
}

// probePreds extends table t's predicates with the synthetic equality
// probes of the join columns connecting it to rest (deduplicated by
// column, in join-predicate order) — the list an inner seek matches.
// The result lives in the planner and is valid until the next call.
func (p *planner) probePreds(rest, t int) []scoredPred {
	pq := p.pq
	ti := pq.tables[t]
	ext := append(p.ext[:0], ti.preds...)
	for k := range pq.joins {
		j := &pq.joins[k]
		if !j.connects(rest, t) {
			continue
		}
		col := j.myCol(t)
		if hasSynth(ext[len(ti.preds):], col) {
			continue
		}
		for si := range ti.synth {
			if ti.synth[si].col == col {
				ext = append(ext, ti.synth[si])
				break
			}
		}
	}
	p.ext = ext
	return ext
}

// innerSeek finds the cheapest parameterized inner access for an index
// nested-loop join of table t to rest: an index seek whose equality
// prefix consumes at least one join probe. Intersections and unions
// do not qualify, so only plain seeks are priced.
func (p *planner) innerSeek(rest, t int) (cost float64, idx int32, found bool) {
	ti := p.pq.tables[t]
	ext := p.probePreds(rest, t)
	for _, i := range p.indexesOn(t) {
		x := p.index(i, ti)
		if p.filter && !indexRelevant(x, &ti.seekLeadJoin, &ti.required) {
			continue
		}
		p.consumed = p.consumed[:0]
		m := matchSeek(x.cols, ext, p)
		// The seek must bind a join column: an equality on the null
		// placeholder whose column one of the probes (the entries past
		// the table's own predicates) supplies.
		usesProbe := false
		for _, pi := range m.consumed[:m.nEq] {
			if ext[pi].p.Val.IsNull() && hasSynth(ext[len(ti.preds):], ext[pi].col) {
				usesProbe = true
				break
			}
		}
		if !usesProbe {
			continue
		}
		pages, height := ti.indexSize(x)
		c := ti.seekCost(pages, height, ti.rowCount*m.sel, coversRequired(x, &ti.required))
		if !found || c < cost {
			cost, idx, found = c, i, true
		}
	}
	return cost, idx, found
}
