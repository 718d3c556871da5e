package optimizer

import (
	"math/bits"
	"slices"

	"indexmerge/internal/sql"
)

// The build step: what the choices that won use, and plan nodes for
// them. Nothing here compares alternatives; every number a node carries
// either was recorded by the enumeration or comes from the function the
// enumeration priced it with, applied to the winner alone.

// Use is one index a winning plan reads: its position in the
// configuration the plan was made under, and how the plan reads it.
type Use struct {
	Pos  int32
	Mode UsageMode
}

// Choice is what the planner chose for one query of OptimizePreparedEach:
// the cost of the winning plan and the indexes it uses, in the order of
// the plan's leaves (Plan.Uses, as positions). Uses is the planner's
// scratch and, like the Choice itself, valid only during the callback
// it is handed to.
type Choice struct {
	Cost float64
	Uses []Use
	p    *planner
}

// Plan builds the plan tree of the choice, a new one on each call. It
// must be called during the callback the Choice is handed to.
func (c *Choice) Plan() *Plan { return c.p.build() }

// full is the mask of every table of the query: the cell of the
// winning join, or, for one table, its winning path in p.base.
func (p *planner) full() int { return 1<<len(p.pq.tables) - 1 }

// walkUses records in p.uses the indexes the winning plan of the last
// call reads, as the plan tree's leaves come in pre-order: a join's rest
// before the table it joins last, an intersection's idx before its
// idx2, a union's arms in order. An index counts once per mode: a later
// leaf on the same (table, columns) — a definition listed twice, two
// arms on one index — adds nothing.
func (p *planner) walkUses() {
	p.uses = p.uses[:0]
	p.usesOf(p.full())
}

// usesOf walks the choices for one subset of the query's tables, the
// ones joinNode builds nodes from.
func (p *planner) usesOf(mask int) {
	if mask&(mask-1) == 0 {
		t := bits.TrailingZeros(uint(mask))
		p.pathUses(t, &p.base[t])
		return
	}
	cell := &p.dp[mask]
	t := int(cell.last)
	p.usesOf(mask &^ (1 << uint(t)))
	if cell.kind == IndexNLJoin {
		p.addUse(cell.inner, UsageSeek)
	} else {
		p.pathUses(t, &p.base[t])
	}
}

// pathUses walks table t's winning access path, the one accessNode
// builds.
func (p *planner) pathUses(t int, ap *accessPath) {
	switch ap.kind {
	case indexScan:
		p.addUse(ap.idx, UsageScan)
	case indexSeek:
		p.addUse(ap.idx, UsageSeek)
	case indexIntersect:
		p.addUse(ap.idx, UsageSeek)
		p.addUse(ap.idx2, UsageSeek)
	case indexUnion:
		// The enumeration kept the union's price, not its arms.
		p.unionPath(t, &p.pq.tables[t].orPreds[ap.idx])
		for _, ii := range p.uArms {
			p.addUse(ii, UsageSeek)
		}
	}
}

// addUse appends configuration index pos, read in mode, unless an index
// on the same table and columns is already recorded in that mode. A plan
// uses a handful of indexes at most: a scan is the lookup.
func (p *planner) addUse(pos int32, mode UsageMode) {
	def := &p.cfg[pos]
	for _, u := range p.uses {
		if u.Mode == mode && p.cfg[u.Pos].Table == def.Table && slices.Equal(p.cfg[u.Pos].Columns, def.Columns) {
			return
		}
	}
	p.uses = append(p.uses, Use{Pos: pos, Mode: mode})
}

// build turns the winning choices of the last call, whose uses walkUses
// recorded, into a plan.
func (p *planner) build() *Plan {
	root := p.pq.finishNode(p.joinNode(p.full()), &p.fin)
	var uses []IndexUse
	for _, u := range p.uses {
		uses = append(uses, IndexUse{Index: p.cfg[u.Pos], Mode: u.Mode})
	}
	return &Plan{Root: root, Cost: root.Cost(), Uses: uses}
}

// finishNode stacks the operators finish priced onto their input.
func (pq *PreparedQuery) finishNode(n Node, f *finished) Node {
	over := func(cost float64) baseNode {
		return baseNode{cost: cost, rows: f.rows, children: []Node{n}}
	}
	if f.agg {
		n = &AggNode{baseNode: over(f.aggCost), GroupBy: pq.Stmt.GroupBy, Aggs: pq.Stmt.Select, Streaming: f.streaming}
	}
	if f.sort {
		n = &SortNode{baseNode: over(f.sortCost), Keys: pq.Stmt.OrderBy}
	}
	return &ProjectNode{baseNode: over(f.cost), Items: pq.Stmt.Select}
}

// predsOf strips the selectivities off a predicate list.
func predsOf(sps []scoredPred) []sql.Predicate {
	var out []sql.Predicate
	for i := range sps {
		out = append(out, sps[i].p)
	}
	return out
}

// accessNode builds the node of table t's winning access path.
func (p *planner) accessNode(t int, ap *accessPath) Node {
	ti := p.pq.tables[t]
	p.consumed = p.consumed[:0]
	switch ap.kind {
	case indexScan:
		n := &IndexScanNode{Index: p.cfg[ap.idx], Filter: predsOf(ti.preds)}
		n.cost, n.rows = ap.cost, ap.rows
		return n
	case indexSeek:
		n, _ := p.seekNode(ti, ti.preds, ap.idx)
		return n
	case indexIntersect:
		a, ma := p.seekNode(ti, ti.preds, ap.idx)
		b, mb := p.seekNode(ti, ti.preds, ap.idx2)
		n := &IndexIntersectNode{Table: ti.name}
		for pi := range ti.preds {
			if ti.armResidual(ma.consumed, mb.consumed, pi) {
				n.Residual = append(n.Residual, ti.preds[pi].p)
			}
		}
		n.cost, n.rows, n.children = ap.cost, ap.rows, []Node{a, b}
		return n
	case indexUnion:
		// The enumeration kept the union's price, not its arms.
		d := &ti.orPreds[ap.idx]
		p.unionPath(t, d)
		n := &IndexUnionNode{Table: ti.name}
		for di, ii := range p.uArms {
			q := &d.disjuncts[di]
			arm := &IndexSeekNode{Index: p.cfg[ii], Covering: true}
			if q.p.Op.IsEquality() {
				arm.SeekEq = []sql.Predicate{q.p}
			} else {
				rp := q.p
				arm.SeekRng = &rp
			}
			arm.rows = ti.rowCount * q.sel
			arm.cost = armProbeCost(ti, p.index(ii, ti), arm.rows)
			n.children = append(n.children, arm)
		}
		for pi := range ti.preds {
			if pi != d.pos {
				n.Residual = append(n.Residual, ti.preds[pi].p)
			}
		}
		n.cost, n.rows = ap.cost, ap.rows
		return n
	}
	n := &TableScanNode{Table: ti.name, Filter: predsOf(ti.preds)}
	n.cost, n.rows = ap.cost, ap.rows
	return n
}

// seekNode builds the seek of configuration index idx over preds — the
// table's own predicates, or those extended with join probes for the
// inner side of an index nested-loop join — and returns the match it
// re-derived, whose consumed positions intersections need.
func (p *planner) seekNode(ti *tableInfo, preds []scoredPred, idx int32) (*IndexSeekNode, seekMatch) {
	x := p.index(idx, ti)
	m := matchSeek(x.cols, preds, p)
	n := &IndexSeekNode{Index: p.cfg[idx], Covering: coversRequired(x, &ti.required)}
	for _, pi := range m.consumed[:m.nEq] {
		n.SeekEq = append(n.SeekEq, preds[pi].p)
	}
	if len(m.consumed) > m.nEq {
		rng := preds[m.consumed[m.nEq]].p
		n.SeekRng = &rng
	}
	for pi := range preds {
		if !m.uses(pi) {
			n.Residual = append(n.Residual, preds[pi].p)
		}
	}
	pages, height := ti.indexSize(x)
	matchRows := ti.rowCount * m.sel
	n.cost = ti.seekCost(pages, height, matchRows, n.Covering)
	n.rows = matchRows * m.residualSel(preds)
	return n, m
}

// joinNode builds the plan for a subset of the query's tables from the
// choices joinOrder left in p.dp and p.base.
func (p *planner) joinNode(mask int) Node {
	if mask&(mask-1) == 0 {
		t := bits.TrailingZeros(uint(mask))
		return p.accessNode(t, &p.base[t])
	}
	cell := &p.dp[mask]
	t := int(cell.last)
	rest := mask &^ (1 << uint(t))
	ti := p.pq.tables[t]
	n := &JoinNode{Kind: cell.kind}
	n.cost, n.rows = cell.cost, p.outputRows(mask)
	left := p.joinNode(rest)
	var right Node
	if cell.kind == IndexNLJoin {
		right, _ = p.seekNode(ti, p.probePreds(rest, t), cell.inner)
	} else {
		right = p.accessNode(t, &p.base[t])
	}
	for k := range p.pq.joins {
		if p.pq.joins[k].connects(rest, t) {
			n.On = append(n.On, p.pq.Stmt.Joins[k])
		}
	}
	n.children = []Node{left, right}
	return n
}
