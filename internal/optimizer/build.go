package optimizer

import (
	"math/bits"

	"indexmerge/internal/sql"
)

// The build step: plan nodes for the choices that won. Nothing here
// compares alternatives; every number a node carries either was
// recorded by the enumeration or comes from the function the
// enumeration priced it with, applied to the winner alone.

func newPlan(root Node) *Plan {
	return &Plan{Root: root, Cost: root.Cost(), Uses: collectUses(root)}
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
