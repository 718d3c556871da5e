package optimizer

import (
	"fmt"
	"math"
	"strings"

	"indexmerge/internal/sql"
)

// IndexUnionNode ORs several index seeks by unioning their RID sets,
// deduplicating, and fetching the surviving heap rows once — the
// union-over-OR IndexMerge technique (TiDB's `IndexMerge type: union`)
// that lets several narrow indexes answer a disjunction no single
// B+-tree can seek. Each child is an IndexSeekNode used purely as a
// RID producer, one per normalized disjunct.
type IndexUnionNode struct {
	baseNode
	Table    string
	Residual []sql.Predicate
}

// Describe implements Node.
func (n *IndexUnionNode) Describe() string {
	names := make([]string, len(n.children))
	for i, c := range n.children {
		names[i] = c.(*IndexSeekNode).Index.Name
	}
	s := fmt.Sprintf("IndexUnion(%s) +RIDLookup", strings.Join(names, " ∪ "))
	if len(n.Residual) > 0 {
		s += " residual=" + predList(n.Residual)
	}
	return s
}

// maxUnionArms bounds how many disjuncts a union path may fan out to;
// IN lists beyond it fall back to residual filtering on a scan.
const maxUnionArms = 8

// unionPath computes the cost and output cardinality of a RID-union
// access path for one disjunctive predicate on table t: per normalized
// disjunct, a covering probe of the cheapest of the table's indexes
// whose leading column the disjunct restricts; then RID-set union/dedup
// priced per probed entry; then heap fetches for the union (floored at
// one row and capped at the buffer-pool bound, like every fetch cost
// here) and residual evaluation. The row estimate uses the
// disjunction's own inclusion–exclusion selectivity, so it is never
// larger than the sum of the arms. p.uArms receives the chosen
// configuration positions, one per disjunct; ok is false when any
// disjunct lacks a seekable index. The build step calls it again for a
// union that won, to learn the arms the enumeration did not keep.
func (p *planner) unionPath(t int, d *orPred) (cost, rows float64, ok bool) {
	ti := p.pq.tables[t]
	p.uArms = p.uArms[:0]
	if len(d.disjuncts) == 0 || len(d.disjuncts) > maxUnionArms {
		return 0, 0, false
	}
	matchSum := 0.0
	for di := range d.disjuncts {
		q := &d.disjuncts[di]
		if !q.p.Op.IsEquality() && !q.p.Op.IsRange() {
			return 0, 0, false
		}
		match := ti.rowCount * q.sel
		bestI := int32(-1)
		bestCost := 0.0
		for _, ii := range p.indexesOn(t) {
			x := p.index(ii, ti)
			if len(x.cols) == 0 || x.cols[0] != q.col {
				continue
			}
			c := armProbeCost(ti, x, match)
			if bestI < 0 || c < bestCost || c == bestCost && p.before(ii, bestI) {
				bestI, bestCost = ii, c
			}
		}
		if bestI < 0 {
			return 0, 0, false
		}
		p.uArms = append(p.uArms, bestI)
		cost += bestCost
		matchSum += match
	}
	cost += matchSum * CPUOpCost // hash the RID sets
	fetch := ti.rowCount * ti.preds[d.pos].sel
	cost += ti.ridFetchCost(fetch)
	resSel := 1.0
	for pi := range ti.preds {
		if pi != d.pos {
			resSel *= ti.preds[pi].sel
		}
	}
	rows = math.Max(fetch*clampSel(resSel), 0)
	return cost, rows, true
}

// armProbeCost prices one covering (RID-only) probe of an index for
// matched entries.
func armProbeCost(ti *tableInfo, x *indexInfo, match float64) float64 {
	pages, height := ti.indexSize(x)
	return ti.seekCost(pages, height, match, true)
}
