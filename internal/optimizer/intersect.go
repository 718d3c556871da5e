package optimizer

import (
	"fmt"
	"math"
	"strings"

	"indexmerge/internal/sql"
)

// IndexIntersectNode ANDs two index seeks by intersecting their RID
// sets, then fetches the surviving heap rows — the "index
// intersection" technique §3.5.2 cites as something modern query
// processors do and external cost models cannot track. Each child is
// an IndexSeekNode used purely as a RID producer.
type IndexIntersectNode struct {
	baseNode
	Table    string
	Residual []sql.Predicate
}

// Describe implements Node.
func (n *IndexIntersectNode) Describe() string {
	names := make([]string, len(n.children))
	for i, c := range n.children {
		names[i] = c.(*IndexSeekNode).Index.Name
	}
	s := fmt.Sprintf("IndexIntersect(%s) +RIDLookup", strings.Join(names, " ∩ "))
	if len(n.Residual) > 0 {
		s += " residual=" + predList(n.Residual)
	}
	return s
}

// maxIntersectArms bounds how many seek paths are paired.
const maxIntersectArms = 4

// intersectArm is an enumerated seek in its role as a candidate
// intersection arm: the index's configuration position and leading
// column (an ordinal), the predicates the seek consumed, its
// selectivity and matched entries, and the cost of probing it for RIDs
// alone.
type intersectArm struct {
	idx       int32
	lead      int32
	consumed  []int32
	sel       float64
	match     float64
	probeCost float64
}

// hasClass reports whether any of the consumed predicates falls in
// equivalence class c of the given classing (predColOp or predStr).
func hasClass(class, consumed []int32, c int32) bool {
	for _, pi := range consumed {
		if class[pi] == c {
			return true
		}
	}
	return false
}

// armResidual reports whether predicate pi is left for the filter
// after intersecting seeks that consumed a and b: neither consumed a
// predicate with its text.
func (ti *tableInfo) armResidual(a, b []int32, pi int) bool {
	return !hasClass(ti.predStr, a, ti.predStr[pi]) && !hasClass(ti.predStr, b, ti.predStr[pi])
}

// appendIntersections appends index-intersection access paths built
// from the enumerated seeks: pairs among the most selective few, with
// different leading columns and no predicate in common, whose
// conjunction may be selective enough to pay for two B+-tree probes
// plus RID lookups. It reorders arms.
func (ti *tableInfo) appendIntersections(arms []intersectArm, paths []accessPath) []accessPath {
	// Stable insertion sort, most selective first: the slices are tiny
	// and the enumeration must not allocate.
	for i := 1; i < len(arms); i++ {
		for j := i; j > 0 && arms[j].sel < arms[j-1].sel; j-- {
			arms[j], arms[j-1] = arms[j-1], arms[j]
		}
	}
	if len(arms) > maxIntersectArms {
		arms = arms[:maxIntersectArms]
	}
	for i := range arms {
	pair:
		for j := i + 1; j < len(arms); j++ {
			a, b := &arms[i], &arms[j]
			if a.lead == b.lead {
				continue // same leading column: the arms consume the same predicate
			}
			for _, pi := range a.consumed {
				if hasClass(ti.predColOp, b.consumed, ti.predColOp[pi]) {
					continue pair // a predicate consumed twice would double-count selectivity
				}
			}
			paths = append(paths, ti.intersectPath(a, b))
		}
	}
	return paths
}

// intersectPath prices ANDing two seeks through their RID sets: two
// index-only probes, hashing the RID sets, heap lookups for the
// intersection, and residual evaluation.
func (ti *tableInfo) intersectPath(a, b *intersectArm) accessPath {
	// a.match*b.sel is (rowCount*selA)*selB, left-associated.
	interRows := a.match * b.sel
	resSel := 1.0
	for pi := range ti.preds {
		if ti.armResidual(a.consumed, b.consumed, pi) {
			resSel *= ti.preds[pi].sel
		}
	}
	cost := a.probeCost + b.probeCost
	cost += (a.match + b.match) * CPUOpCost // hash the RID sets
	// The fetch cost floors at one row; the row *estimate* below stays
	// unfloored so residual selectivity scales the true intersection
	// cardinality (flooring first would inflate highly selective
	// intersections).
	cost += ti.ridFetchCost(interRows)
	return accessPath{
		kind: indexIntersect, idx: a.idx, idx2: b.idx,
		cost: cost,
		rows: math.Max(interRows*clampSel(resSel), 0),
	}
}
