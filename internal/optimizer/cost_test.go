package optimizer

import (
	"testing"

	"indexmerge/internal/sql"
	"indexmerge/internal/stats"
	"indexmerge/internal/value"
)

func TestSeekCostMonotone(t *testing.T) {
	base := seekCost(3, 100, 10000, 100, true, 1000)
	if got := seekCost(3, 100, 10000, 1000, true, 1000); got <= base {
		t.Errorf("more matches should cost more: %v vs %v", got, base)
	}
	if got := seekCost(4, 100, 10000, 100, true, 1000); got <= base {
		t.Errorf("taller tree should cost more: %v vs %v", got, base)
	}
	if got := seekCost(3, 100, 10000, 100, false, 1000); got <= base {
		t.Errorf("RID lookups should cost more than covering: %v vs %v", got, base)
	}
}

func TestSeekCostLookupCap(t *testing.T) {
	// Unselective non-covering seeks must not cost unboundedly more
	// than re-reading the whole heap a few times.
	heapPages := int64(100)
	c := seekCost(3, 1000, 1e6, 1e6, false, heapPages)
	cap := 2*float64(heapPages)*RandPageCost + float64(3)*RandPageCost + 1000*SeqPageCost + 2e6*CPURowCost
	if c > cap+1 {
		t.Errorf("lookup cost %v above cap %v", c, cap)
	}
}

func TestScanAndSortCosts(t *testing.T) {
	if scanCost(100, 1000) <= scanCost(10, 1000) {
		t.Error("more pages must cost more")
	}
	if sortCost(1e6) <= sortCost(1e3) {
		t.Error("bigger sorts must cost more")
	}
	if sortCost(0) <= 0 || sortCost(1) <= 0 {
		t.Error("degenerate sorts must have positive cost")
	}
	if indexScanCost(50, 1000) >= scanCost(500, 1000) {
		t.Error("narrow index scan should beat wide heap scan")
	}
	if hashJoinCost(100, 1000) <= 0 || hashAggCost(1000, 10) <= 0 || streamAggCost(1000) <= 0 {
		t.Error("non-positive operator costs")
	}
	if streamAggCost(1000) >= hashAggCost(1000, 500) {
		t.Error("streaming aggregation should be cheaper than hashing")
	}
}

func buildStats(vals []value.Value) *stats.TableStats {
	return &stats.TableStats{
		RowCount: int64(len(vals)),
		Columns:  map[string]*stats.ColumnStats{"c": stats.Build(vals, stats.BuildOptions{})},
	}
}

func TestPredicateSelectivityOperators(t *testing.T) {
	vals := make([]value.Value, 0, 1000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, value.NewInt(int64(i%100)))
	}
	ts := buildStats(vals)
	col := sql.ColumnRef{Table: "t", Column: "c"}
	cases := []struct {
		p      sql.Predicate
		lo, hi float64
	}{
		{sql.Predicate{Col: col, Op: sql.OpEq, Val: value.NewInt(5)}, 0.005, 0.05},
		{sql.Predicate{Col: col, Op: sql.OpNe, Val: value.NewInt(5)}, 0.95, 1.0},
		{sql.Predicate{Col: col, Op: sql.OpLt, Val: value.NewInt(50)}, 0.4, 0.6},
		{sql.Predicate{Col: col, Op: sql.OpLe, Val: value.NewInt(50)}, 0.4, 0.6},
		{sql.Predicate{Col: col, Op: sql.OpGt, Val: value.NewInt(89)}, 0.05, 0.15},
		{sql.Predicate{Col: col, Op: sql.OpGe, Val: value.NewInt(90)}, 0.05, 0.15},
		{sql.Predicate{Col: col, Op: sql.OpBetween, Lo: value.NewInt(10), Hi: value.NewInt(19)}, 0.05, 0.15},
	}
	for _, c := range cases {
		got := predicateSelectivity(ts, &c.p)
		if got < c.lo || got > c.hi {
			t.Errorf("%s: selectivity %v outside [%v, %v]", c.p, got, c.lo, c.hi)
		}
	}
}

func TestPredicateSelectivityFallbacks(t *testing.T) {
	col := sql.ColumnRef{Table: "t", Column: "c"}
	if got := predicateSelectivity(nil, &sql.Predicate{Col: col, Op: sql.OpEq, Val: value.NewInt(1)}); got != defaultEqSel {
		t.Errorf("no-stats eq = %v", got)
	}
	if got := predicateSelectivity(nil, &sql.Predicate{Col: col, Op: sql.OpLt, Val: value.NewInt(1)}); got != defaultRangeSel {
		t.Errorf("no-stats range = %v", got)
	}
	if got := predicateSelectivity(nil, &sql.Predicate{Col: col, Op: sql.OpNe, Val: value.NewInt(1)}); got != defaultNeSel {
		t.Errorf("no-stats ne = %v", got)
	}
}

func TestConjunctionSelectivityIndependence(t *testing.T) {
	vals := make([]value.Value, 0, 1000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, value.NewInt(int64(i%10)))
	}
	ts := buildStats(vals)
	col := sql.ColumnRef{Table: "t", Column: "c"}
	p := sql.Predicate{Col: col, Op: sql.OpEq, Val: value.NewInt(3)}
	one := conjunctionSelectivity(ts, []sql.Predicate{p})
	two := conjunctionSelectivity(ts, []sql.Predicate{p, p})
	if two >= one {
		t.Errorf("conjunction must multiply: %v vs %v", two, one)
	}
	if got := conjunctionSelectivity(ts, nil); got != 1 {
		t.Errorf("empty conjunction = %v", got)
	}
}

func TestJoinSelectivity(t *testing.T) {
	mk := func(mod int) *stats.TableStats {
		vals := make([]value.Value, 0, 1000)
		for i := 0; i < 1000; i++ {
			vals = append(vals, value.NewInt(int64(i%mod)))
		}
		return buildStats(vals)
	}
	// join on columns with ndv 100 and 10: selectivity ≈ 1/100.
	got := joinSelectivity(mk(100), "c", 1000, mk(10), "c", 1000)
	if got < 0.005 || got > 0.02 {
		t.Errorf("join selectivity = %v, want ≈0.01", got)
	}
	// Missing stats fall back to a sane default.
	if got := joinSelectivity(nil, "c", 1000, nil, "c", 1000); got <= 0 || got > 1 {
		t.Errorf("fallback join selectivity = %v", got)
	}
}

func TestMatchSeekShapes(t *testing.T) {
	// Columns a..z are ordinals 0..25.
	ord := func(name string) int32 { return int32(name[0] - 'a') }
	col := func(name string) sql.ColumnRef { return sql.ColumnRef{Table: "t", Column: name} }
	eq := func(name string) scoredPred {
		return scoredPred{p: sql.Predicate{Col: col(name), Op: sql.OpEq, Val: value.NewInt(1)}, sel: 0.1, col: ord(name)}
	}
	rng := func(name string) scoredPred {
		return scoredPred{p: sql.Predicate{Col: col(name), Op: sql.OpLt, Val: value.NewInt(1)}, sel: 0.3, col: ord(name)}
	}

	// shape runs the matcher and reports how many predicates it bound by
	// equality, whether it took a range, and how many it left residual.
	shape := func(idxCols []string, preds ...scoredPred) (nEq int, hasRng bool, residual int, sel float64) {
		var ords []int32
		for _, c := range idxCols {
			ords = append(ords, ord(c))
		}
		m := matchSeek(ords, preds, new(planner))
		for pi := range preds {
			if !m.uses(pi) {
				residual++
			}
		}
		return m.nEq, len(m.consumed) > m.nEq, residual, m.sel
	}

	// eq on leading two columns, range on third, residual on unrelated.
	nEq, hasRng, residual, sel := shape([]string{"a", "b", "c", "d"}, eq("a"), eq("b"), rng("c"), eq("z"))
	if nEq != 2 || !hasRng || residual != 1 {
		t.Fatalf("shape: eq=%d rng=%v res=%d", nEq, hasRng, residual)
	}
	if diff := sel - 0.1*0.1*0.3; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("sel = %v, want 0.003", sel)
	}

	// Gap in the prefix stops the seek.
	nEq, hasRng, _, _ = shape([]string{"a", "b"}, eq("b"))
	if nEq != 0 || hasRng {
		t.Errorf("non-leading predicate must not seek: eq=%d", nEq)
	}

	// Range on the leading column works alone ...
	nEq, hasRng, residual, _ = shape([]string{"a", "b"}, rng("a"), eq("b"))
	if nEq != 0 || !hasRng {
		t.Errorf("leading range must seek")
	}
	// ... and stops the prefix: b's equality becomes residual.
	if residual != 1 {
		t.Errorf("after-range predicate must be residual, got %d residuals", residual)
	}
}
