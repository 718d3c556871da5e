package optimizer

import (
	"indexmerge/internal/sql"
	"indexmerge/internal/stats"
	"indexmerge/internal/value"
)

// Fallback selectivities when statistics are missing.
const (
	defaultEqSel    = 0.005
	defaultRangeSel = 1.0 / 3.0
	defaultNeSel    = 0.995
)

// predicateSelectivity estimates the fraction of a table's rows that
// satisfy one simple predicate. IN lists and OR disjunctions are scored
// from their disjuncts, by scorePreds.
func predicateSelectivity(ts *stats.TableStats, p *sql.Predicate) float64 {
	var cs *stats.ColumnStats
	if ts != nil {
		cs = ts.Column(p.Col.Column)
	}
	if cs == nil {
		switch {
		case p.Op == sql.OpEq:
			return defaultEqSel
		case p.Op == sql.OpNe:
			return defaultNeSel
		default:
			return defaultRangeSel
		}
	}
	switch p.Op {
	case sql.OpEq:
		return cs.SelectivityEq(p.Val)
	case sql.OpNe:
		return clampSel(1 - cs.SelectivityEq(p.Val))
	case sql.OpLt:
		return cs.SelectivityRange(value.NewNull(), p.Val, false, false)
	case sql.OpLe:
		return cs.SelectivityRange(value.NewNull(), p.Val, false, true)
	case sql.OpGt:
		return cs.SelectivityRange(p.Val, value.NewNull(), false, false)
	case sql.OpGe:
		return cs.SelectivityRange(p.Val, value.NewNull(), true, false)
	case sql.OpBetween:
		return cs.SelectivityRange(p.Lo, p.Hi, true, true)
	}
	return defaultRangeSel
}

// conjunctionSelectivity multiplies predicate selectivities assuming
// independence, as classical optimizers do.
func conjunctionSelectivity(ts *stats.TableStats, preds []sql.Predicate) float64 {
	sel := 1.0
	for i := range preds {
		sel *= predicateSelectivity(ts, &preds[i])
	}
	return clampSel(sel)
}

// distinctOf returns the estimated distinct count of a column, with a
// floor of 1.
func distinctOf(ts *stats.TableStats, col string, rowCount float64) float64 {
	if ts != nil {
		if cs := ts.Column(col); cs != nil && cs.Distinct >= 1 {
			return cs.Distinct
		}
	}
	// Unknown: assume moderately distinct.
	d := rowCount / 10
	if d < 1 {
		d = 1
	}
	return d
}

// joinSelectivity estimates the selectivity of an equi-join between
// two columns using 1/max(ndv_left, ndv_right).
func joinSelectivity(lts *stats.TableStats, lcol string, lrows float64, rts *stats.TableStats, rcol string, rrows float64) float64 {
	ld := distinctOf(lts, lcol, lrows)
	rd := distinctOf(rts, rcol, rrows)
	m := ld
	if rd > m {
		m = rd
	}
	if m < 1 {
		m = 1
	}
	return 1 / m
}

func clampSel(s float64) float64 {
	switch {
	case s < 0:
		return 0
	case s > 1:
		return 1
	}
	return s
}
