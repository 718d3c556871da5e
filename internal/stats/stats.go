// Package stats builds and queries column statistics: equi-depth
// histograms plus density information, optionally constructed from a
// sample ([CMN98]). These statistics are all a what-if (hypothetical)
// index consists of — the optimizer costs plans over indexes that do
// not physically exist using exactly this information (paper §3.5.3).
//
// Built statistics are immutable: every query method (Density,
// SelectivityEq, SelectivityRange, Column) is a pure read, so
// TableStats/ColumnStats values are safe to share across concurrent
// optimizer invocations once Build has returned.
package stats

import (
	"math"

	"indexmerge/internal/value"
)

// DefaultBuckets is the histogram resolution used when none is given.
const DefaultBuckets = 64

// Bucket is one equi-depth histogram cell: values in (lo, hi] with hi
// stored as the upper boundary, the row count it holds, and the number
// of distinct values observed inside it.
type Bucket struct {
	Hi       value.Value
	Rows     float64
	Distinct float64
}

// ColumnStats summarizes one column.
type ColumnStats struct {
	RowCount  float64
	NullCount float64
	Distinct  float64 // number of distinct non-null values
	Min, Max  value.Value
	Buckets   []Bucket
}

// Density is the average fraction of rows selected by an equality
// predicate on the column (1 / distinct); SQL Server exposes the same
// quantity for index statistics.
func (cs *ColumnStats) Density() float64 {
	if cs.Distinct <= 0 {
		return 1
	}
	return 1 / cs.Distinct
}

// SelectivityEq estimates the fraction of rows equal to v.
func (cs *ColumnStats) SelectivityEq(v value.Value) float64 {
	if cs.RowCount == 0 {
		return 0
	}
	if v.IsNull() {
		return cs.NullCount / cs.RowCount
	}
	if len(cs.Buckets) == 0 {
		return clamp01(cs.Density())
	}
	if cs.Min.Kind() != value.Null && (v.Compare(cs.Min) < 0 || v.Compare(cs.Max) > 0) {
		return 0
	}
	b := cs.bucketFor(v)
	if b == nil {
		return clamp01(cs.Density())
	}
	if b.Distinct == 1 && v.Compare(b.Hi) != 0 {
		// Singleton (end-biased) bucket: it holds exactly its boundary
		// value. Buckets partition the sorted values, so any other value
		// mapped into this bucket's span does not occur in the data;
		// crediting it with the heavy hitter's mass would overestimate
		// wildly (and made exclusive range bounds subtract rows that
		// were never counted).
		return 0
	}
	rows := b.Rows / math.Max(b.Distinct, 1)
	return clamp01(rows / cs.RowCount)
}

// SelectivityRange estimates the fraction of rows in the interval
// [lo, hi]; a Null bound is open on that side. loIncl/hiIncl toggle
// boundary inclusion (approximated at bucket granularity).
func (cs *ColumnStats) SelectivityRange(lo, hi value.Value, loIncl, hiIncl bool) float64 {
	if cs.RowCount == 0 || len(cs.Buckets) == 0 {
		return defaultRangeSel
	}
	nonNull := cs.RowCount - cs.NullCount
	if nonNull <= 0 {
		return 0
	}
	// Empty interval (lo > hi, or lo == hi with either end open).
	if !lo.IsNull() && !hi.IsNull() {
		if c := lo.Compare(hi); c > 0 || (c == 0 && !(loIncl && hiIncl)) {
			return 0
		}
	}
	// Only the buckets an end of the interval falls in are estimated;
	// the others hold nothing of it (before from, after the first
	// boundary above hi) or lie wholly inside it ([from+1, inside): both
	// neighbours' boundaries within [lo, hi), where the estimate below
	// is exactly 1) and count in full. Rows are added in bucket order
	// either way, so the sum is the one a walk over every bucket makes.
	n := len(cs.Buckets)
	searched := cs.searchable()
	from, inside := 0, 0
	if searched {
		if !lo.IsNull() {
			from = cs.lowerBound(lo)
		}
		inside = n
		if !hi.IsNull() {
			inside = cs.lowerBound(hi)
		}
	}
	var rows float64
	for i := from; i < n; i++ {
		b := &cs.Buckets[i]
		if from < i && i < inside {
			rows += b.Rows
			continue
		}
		var frac float64
		if b.Distinct == 1 {
			// Singleton bucket (end-biased heavy hitter): all of its rows
			// sit exactly at b.Hi, so it contributes all or nothing;
			// interpolating it over (prevHi, Hi] would smear a point mass
			// across values that do not exist.
			frac = pointInRange(b.Hi, lo, hi)
		} else if i == 0 {
			frac = bucketOverlap(cs.Min, b.Hi, lo, hi, true)
		} else {
			frac = bucketOverlap(cs.Buckets[i-1].Hi, b.Hi, lo, hi, false)
		}
		rows += b.Rows * frac
		if searched && i >= inside && b.Hi.Compare(hi) > 0 {
			break
		}
	}
	// Boundary handling: exclusive bounds drop roughly one value's
	// worth of rows at each closed end that matches.
	if !loIncl && !lo.IsNull() {
		rows -= cs.RowCount * cs.SelectivityEq(lo)
	}
	if !hiIncl && !hi.IsNull() {
		rows -= cs.RowCount * cs.SelectivityEq(hi)
	}
	if rows < 0 {
		rows = 0
	}
	// An inclusive bound selects at least that value's own rows.
	// Interpolation degenerates to zero width at the histogram ends
	// (x <= Min, x >= Max) and for point ranges (BETWEEN v AND v), so
	// floor the estimate with the boundary's equality mass.
	// SelectivityEq is 0 outside [Min, Max], so out-of-range bounds
	// never inflate the estimate.
	if loIncl && !lo.IsNull() {
		if eq := cs.RowCount * cs.SelectivityEq(lo); rows < eq {
			rows = eq
		}
	}
	if hiIncl && !hi.IsNull() {
		if eq := cs.RowCount * cs.SelectivityEq(hi); rows < eq {
			rows = eq
		}
	}
	return clamp01(rows / cs.RowCount)
}

// pointInRange reports (as 0 or 1) whether v lies in [lo, hi], with a
// Null bound open on that side.
func pointInRange(v, lo, hi value.Value) float64 {
	if !lo.IsNull() && v.Compare(lo) < 0 {
		return 0
	}
	if !hi.IsNull() && v.Compare(hi) > 0 {
		return 0
	}
	return 1
}

const defaultRangeSel = 1.0 / 3.0

// bucketOverlap estimates the fraction of a bucket spanning (bLo, bHi]
// that intersects the query interval [lo, hi], interpolating for
// numeric types. first marks the first bucket, whose range includes
// its lower boundary.
func bucketOverlap(bLo, bHi, lo, hi value.Value, first bool) float64 {
	// Entirely below lo?
	if !lo.IsNull() && bHi.Compare(lo) < 0 {
		return 0
	}
	// Entirely above hi?
	if !hi.IsNull() {
		cmpLo := bLo.Compare(hi)
		if cmpLo > 0 || (cmpLo == 0 && !first) {
			return 0
		}
	}
	// Numeric interpolation when possible.
	lof, hif := bLo.Float(), bHi.Float()
	if isNumericKind(bLo) && isNumericKind(bHi) && hif > lof {
		qLo, qHi := lof, hif
		if !lo.IsNull() && isNumericKind(lo) && lo.Float() > qLo {
			qLo = lo.Float()
		}
		if !hi.IsNull() && isNumericKind(hi) && hi.Float() < qHi {
			qHi = hi.Float()
		}
		if qHi < qLo {
			return 0
		}
		f := (qHi - qLo) / (hif - lof)
		return clamp01(f)
	}
	// Non-numeric: whole bucket counts when it intersects at all.
	return 1
}

func isNumericKind(v value.Value) bool {
	switch v.Kind() {
	case value.Int, value.Float, value.Date:
		return true
	}
	return false
}

// bucketFor returns the bucket containing v.
func (cs *ColumnStats) bucketFor(v value.Value) *Bucket {
	if i := cs.lowerBound(v); i < len(cs.Buckets) {
		return &cs.Buckets[i]
	}
	return nil
}

// lowerBound returns the position of the first bucket whose boundary
// is not below v, len(Buckets) when all are.
func (cs *ColumnStats) lowerBound(v value.Value) int {
	lo, hi := 0, len(cs.Buckets)
	for lo < hi {
		m := (lo + hi) / 2
		if cs.Buckets[m].Hi.Compare(v) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchable reports whether SelectivityRange may find the ends of an
// interval by binary search: the bucket boundaries are of one kind and
// strictly ascending in it, none of them a NaN — Value.Compare calls a
// NaN equal to everything, so nothing orders it. Build leaves the
// boundaries so unless the column mixed kinds or held a NaN (the sort
// then leaves what it likes). A float histogram wider than the largest
// float does not qualify either: a bucket's width then overflows and
// the interpolation is 0, not 1, for a bucket wholly inside. A NaN
// *bound* needs no care: it compares equal to every boundary, so its
// search answers 0 — as hi, every bucket is estimated; as lo, it cuts
// nothing off, as it cuts nothing off a bucket's estimate. The check
// reads payloads only — no Compare — and costs about what adding up
// the inside buckets does.
func (cs *ColumnStats) searchable() bool {
	b := cs.Buckets
	switch k := b[0].Hi.Kind(); k {
	case value.Int, value.Date:
		for i := 1; i < len(b); i++ {
			if b[i].Hi.Kind() != k || b[i-1].Hi.Int() >= b[i].Hi.Int() {
				return false
			}
		}
		return true
	case value.Float:
		for i := 1; i < len(b); i++ {
			if b[i].Hi.Kind() != k || !(b[i-1].Hi.Float() < b[i].Hi.Float()) {
				return false
			}
		}
		return b[len(b)-1].Hi.Float()-b[0].Hi.Float() < math.Inf(1)
	case value.String:
		for i := 1; i < len(b); i++ {
			if b[i].Hi.Kind() != k || b[i-1].Hi.Str() >= b[i].Hi.Str() {
				return false
			}
		}
		return true
	}
	return false
}

func clamp01(f float64) float64 {
	switch {
	case f < 0:
		return 0
	case f > 1:
		return 1
	case math.IsNaN(f):
		return 0
	}
	return f
}

// TableStats aggregates per-column statistics for one table.
type TableStats struct {
	RowCount int64
	Columns  map[string]*ColumnStats
}

// Column returns stats for the named column (nil when absent).
func (ts *TableStats) Column(name string) *ColumnStats {
	if ts == nil {
		return nil
	}
	return ts.Columns[name]
}
