package stats

import (
	"math"
	"math/rand"
	"slices"

	"indexmerge/internal/value"
)

// BuildOptions controls statistics construction.
type BuildOptions struct {
	Buckets int
	// SampleRate in (0,1] subsamples rows before building, mirroring
	// the paper's inexpensive sampled statistics; 0 or 1 means full scan.
	SampleRate float64
	// Seed drives the sampler; fixed for reproducibility.
	Seed int64
}

// Column gathers one column's values in row order, ready for Build:
// the non-null payloads in a slice of the column's own type — []int64
// for Int and Date, []float64, []string — and the row positions of the
// NULLs. Sorting and run detection then work on machine values, and a
// value.Value is made only for what the statistics keep (Min, Max,
// bucket boundaries).
//
// A column whose non-null kinds mix falls back to boxed values ordered
// by Value.Compare, and so does a float column holding a NaN or a −0:
// Compare calls −0 and +0 equal and a NaN equal to everything, which
// no order on the payloads alone reproduces.
type Column struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
	vals   []value.Value // non-nil once the column is boxed: the whole payload
	nulls  []int         // ascending row positions of the NULLs
}

// NewColumn returns an empty column of the declared kind with room for
// rows values. A column of kind Null has no declared type and keeps
// boxed values from the start.
func NewColumn(kind value.Kind, rows int) Column {
	c := Column{kind: kind}
	switch kind {
	case value.Int, value.Date:
		c.ints = make([]int64, 0, rows)
	case value.Float:
		c.floats = make([]float64, 0, rows)
	case value.String:
		c.strs = make([]string, 0, rows)
	default:
		c.vals = make([]value.Value, 0, rows)
	}
	return c
}

// Append adds the next row's value.
func (c *Column) Append(v value.Value) {
	switch k := v.Kind(); {
	case k == value.Null:
		c.nulls = append(c.nulls, len(c.ints)+len(c.floats)+len(c.strs)+len(c.vals)+len(c.nulls))
	case c.vals != nil:
		c.vals = append(c.vals, v)
	case k != c.kind:
		c.box()
		c.vals = append(c.vals, v)
	case k == value.Float:
		c.floats = append(c.floats, v.Float())
	case k == value.String:
		c.strs = append(c.strs, v.Str())
	default:
		c.ints = append(c.ints, v.Int())
	}
}

// box moves the typed payload into boxed values of the declared kind.
func (c *Column) box() {
	c.vals = make([]value.Value, 0, cap(c.ints)+cap(c.floats)+cap(c.strs))
	for _, i := range c.ints {
		if c.kind == value.Date {
			c.vals = append(c.vals, value.NewDate(i))
		} else {
			c.vals = append(c.vals, value.NewInt(i))
		}
	}
	for _, f := range c.floats {
		c.vals = append(c.vals, value.NewFloat(f))
	}
	for _, s := range c.strs {
		c.vals = append(c.vals, value.NewString(s))
	}
	c.ints, c.floats, c.strs = nil, nil, nil
}

// Build constructs the column's statistics. It consumes the column:
// the payload is sampled and sorted in place.
func (c *Column) Build(opt BuildOptions) *ColumnStats {
	if c.vals == nil && slices.ContainsFunc(c.floats, func(f float64) bool { return f != f || (f == 0 && math.Signbit(f)) }) {
		c.box()
	}
	switch {
	case c.vals != nil:
		byCompare := func(s []value.Value) { slices.SortFunc(s, value.Value.Compare) }
		return build(c.vals, c.nulls, opt, byCompare, equalByCompare, func(v value.Value) value.Value { return v })
	case c.kind == value.Float:
		return build(c.floats, c.nulls, opt, slices.Sort[[]float64], equal[float64], value.NewFloat)
	case c.kind == value.String:
		return build(c.strs, c.nulls, opt, slices.Sort[[]string], equal[string], value.NewString)
	case c.kind == value.Date:
		return build(c.ints, c.nulls, opt, slices.Sort[[]int64], equal[int64], value.NewDate)
	default:
		return build(c.ints, c.nulls, opt, slices.Sort[[]int64], equal[int64], value.NewInt)
	}
}

// Build constructs ColumnStats from the column's values.
func Build(vals []value.Value, opt BuildOptions) *ColumnStats {
	kind := value.Null
	for _, v := range vals {
		if !v.IsNull() {
			kind = v.Kind()
			break
		}
	}
	col := NewColumn(kind, len(vals))
	for _, v := range vals {
		col.Append(v)
	}
	return col.Build(opt)
}

// equal is == on payloads of one type.
func equal[T comparable](a, b T) bool { return a == b }

// equalByCompare is Value.Compare's equality — not transitive once a
// NaN is present, which is why build keeps the parent's two passes
// (neighbours for the distinct count, run heads for the buckets).
func equalByCompare(a, b value.Value) bool { return a.Compare(b) == 0 }

// sample keeps each row with probability rate, drawing once per row in
// row order (NULLs included); a sample that comes up empty falls back
// to one row drawn uniformly. It compacts payload in place and returns
// the kept payloads and the number of kept NULLs.
func sample[T any](payload []T, nulls []int, rate float64, rng *rand.Rand) ([]T, int) {
	rows := len(payload) + len(nulls)
	kept, keptNulls := 0, 0
	p, q := 0, 0 // next payload, next null
	for row := 0; row < rows; row++ {
		keep := rng.Float64() < rate
		if q < len(nulls) && nulls[q] == row {
			q++
			if keep {
				keptNulls++
			}
			continue
		}
		if keep {
			payload[kept] = payload[p]
			kept++
		}
		p++
	}
	if kept == 0 && keptNulls == 0 && rows > 0 {
		row := rng.Intn(rows)
		before, isNull := slices.BinarySearch(nulls, row)
		if isNull {
			keptNulls = 1
		} else {
			payload[0] = payload[row-before]
			kept = 1
		}
	}
	return payload[:kept], keptNulls
}

// build is the one statistics routine: sample, sort the payloads,
// count distinct values over the sorted runs and fill the histogram
// from them. same is equality on payloads and box makes the value.Value
// of one.
func build[T any](payload []T, nulls []int, opt BuildOptions, sortPayload func([]T), same func(a, b T) bool, box func(T) value.Value) *ColumnStats {
	if opt.Buckets <= 0 {
		opt.Buckets = DefaultBuckets
	}
	cs := &ColumnStats{RowCount: float64(len(payload) + len(nulls))}
	nullRows, scale := len(nulls), 1.0
	if opt.SampleRate > 0 && opt.SampleRate < 1 {
		payload, nullRows = sample(payload, nulls, opt.SampleRate, rand.New(rand.NewSource(opt.Seed)))
		if kept := len(payload) + nullRows; kept > 0 {
			scale = cs.RowCount / float64(kept)
		}
	}
	for i := 0; i < nullRows; i++ {
		cs.NullCount += scale
	}
	n := len(payload)
	if n == 0 {
		return cs
	}
	sortPayload(payload)
	cs.Min = box(payload[0])
	cs.Max = box(payload[n-1])

	// Distinct count on the (sorted) sample. Under sampling, the Chao1
	// estimator extrapolates unseen values from the singleton/doubleton
	// frequencies: D ≈ d + f1²/(2·f2). It stays sharp both when values
	// are well covered (few singletons) and when the tail is long.
	cs.Distinct = 1
	singletons, doubletons := 0.0, 0.0
	runLen := 1
	endRun := func() {
		switch runLen {
		case 1:
			singletons++
		case 2:
			doubletons++
		}
	}
	for i := 1; i < n; i++ {
		if same(payload[i], payload[i-1]) {
			runLen++
			continue
		}
		cs.Distinct++
		endRun()
		runLen = 1
	}
	endRun()
	if scale > 1 {
		if doubletons > 0 {
			cs.Distinct += singletons * singletons / (2 * doubletons)
		} else if singletons > 0 {
			cs.Distinct += singletons * (singletons - 1) / 2
		}
		if limit := cs.RowCount - cs.NullCount; cs.Distinct > limit {
			cs.Distinct = limit
		}
	}

	// Equi-depth buckets over the sorted sample, built from duplicate
	// runs. A value whose run is at least one bucket deep becomes a
	// singleton bucket (an end-biased histogram), keeping equality
	// estimates for heavy hitters sharp instead of averaging them with
	// their bucket neighbours.
	nb := min(opt.Buckets, n)
	per := max(n/nb, 1)
	open := Bucket{} // the bucket being filled, its rows, the head of its latest run
	openRows, openHi := 0, 0
	flush := func() {
		if openRows > 0 {
			open.Hi = box(payload[openHi])
			open.Rows = float64(openRows) * scale
			cs.Buckets = append(cs.Buckets, open)
			open, openRows = Bucket{}, 0
		}
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && same(payload[j], payload[i]) {
			j++
		}
		if count := j - i; count >= per {
			flush()
			cs.Buckets = append(cs.Buckets, Bucket{Hi: box(payload[i]), Rows: float64(count) * scale, Distinct: 1})
		} else {
			openHi = i
			open.Distinct++
			openRows += count
			if openRows >= per {
				flush()
			}
		}
		i = j
	}
	flush()
	return cs
}
