package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"indexmerge/internal/value"
)

// referenceBuild is Build as it stood at the parent of PR 23, verbatim:
// a reflection sort over boxed values, two passes over the sorted
// copy. It is the specification the typed routine is held to, field
// for field, by TestBuildMatchesReference.
func referenceBuild(vals []value.Value, opt BuildOptions) *ColumnStats {
	if opt.Buckets <= 0 {
		opt.Buckets = DefaultBuckets
	}
	totalRows := float64(len(vals))
	scale := 1.0
	if opt.SampleRate > 0 && opt.SampleRate < 1 {
		rng := rand.New(rand.NewSource(opt.Seed))
		sampled := make([]value.Value, 0, int(float64(len(vals))*opt.SampleRate)+1)
		for _, v := range vals {
			if rng.Float64() < opt.SampleRate {
				sampled = append(sampled, v)
			}
		}
		if len(sampled) == 0 && len(vals) > 0 {
			sampled = append(sampled, vals[rng.Intn(len(vals))])
		}
		if len(sampled) > 0 {
			scale = totalRows / float64(len(sampled))
		}
		vals = sampled
	}

	cs := &ColumnStats{RowCount: totalRows}
	nonNull := make([]value.Value, 0, len(vals))
	for _, v := range vals {
		if v.IsNull() {
			cs.NullCount += scale
			continue
		}
		nonNull = append(nonNull, v)
	}
	if len(nonNull) == 0 {
		return cs
	}
	sort.Slice(nonNull, func(i, j int) bool { return nonNull[i].Compare(nonNull[j]) < 0 })
	cs.Min = nonNull[0]
	cs.Max = nonNull[len(nonNull)-1]

	// Distinct count on the (sorted) sample. Under sampling, the Chao1
	// estimator extrapolates unseen values from the singleton/doubleton
	// frequencies: D ≈ d + f1²/(2·f2). It stays sharp both when values
	// are well covered (few singletons) and when the tail is long.
	distinctSample := 1.0
	singletons := 0.0
	doubletons := 0.0
	runLen := 1
	endRun := func() {
		switch runLen {
		case 1:
			singletons++
		case 2:
			doubletons++
		}
	}
	for i := 1; i < len(nonNull); i++ {
		if nonNull[i].Compare(nonNull[i-1]) != 0 {
			distinctSample++
			endRun()
			runLen = 1
		} else {
			runLen++
		}
	}
	endRun()
	if scale > 1 {
		est := distinctSample
		if doubletons > 0 {
			est += singletons * singletons / (2 * doubletons)
		} else if singletons > 0 {
			est += singletons * (singletons - 1) / 2
		}
		if max := cs.RowCount - cs.NullCount; est > max {
			est = max
		}
		cs.Distinct = est
	} else {
		cs.Distinct = distinctSample
	}

	// Equi-depth buckets over the sorted sample, built from duplicate
	// runs. A value whose run is at least one bucket deep becomes a
	// singleton bucket (an end-biased histogram), keeping equality
	// estimates for heavy hitters sharp instead of averaging them with
	// their bucket neighbours.
	nb := opt.Buckets
	if nb > len(nonNull) {
		nb = len(nonNull)
	}
	per := len(nonNull) / nb
	if per < 1 {
		per = 1
	}
	type run struct {
		v     value.Value
		count int
	}
	var runs []run
	for i := 0; i < len(nonNull); {
		j := i + 1
		for j < len(nonNull) && nonNull[j].Compare(nonNull[i]) == 0 {
			j++
		}
		runs = append(runs, run{v: nonNull[i], count: j - i})
		i = j
	}
	cur := Bucket{}
	curRows := 0
	flush := func() {
		if curRows > 0 {
			cur.Rows = float64(curRows) * scale
			cs.Buckets = append(cs.Buckets, cur)
			cur = Bucket{}
			curRows = 0
		}
	}
	for _, r := range runs {
		if r.count >= per {
			flush()
			cs.Buckets = append(cs.Buckets, Bucket{Hi: r.v, Rows: float64(r.count) * scale, Distinct: 1})
			continue
		}
		cur.Hi = r.v
		cur.Distinct++
		curRows += r.count
		if curRows >= per {
			flush()
		}
	}
	flush()
	return cs
}

// refColumn is one generated column and whether DeepEqual can judge it
// (a NaN is not DeepEqual to itself).
type refColumn struct {
	name   string
	vals   []value.Value
	hasNaN bool
}

// withNulls replaces roughly frac of the values by NULL.
func withNulls(rng *rand.Rand, vals []value.Value, frac float64) []value.Value {
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		if rng.Float64() < frac {
			v = value.NewNull()
		}
		out[i] = v
	}
	return out
}

// refDraws returns n draws in one of the shapes the histogram treats
// differently: uniform over a wide or narrow domain, a few heavy
// hitters (runs at least one bucket deep) over a long singleton tail,
// one value only.
func refDraws(rng *rand.Rand, shape string, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch shape {
		case "wide":
			out[i] = rng.Int63n(int64(4*n) + 1)
		case "narrow":
			out[i] = rng.Int63n(7)
		case "heavy":
			if rng.Float64() < 0.7 {
				out[i] = rng.Int63n(3) * 1000
			} else {
				out[i] = rng.Int63()
			}
		case "single":
			out[i] = 42
		}
	}
	return out
}

func refColumns(seed int64) []refColumn {
	rng := rand.New(rand.NewSource(seed))
	var cols []refColumn
	add := func(name string, vals []value.Value, hasNaN bool) {
		cols = append(cols, refColumn{name, vals, hasNaN})
		for _, frac := range []float64{0.1, 0.9} {
			cols = append(cols, refColumn{fmt.Sprintf("%s/nulls%.1f", name, frac), withNulls(rng, vals, frac), hasNaN})
		}
	}
	for _, n := range []int{0, 1, 2, 3, 17, 200, 1200} {
		for _, shape := range []string{"wide", "narrow", "heavy", "single"} {
			draws := refDraws(rng, shape, n)
			name := fmt.Sprintf("%s/n%d", shape, n)
			ints := make([]value.Value, n)
			dates := make([]value.Value, n)
			floats := make([]value.Value, n)
			strs := make([]value.Value, n)
			mixed := make([]value.Value, n)
			odd := make([]value.Value, n)
			nans := make([]value.Value, n)
			for i, d := range draws {
				ints[i] = value.NewInt(d - 3)
				dates[i] = value.NewDate(d)
				floats[i] = value.NewFloat(float64(d)/8 - 1)
				strs[i] = value.NewString(fmt.Sprintf("v%d", d%100000))
				// Int and Float of equal numeric value tie under Compare.
				if mixed[i] = value.NewInt(d % 50); rng.Intn(2) == 0 {
					mixed[i] = value.NewFloat(float64(d%50) + float64(rng.Intn(2))/2)
				}
				// −0 and +0 tie; a NaN ties with everything.
				switch odd[i] = value.NewFloat(float64(d % 5)); rng.Intn(4) {
				case 0:
					odd[i] = value.NewFloat(math.Copysign(0, -1))
				case 1:
					odd[i] = value.NewFloat(0)
				}
				if nans[i] = floats[i]; rng.Intn(10) == 0 {
					nans[i] = value.NewFloat(math.NaN())
				}
			}
			add("int/"+name, ints, false)
			add("date/"+name, dates, false)
			add("float/"+name, floats, false)
			add("string/"+name, strs, false)
			add("int+float/"+name, mixed, false)
			add("float±0/"+name, odd, false)
			add("floatNaN/"+name, nans, true)
		}
	}
	allNull := make([]value.Value, 25)
	cols = append(cols, refColumn{"all-null", allNull, false})
	cols = append(cols, refColumn{"int+string", []value.Value{
		value.NewString("b"), value.NewInt(3), value.NewNull(), value.NewString("a"), value.NewInt(3), value.NewDate(3),
	}, false})
	return cols
}

// sameValue and sameStats compare bit for bit: unlike DeepEqual they
// tell −0 from +0 and call a NaN equal to itself.
func sameValue(a, b value.Value) bool {
	return a.Kind() == b.Kind() && a.Int() == b.Int() && a.Str() == b.Str() &&
		math.Float64bits(a.Float()) == math.Float64bits(b.Float())
}

func sameStats(a, b *ColumnStats) bool {
	bits := math.Float64bits
	if bits(a.RowCount) != bits(b.RowCount) || bits(a.NullCount) != bits(b.NullCount) || bits(a.Distinct) != bits(b.Distinct) ||
		!sameValue(a.Min, b.Min) || !sameValue(a.Max, b.Max) || len(a.Buckets) != len(b.Buckets) || (a.Buckets == nil) != (b.Buckets == nil) {
		return false
	}
	for i, x := range a.Buckets {
		if y := b.Buckets[i]; !sameValue(x.Hi, y.Hi) || bits(x.Rows) != bits(y.Rows) || bits(x.Distinct) != bits(y.Distinct) {
			return false
		}
	}
	return true
}

// TestBuildMatchesReference holds the typed routine to the parent's
// Build, field for field and bit for bit, over seeded random columns
// of every kind, shape, bucket count, sample rate and sampler seed —
// small columns under a low rate take the empty-sample fallback.
func TestBuildMatchesReference(t *testing.T) {
	checked, fallbacks := 0, 0
	for _, colSeed := range []int64{1, 2} {
		for _, col := range refColumns(colSeed) {
			before := fmt.Sprintf("%#v", col.vals)
			for _, buckets := range []int{1, 8, 64, len(col.vals) + 10} {
				for _, rate := range []float64{0, 0.05, 0.5, 1} {
					seeds := []int64{0}
					if rate > 0 && rate < 1 {
						seeds = []int64{1, 2, 99}
					}
					for _, seed := range seeds {
						opt := BuildOptions{Buckets: buckets, SampleRate: rate, Seed: seed}
						want := referenceBuild(col.vals, opt)
						got := Build(col.vals, opt)
						checked++
						if rate == 0.05 && len(col.vals) > 0 && len(col.vals) <= 17 {
							fallbacks++
						}
						if !sameStats(got, want) || (!col.hasNaN && !reflect.DeepEqual(got, want)) {
							t.Fatalf("%s (column seed %d) %+v:\n got  %#v\n want %#v", col.name, colSeed, opt, *got, *want)
						}
					}
				}
			}
			if before != fmt.Sprintf("%#v", col.vals) {
				t.Fatalf("%s: Build changed its argument", col.name)
			}
		}
	}
	t.Logf("%d (column, options) pairs, %d of them on columns small enough for the empty-sample fallback", checked, fallbacks)
}

// TestColumnMatchesBuild: a Column filled the way ANALYZE fills it
// (declared kind, values appended in row order) builds what Build
// does, including when a value of another kind turns up midway.
func TestColumnMatchesBuild(t *testing.T) {
	for _, col := range refColumns(3) {
		for _, declared := range []value.Kind{value.Int, value.Float, value.String, value.Date, value.Null} {
			opt := BuildOptions{Buckets: 8, SampleRate: 0.5, Seed: 7}
			c := NewColumn(declared, len(col.vals))
			for _, v := range col.vals {
				c.Append(v)
			}
			got, want := c.Build(opt), referenceBuild(col.vals, opt)
			if !sameStats(got, want) {
				t.Fatalf("%s declared %v:\n got  %#v\n want %#v", col.name, declared, *got, *want)
			}
		}
	}
}

var benchSink *ColumnStats

// BenchmarkBuild measures one column's statistics build, gather
// included, at the row count of the benchmark's largest table.
func BenchmarkBuild(b *testing.B) {
	const rows = 36000
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		opt  BuildOptions
		gen  func() value.Value
	}{
		{"int", BuildOptions{}, func() value.Value { return value.NewInt(rng.Int63n(rows)) }},
		{"float", BuildOptions{}, func() value.Value { return value.NewFloat(float64(rng.Int63n(rows*100)) / 100) }},
		{"string", BuildOptions{}, func() value.Value { return value.NewString(fmt.Sprintf("Customer#%09d", rng.Intn(rows))) }},
		{"lowcard", BuildOptions{}, func() value.Value {
			return value.NewString([]string{"AIR", "FOB", "MAIL", "RAIL", "SHIP"}[rng.Intn(5)])
		}},
		{"sampled", BuildOptions{SampleRate: 0.1, Seed: 1}, func() value.Value { return value.NewInt(rng.Int63n(rows)) }},
	}
	for _, c := range cases {
		vals := make([]value.Value, rows)
		for i := range vals {
			vals[i] = c.gen()
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Build(vals, c.opt)
			}
			b.ReportMetric(rows, "rows/op")
		})
	}
}
