package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indexmerge/internal/value"
)

// referenceRange is SelectivityRange as it stood at the parent of
// PR 24, verbatim: a walk over every bucket. It is the specification
// the searched probe is held to, bit for bit, by
// TestRangeMatchesReference.
func referenceRange(cs *ColumnStats, lo, hi value.Value, loIncl, hiIncl bool) float64 {
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
	var rows float64
	prevHi := cs.Min
	first := true
	for _, b := range cs.Buckets {
		var frac float64
		if b.Distinct == 1 {
			frac = pointInRange(b.Hi, lo, hi)
		} else {
			frac = bucketOverlap(prevHi, b.Hi, lo, hi, first)
		}
		rows += b.Rows * frac
		prevHi = b.Hi
		first = false
	}
	if !loIncl && !lo.IsNull() {
		rows -= cs.RowCount * cs.SelectivityEq(lo)
	}
	if !hiIncl && !hi.IsNull() {
		rows -= cs.RowCount * cs.SelectivityEq(hi)
	}
	if rows < 0 {
		rows = 0
	}
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

// rangeBounds returns the bounds a histogram is probed with: open,
// every bucket boundary and Min/Max themselves (boundary-equal), values
// just beside and between them (in range), values beyond both ends,
// a value of every other kind, a NaN and the infinities.
func rangeBounds(rng *rand.Rand, cs *ColumnStats) []value.Value {
	out := []value.Value{
		value.NewNull(),
		value.NewInt(-1 << 40), value.NewInt(1 << 62), value.NewInt(7),
		value.NewFloat(-1e300), value.NewFloat(1e300), value.NewFloat(2.5),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewFloat(math.Copysign(0, -1)),
		value.NewDate(3), value.NewString(""), value.NewString("v5"), value.NewString("zzz"),
	}
	beside := func(v value.Value) {
		out = append(out, v)
		switch v.Kind() {
		case value.Int:
			out = append(out, value.NewInt(v.Int()-1), value.NewInt(v.Int()+1), value.NewFloat(float64(v.Int())+0.5))
		case value.Date:
			out = append(out, value.NewDate(v.Int()-1), value.NewDate(v.Int()+1), value.NewInt(v.Int()))
		case value.Float:
			out = append(out, value.NewFloat(math.Nextafter(v.Float(), math.Inf(-1))), value.NewFloat(v.Float()+0.25), value.NewInt(int64(v.Float())))
		case value.String:
			out = append(out, value.NewString(v.Str()+"0"), value.NewString(v.Str()[:len(v.Str())/2]))
		}
	}
	beside(cs.Min)
	beside(cs.Max)
	// Every boundary of a small histogram, a sample of a large one.
	for i, b := range cs.Buckets {
		if len(cs.Buckets) <= 12 || rng.Intn(len(cs.Buckets)) < 12 {
			beside(b.Hi)
			if i > 0 && isNumericKind(b.Hi) && isNumericKind(cs.Buckets[i-1].Hi) {
				out = append(out, value.NewFloat((b.Hi.Float()+cs.Buckets[i-1].Hi.Float())/2))
			}
		}
	}
	return out
}

// TestRangeMatchesReference holds the searched probe to the parent's
// walk, bit for bit, over the column matrix of TestBuildMatchesReference
// — every kind, shape, NULL share, bucket count and sampling — with
// open, in-range, out-of-range, boundary-equal and mixed-kind bounds
// under all four inclusivity pairs. The floatNaN and int+float columns
// (and a NaN bound) are where Value.Compare is no total order; the
// probe must see that and still agree.
func TestRangeMatchesReference(t *testing.T) {
	probes, searched := 0, 0
	rng := rand.New(rand.NewSource(5))
	check := func(name string, cs *ColumnStats, lo, hi value.Value) {
		t.Helper()
		if len(cs.Buckets) > 0 && cs.searchable() {
			searched++
		}
		for _, incl := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			want := referenceRange(cs, lo, hi, incl[0], incl[1])
			got := cs.SelectivityRange(lo, hi, incl[0], incl[1])
			probes++
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: SelectivityRange(%#v, %#v, %v, %v) = %v (%#x), the walk over every bucket gives %v (%#x)\nstats: %#v",
					name, lo, hi, incl[0], incl[1], got, math.Float64bits(got), want, math.Float64bits(want), *cs)
			}
		}
	}
	for _, col := range refColumns(1) {
		for _, buckets := range []int{1, 8, 64, len(col.vals) + 10} {
			for _, opt := range []BuildOptions{{Buckets: buckets}, {Buckets: buckets, SampleRate: 0.5, Seed: 2}} {
				cs := Build(col.vals, opt)
				name := fmt.Sprintf("%s %+v", col.name, opt)
				bounds := rangeBounds(rng, cs)
				// Every bound against an open end, then random pairs.
				for _, b := range bounds {
					check(name, cs, b, value.NewNull())
					check(name, cs, value.NewNull(), b)
					check(name, cs, b, b)
				}
				for i := 0; i < 2*len(bounds); i++ {
					check(name, cs, bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))])
				}
			}
		}
	}
	// Histograms no Build makes, which a probe must still answer as the
	// walk does: boundaries out of order, of mixed kinds, equal, wider
	// than the largest float, infinite.
	f, i, s := value.NewFloat, value.NewInt, value.NewString
	for hi, his := range [][]value.Value{
		{i(5), i(3), i(7)},
		{i(1), i(1), i(2)},
		{i(1), f(2.5), i(4), s("a")},
		{i(-5), f(-7.5), i(3)},
		{f(-3), s("a"), s("b")},
		{f(-1.7e308), f(0), f(1.7e308)},
		{f(1), f(2), f(math.Inf(1))},
		{f(math.Inf(-1)), f(2), f(3)},
		{f(1), f(math.NaN()), f(3)},
		{f(math.NaN())},
		{i(1 << 53), i(1<<53 + 1), i(1<<53 + 2), i(1<<53 + 3)},
		{s("a"), s("c"), s("b")},
	} {
		for _, distinct := range []float64{1, 3} {
			cs := &ColumnStats{RowCount: 100, NullCount: 4, Distinct: 40, Min: his[0], Max: his[len(his)-1]}
			for _, h := range his {
				cs.Buckets = append(cs.Buckets, Bucket{Hi: h, Rows: 96 / float64(len(his)), Distinct: distinct})
			}
			name := fmt.Sprintf("hand-made %d distinct=%v", hi, distinct)
			bounds := append(rangeBounds(rng, cs), f(1<<53), f(1<<53+2), i(1<<53+1))
			for _, lo := range bounds {
				for _, hi := range bounds {
					check(name, cs, lo, hi)
				}
			}
		}
	}
	if searched == 0 || searched*4 == probes {
		t.Fatalf("%d of %d probes took the searched path: the test must see both", searched*4, probes)
	}
	t.Logf("%d probes, %d of them searched", probes, searched*4)
}

var rangeSink float64

// BenchmarkSelectivityRange measures one range probe of a 64-bucket
// histogram over the row count of the benchmark's largest table: half
// open on one side (<, >=), half BETWEEN.
func BenchmarkSelectivityRange(b *testing.B) {
	const rows = 36000
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		gen  func() value.Value
	}{
		{"int", func() value.Value { return value.NewInt(rng.Int63n(rows)) }},
		{"float", func() value.Value { return value.NewFloat(float64(rng.Int63n(rows*100)) / 100) }},
		{"string", func() value.Value { return value.NewString(fmt.Sprintf("Customer#%09d", rng.Intn(rows))) }},
	}
	for _, c := range cases {
		vals := make([]value.Value, rows)
		for i := range vals {
			vals[i] = c.gen()
		}
		cs := Build(vals, BuildOptions{})
		bounds := make([]value.Value, 1024)
		for i := range bounds {
			bounds[i] = c.gen()
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo, hi := bounds[i%len(bounds)], bounds[(i+1)%len(bounds)]
				switch i % 4 {
				case 0:
					rangeSink = cs.SelectivityRange(value.NewNull(), hi, false, false)
				case 1:
					rangeSink = cs.SelectivityRange(lo, value.NewNull(), true, false)
				default:
					if lo.Compare(hi) > 0 {
						lo, hi = hi, lo
					}
					rangeSink = cs.SelectivityRange(lo, hi, true, true)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
		})
	}
}
