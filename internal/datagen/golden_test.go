package datagen

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"indexmerge/internal/engine"
	"indexmerge/internal/stats"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
)

// The digests below were generated at the parent of PR 23 (the last
// commit whose generators rendered strings with fmt.Sprintf and whose
// ANALYZE sorted boxed values): FNV-64a over every heap row and every
// column's statistics, both rendered with %#v. They hold a rewrite of
// the generators or of ANALYZE to the parent's bytes, not to row
// counts. A change that is meant to move generated data or statistics
// regenerates them with `go test -run Golden -print-golden
// ./internal/datagen` and says why.
var printGolden = flag.Bool("print-golden", false, "print the golden digests instead of checking them")

type goldenCase struct {
	db      string
	scale   float64
	seed    int64
	want    uint64 // rows + statistics as BuildNamed leaves them
	sampled uint64 // statistics after re-ANALYZE under goldenSampled
}

// goldenSampled exercises ANALYZE's sampler (row-order draws) and a
// bucket count below the default on the same heaps.
var goldenSampled = stats.BuildOptions{Buckets: 16, SampleRate: 0.1, Seed: 3}

var goldenBuilds = []goldenCase{
	{"tpcd", 0.05, 1, 0x310e2b14f423a8bc, 0xdeaecbd0460e9b8b},
	{"tpcd", 0.05, 7, 0xe7d967fce19b504, 0x90ae0667159334f},
	{"tpcd", 0.2, 1, 0x730718ac654b2bf1, 0x6c70ec6336a6cf41},
	{"tpcd", 0.2, 7, 0x5e925fcf6ced61f3, 0x3ccb4050d18198b3},
	{"synthetic1", 0.05, 1, 0xb4accd12cae9e18f, 0x8513fbc4715f62d},
	{"synthetic1", 0.05, 7, 0xcd82a926ff7003f6, 0x3c0ea6d2ef83a269},
	{"synthetic1", 0.2, 1, 0xab1f49a8a275b58c, 0xff8bd481639d888a},
	{"synthetic1", 0.2, 7, 0x75f6ca454f180f8d, 0x6e3f21baf54f016d},
	{"synthetic2", 0.05, 1, 0x6c3f059f1940798f, 0xf6df437f3885a0a6},
	{"synthetic2", 0.05, 7, 0x23c7e247462064a0, 0xe98a765c57d8f29a},
	{"synthetic2", 0.2, 1, 0xa50b6e733402585b, 0x3f811ea702f80548},
	{"synthetic2", 0.2, 7, 0x237ae58072921044, 0xebd0c12611b14101},
}

// goldenInsertRows is the digest of the ten rows TestSyntheticInsertRows
// generates.
const goldenInsertRows uint64 = 0x8e655c3f29c654c5

// checkGoldenInsertRows holds SyntheticInsertRows to the parent's bytes.
func checkGoldenInsertRows(t *testing.T, rows []value.Row) {
	t.Helper()
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintf(h, "%#v\n", r)
	}
	got := h.Sum64()
	if *printGolden {
		fmt.Printf("const goldenInsertRows uint64 = %#x\n", got)
		return
	}
	if got != goldenInsertRows {
		t.Errorf("SyntheticInsertRows digest %#x, want %#x (generated at the parent of PR 23)", got, goldenInsertRows)
	}
}

// digestDatabase folds every column's statistics and, when rows is
// set, every heap row before them — tables and columns in schema order
// — into one FNV-64a sum.
func digestDatabase(t *testing.T, db *engine.Database, rows bool) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, tab := range db.Schema().Tables() {
		hp, err := db.Heap(tab.Name)
		if err != nil {
			t.Fatal(err)
		}
		if rows {
			hp.Scan(func(_ storage.RowID, r value.Row) bool {
				fmt.Fprintf(h, "%#v\n", r)
				return true
			})
		}
		ts := db.TableStats(tab.Name)
		if ts == nil {
			t.Fatalf("table %s not analyzed", tab.Name)
		}
		fmt.Fprintf(h, "%s rows=%d\n", tab.Name, ts.RowCount)
		for _, c := range tab.Columns {
			fmt.Fprintf(h, "%s.%s %#v\n", tab.Name, c.Name, *ts.Column(c.Name))
		}
	}
	return h.Sum64()
}

func TestGoldenBuildDigests(t *testing.T) {
	for _, g := range goldenBuilds {
		db, err := BuildNamed(g.db, g.scale, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		got := digestDatabase(t, db, true)
		db.SetStatsOptions(goldenSampled)
		db.AnalyzeAll()
		sampled := digestDatabase(t, db, false)
		if *printGolden {
			fmt.Printf("\t{%q, %v, %d, %#x, %#x},\n", g.db, g.scale, g.seed, got, sampled)
			continue
		}
		if got != g.want {
			t.Errorf("%s scale %v seed %d: rows+statistics digest %#x, want %#x (generated at the parent of PR 23)",
				g.db, g.scale, g.seed, got, g.want)
		}
		if sampled != g.sampled {
			t.Errorf("%s scale %v seed %d: sampled statistics digest %#x, want %#x (generated at the parent of PR 23)",
				g.db, g.scale, g.seed, sampled, g.sampled)
		}
	}
}

// TestAppendPaddedMatchesFmt: the byte appender renders what the
// generators' fmt verbs rendered, sign and overflow of the width
// included.
func TestAppendPaddedMatchesFmt(t *testing.T) {
	for _, width := range []int{0, 2, 3, 6, 9} {
		for _, n := range []int64{0, 7, 34, 999, 1000, 123456, 1234567, 999999999, 1 << 40, -1, -34, -123456, math.MaxInt64, math.MinInt64} {
			if got, want := string(appendPadded([]byte("x"), n, width)), fmt.Sprintf("x%0*d", width, n); got != want {
				t.Errorf("appendPadded(%d, width %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}

var benchDB *engine.Database

// BenchmarkBuildNamed builds (generate + ANALYZE) the three databases
// at the scales the repo's benchmark workloads use.
func BenchmarkBuildNamed(b *testing.B) {
	for _, c := range []struct {
		db    string
		scale float64
	}{{"tpcd", 3}, {"synthetic1", 1}, {"synthetic2", 0.5}} {
		b.Run(c.db, func(b *testing.B) {
			b.ReportAllocs()
			var rows int64
			for i := 0; i < b.N; i++ {
				db, err := BuildNamed(c.db, c.scale, 1)
				if err != nil {
					b.Fatal(err)
				}
				benchDB = db
			}
			for _, t := range benchDB.Schema().Tables() {
				rows += benchDB.TableRowCount(t.Name)
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
