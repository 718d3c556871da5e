package engine

import (
	"hash/fnv"
	"reflect"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/stats"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
)

// analyzeTestDB loads rows rows of every column kind (with some NULLs)
// and leaves the database unanalyzed. perturb, when non-negative,
// replaces column "i" of that row by a value no other row holds.
func analyzeTestDB(tb testing.TB, rows, perturb int) *Database {
	tb.Helper()
	db := NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("t", []catalog.Column{
		{Name: "i", Type: value.Int},
		{Name: "f", Type: value.Float},
		{Name: "s", Type: value.String, Width: 12},
		{Name: "d", Type: value.Date},
	})); err != nil {
		tb.Fatal(err)
	}
	words := []string{"final", "pending", "quick", "silent", "ironic"}
	for r := 0; r < rows; r++ {
		k := int64(r*7919) % int64(rows)
		row := value.Row{value.NewInt(k), value.NewFloat(float64(k%97) / 4), value.NewString(words[r%len(words)]), value.NewDate(8000 + k%365)}
		if r%50 == 0 {
			row[1] = value.NewNull()
		}
		if r == perturb {
			row[0] = value.NewInt(int64(rows) + 1)
		}
		if err := db.Insert("t", row); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// TestAnalyzeMatchesBuildOverScan: ANALYZE's typed gather yields what
// stats.Build yields over the column's boxed values, sampled or not.
func TestAnalyzeMatchesBuildOverScan(t *testing.T) {
	for _, opt := range []stats.BuildOptions{{}, {Buckets: 8, SampleRate: 0.1, Seed: 5}} {
		db := analyzeTestDB(t, 1000, -1)
		db.SetStatsOptions(opt)
		db.AnalyzeAll()
		h, _ := db.Heap("t")
		for i, c := range h.Table().Columns {
			var vals []value.Value
			h.Scan(func(_ storage.RowID, r value.Row) bool {
				vals = append(vals, r[i])
				return true
			})
			colOpt := opt
			colOpt.Seed += int64(i) * 7919
			if got, want := db.TableStats("t").Column(c.Name), stats.Build(vals, colOpt); !reflect.DeepEqual(got, want) {
				t.Errorf("column %s under %+v:\n got  %+v\n want %+v", c.Name, opt, got, want)
			}
		}
	}
}

// TestAnalyzeAllocatesPerColumn: ANALYZE allocates a bounded number of
// objects per column whatever the row count — no per-value boxing, no
// per-run bookkeeping. (The bucket slice grows by doubling up to twice
// the bucket count, which both sizes reach.)
func TestAnalyzeAllocatesPerColumn(t *testing.T) {
	measure := func(rows int) float64 {
		db := analyzeTestDB(t, rows, -1)
		return testing.AllocsPerRun(5, func() { db.Analyze("t") })
	}
	small, large := measure(4000), measure(32000)
	t.Logf("%.0f allocations at 4000 rows, %.0f at 32000", small, large)
	const columns = 4
	if large > 16*columns {
		t.Errorf("Analyze of 32000 rows × %d columns allocates %.0f objects, want O(columns)", columns, large)
	}
	if large > small+columns {
		t.Errorf("Analyze allocations grow with the row count: %.0f at 4000 rows, %.0f at 32000", small, large)
	}
}

// TestFingerprintCoversStatistics: the fingerprint tells apart two
// databases a worker must not confuse — same data analyzed at another
// resolution, and same shape with one value changed.
func TestFingerprintCoversStatistics(t *testing.T) {
	build := func(perturb int, opt stats.BuildOptions) *Database {
		db := analyzeTestDB(t, 600, perturb)
		db.SetStatsOptions(opt)
		db.AnalyzeAll()
		return db
	}
	base := build(-1, stats.BuildOptions{})
	if again := build(-1, stats.BuildOptions{}); again.Fingerprint() != base.Fingerprint() {
		t.Fatal("equal data and options fingerprint differently")
	}
	if coarse := build(-1, stats.BuildOptions{Buckets: 8}); coarse.Fingerprint() == base.Fingerprint() {
		t.Error("fingerprint ignored the bucket count")
	}
	// One changed value: schema, row count, heap bytes, options and
	// statistics version all equal — only the statistics differ.
	perturbed := build(300, stats.BuildOptions{})
	if perturbed.DataBytes() != base.DataBytes() || perturbed.StatsVersion() != base.StatsVersion() {
		t.Fatal("perturbed database differs in more than one value")
	}
	if perturbed.Fingerprint() == base.Fingerprint() {
		t.Error("fingerprint ignored a change in the built statistics")
	}
	// Freezing computes the same fingerprint.
	if base.Snapshot().DB().Fingerprint() != base.Fingerprint() {
		t.Error("snapshot fingerprint differs from its database's")
	}
}

// BenchmarkAnalyze re-analyzes one table of every column kind at the
// row count of the benchmark's largest table.
func BenchmarkAnalyze(b *testing.B) {
	const rows = 36000
	db := analyzeTestDB(b, rows, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Analyze("t")
	}
	b.ReportMetric(rows, "rows/op")
}

func TestFingerprinterIsFNV1a(t *testing.T) {
	f, h := newFingerprinter(), fnv.New64a()
	f.u64(0x0102030405060708)
	h.Write([]byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.str("idx")
	h.Write([]byte{3, 0, 0, 0, 0, 0, 0, 0, 'i', 'd', 'x'})
	if uint64(*f) != h.Sum64() {
		t.Errorf("fingerprinter = %#x, hash/fnv = %#x", uint64(*f), h.Sum64())
	}
}
