package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/stats"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
)

// bulkTable has a column of every kind.
func bulkTable() *catalog.Table {
	return catalog.MustNewTable("t", []catalog.Column{
		{Name: "i", Type: value.Int},
		{Name: "f", Type: value.Float},
		{Name: "s", Type: value.String, Width: 12},
		{Name: "d", Type: value.Date},
	})
}

// fillBulkRow writes row i of the bulk fixture: NULLs in every column
// on some rows, and in column f a NaN and a −0 on others, which send
// that column's statistics down the boxed path.
func fillBulkRow(row value.Row, i int) {
	words := []string{"final", "pending", "quick", "silent", "ironic"}
	k := int64(i*7919) % 1009
	row[0] = value.NewInt(k)
	row[1] = value.NewFloat(float64(k%97) / 4)
	row[2] = value.NewString(words[i%len(words)])
	row[3] = value.NewDate(8000 + k%365)
	switch {
	case i%50 == 0:
		row[1] = value.NewNull()
	case i%53 == 0:
		row[0], row[2], row[3] = value.NewNull(), value.NewNull(), value.NewNull()
	case i%301 == 7:
		row[1] = value.NewFloat(math.NaN())
	case i%401 == 9:
		row[1] = value.NewFloat(math.Copysign(0, -1))
	}
}

func newBulkDB(t testing.TB, opt stats.BuildOptions) *Database {
	t.Helper()
	db := NewDatabase()
	db.SetStatsOptions(opt)
	if err := db.CreateTable(bulkTable()); err != nil {
		t.Fatal(err)
	}
	return db
}

// firstDiff returns the first line where two dumps differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// dump renders a table's live rows and statistics with %v verbs, so
// that NaNs compare equal.
func dump(t *testing.T, db *Database, table string) string {
	t.Helper()
	var b strings.Builder
	h, err := db.Heap(table)
	if err != nil {
		t.Fatal(err)
	}
	h.Scan(func(id storage.RowID, r value.Row) bool {
		fmt.Fprintf(&b, "%d %#v\n", id, r)
		return true
	})
	ts := db.TableStats(table)
	if ts == nil {
		t.Fatalf("table %s has no statistics", table)
	}
	fmt.Fprintf(&b, "rows=%d\n", ts.RowCount)
	for _, c := range h.Table().Columns {
		fmt.Fprintf(&b, "%s %#v\n", c.Name, *ts.Column(c.Name))
	}
	return b.String()
}

// TestBulkLoadMatchesInsertAnalyze: BulkLoad leaves what Insert of each
// row followed by AnalyzeAll leaves — rows, statistics, Fingerprint,
// DataBytes and StatsVersion — sampled or not.
func TestBulkLoadMatchesInsertAnalyze(t *testing.T) {
	for _, opt := range []stats.BuildOptions{{}, {Buckets: 8, SampleRate: 0.1, Seed: 5}} {
		for _, n := range []int{0, 1, 1000} {
			want := newBulkDB(t, opt)
			row := make(value.Row, 4)
			for i := 0; i < n; i++ {
				fillBulkRow(row, i)
				if err := want.Insert("t", row); err != nil {
					t.Fatal(err)
				}
			}
			want.AnalyzeAll()
			got := newBulkDB(t, opt)
			if err := got.BulkLoad("t", n, fillBulkRow); err != nil {
				t.Fatal(err)
			}
			if g, w := dump(t, got, "t"), dump(t, want, "t"); g != w {
				t.Errorf("%d rows under %+v: bulk load differs from Insert + AnalyzeAll at %s", n, opt, firstDiff(g, w))
			}
			if got.Fingerprint() != want.Fingerprint() || got.DataBytes() != want.DataBytes() || got.StatsVersion() != want.StatsVersion() {
				t.Errorf("%d rows under %+v: fingerprint %x / %x, data bytes %d / %d, stats version %d / %d",
					n, opt, got.Fingerprint(), want.Fingerprint(), got.DataBytes(), want.DataBytes(), got.StatsVersion(), want.StatsVersion())
			}
			// Re-analyzing the adopted rows changes nothing but the version.
			got.AnalyzeAll()
			if g, w := dump(t, got, "t"), dump(t, want, "t"); g != w {
				t.Errorf("%d rows under %+v: re-ANALYZE of the bulk-loaded rows differs at %s", n, opt, firstDiff(g, w))
			}
		}
	}
}

// TestBulkLoadSnapshotRoundTrip: a bulk-loaded database with an index
// saved and loaded again (LoadSnapshot bulk-loads too) keeps its
// Fingerprint, rows and statistics.
func TestBulkLoadSnapshotRoundTrip(t *testing.T) {
	db := newBulkDB(t, stats.BuildOptions{})
	if err := db.BulkLoad("t", 700, fillBulkRow); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(catalog.IndexDef{Name: "ix", Table: "t", Columns: []string{"s", "i"}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != db.Fingerprint() {
		t.Errorf("fingerprint %x after the round trip, %x before", back.Fingerprint(), db.Fingerprint())
	}
	if g, w := dump(t, back, "t"), dump(t, db, "t"); g != w {
		t.Errorf("the round trip changed rows or statistics at %s", firstDiff(g, w))
	}
}

// TestBulkLoadRefusals: a frozen database, a table with rows, a table
// with an index and a row of the wrong kind are refused, and a refused
// load leaves the table as it was.
func TestBulkLoadRefusals(t *testing.T) {
	frozen := newBulkDB(t, stats.BuildOptions{})
	frozen.Snapshot()
	if err := frozen.BulkLoad("t", 10, fillBulkRow); !errors.Is(err, ErrFrozen) {
		t.Errorf("bulk load into a frozen database: %v, want ErrFrozen", err)
	}

	nonEmpty := newBulkDB(t, stats.BuildOptions{})
	row := make(value.Row, 4)
	fillBulkRow(row, 1)
	if err := nonEmpty.Insert("t", row); err != nil {
		t.Fatal(err)
	}
	if err := nonEmpty.BulkLoad("t", 10, fillBulkRow); err == nil {
		t.Error("bulk load into a table with rows succeeded")
	}
	if nonEmpty.TableRowCount("t") != 1 {
		t.Errorf("a refused load left %d rows, want 1", nonEmpty.TableRowCount("t"))
	}

	indexed := newBulkDB(t, stats.BuildOptions{})
	if _, err := indexed.CreateIndex(catalog.IndexDef{Name: "ix", Table: "t", Columns: []string{"i"}}); err != nil {
		t.Fatal(err)
	}
	if err := indexed.BulkLoad("t", 10, fillBulkRow); err == nil {
		t.Error("bulk load into an indexed table succeeded")
	}

	badKind := newBulkDB(t, stats.BuildOptions{})
	err := badKind.BulkLoad("t", 10, func(row value.Row, i int) {
		fillBulkRow(row, i)
		if i == 6 {
			row[3] = value.NewInt(1) // a date column
		}
	})
	if err == nil || !strings.Contains(err.Error(), `column "d" expects DATE`) {
		t.Errorf("bulk load of a row of the wrong kind: %v", err)
	}
	if badKind.TableRowCount("t") != 0 || badKind.TableStats("t") != nil || badKind.StatsVersion() != 0 {
		t.Error("a refused load kept rows or built statistics")
	}
	if err := newBulkDB(t, stats.BuildOptions{}).BulkLoad("nope", 1, fillBulkRow); err == nil {
		t.Error("bulk load into an unknown table succeeded")
	}
}

// TestBulkLoadAllocatesPerTable: loading a table without string
// columns allocates as often at 10,000 rows as at 1,000 — the rows
// come from one slab, not one clone each.
func TestBulkLoadAllocatesPerTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tab := catalog.MustNewTable("n", []catalog.Column{
		{Name: "i", Type: value.Int},
		{Name: "f", Type: value.Float},
		{Name: "d", Type: value.Date},
	})
	measure := func(rows int) float64 {
		return testing.AllocsPerRun(5, func() {
			db := NewDatabase()
			if err := db.CreateTable(tab); err != nil {
				t.Fatal(err)
			}
			if err := db.BulkLoad("n", rows, func(row value.Row, i int) {
				row[0] = value.NewInt(int64(i % 97))
				row[1] = value.NewFloat(float64(i) / 8)
				row[2] = value.NewDate(int64(8000 + i%365))
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(1000), measure(10000)
	t.Logf("%.0f allocations at 1,000 rows, %.0f at 10,000", small, large)
	if large > small {
		t.Errorf("bulk load allocations grow with the row count: %.0f at 1,000 rows, %.0f at 10,000", small, large)
	}
}
