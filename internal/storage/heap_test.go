package storage

import (
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/value"
)

func testTable(t *testing.T) *catalog.Table {
	t.Helper()
	return catalog.MustNewTable("t", []catalog.Column{
		{Name: "id", Type: value.Int},
		{Name: "name", Type: value.String, Width: 20},
		{Name: "score", Type: value.Float},
	})
}

func row(id int64, name string, score float64) value.Row {
	return value.Row{value.NewInt(id), value.NewString(name), value.NewFloat(score)}
}

func TestHeapInsertGetScan(t *testing.T) {
	h := NewHeap(testTable(t))
	for i := int64(0); i < 100; i++ {
		id, err := h.Insert(row(i, "x", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if id != RowID(i) {
			t.Fatalf("RowID %d, want %d", id, i)
		}
	}
	if h.RowCount() != 100 {
		t.Fatalf("RowCount = %d", h.RowCount())
	}
	r, err := h.Get(50)
	if err != nil || r[0].Int() != 50 {
		t.Fatalf("Get(50) = %v, %v", r, err)
	}
	if _, err := h.Get(1000); err == nil {
		t.Error("Get out of range succeeded")
	}
	if _, err := h.Get(-1); err == nil {
		t.Error("Get(-1) succeeded")
	}
	count := 0
	h.Scan(func(id RowID, r value.Row) bool {
		if int64(id) != r[0].Int() {
			t.Fatalf("scan id mismatch")
		}
		count++
		return count < 10 // early stop
	})
	if count != 10 {
		t.Errorf("early stop scanned %d", count)
	}
}

func TestHeapInsertValidation(t *testing.T) {
	h := NewHeap(testTable(t))
	if _, err := h.Insert(value.Row{value.NewInt(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := h.Insert(value.Row{value.NewString("x"), value.NewString("y"), value.NewFloat(1)}); err == nil {
		t.Error("wrong type accepted")
	}
	// Nulls are allowed anywhere.
	if _, err := h.Insert(value.Row{value.NewNull(), value.NewNull(), value.NewNull()}); err != nil {
		t.Errorf("null row rejected: %v", err)
	}
}

func TestHeapInsertCopiesRow(t *testing.T) {
	h := NewHeap(testTable(t))
	r := row(1, "a", 2)
	id, _ := h.Insert(r)
	r[0] = value.NewInt(99)
	got, _ := h.Get(id)
	if got[0].Int() != 1 {
		t.Error("heap aliases caller's row")
	}
}

func TestHeapPages(t *testing.T) {
	h := NewHeap(testTable(t))
	if h.Pages() != 1 {
		t.Errorf("empty heap pages = %d", h.Pages())
	}
	for i := int64(0); i < 10000; i++ {
		if _, err := h.Insert(row(i, "x", 0)); err != nil {
			t.Fatal(err)
		}
	}
	want := EstimateHeapPages(10000, h.Table().RowWidth())
	if h.Pages() != want {
		t.Errorf("Pages = %d, estimate %d — heap and estimator must agree exactly", h.Pages(), want)
	}
	if h.Bytes() != h.Pages()*PageSize {
		t.Error("Bytes inconsistent with Pages")
	}
}

func TestHeapTruncateTo(t *testing.T) {
	h := NewHeap(testTable(t))
	for i := int64(0); i < 100; i++ {
		h.Insert(row(i, "x", 0))
	}
	h.TruncateTo(40)
	if h.RowCount() != 40 {
		t.Errorf("RowCount after truncate = %d", h.RowCount())
	}
	h.TruncateTo(100) // growing is a no-op
	if h.RowCount() != 40 {
		t.Errorf("TruncateTo larger changed count: %d", h.RowCount())
	}
	h.TruncateTo(-5)
	if h.RowCount() != 0 {
		t.Errorf("TruncateTo(-5) = %d rows", h.RowCount())
	}
}

func TestBuildIndexAndSeek(t *testing.T) {
	h := NewHeap(testTable(t))
	for i := int64(0); i < 1000; i++ {
		h.Insert(row(i%50, "x", float64(i)))
	}
	def := catalog.IndexDef{Name: "ix", Table: "t", Columns: []string{"id", "score"}}
	ix, err := BuildIndex(def, h)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1000 {
		t.Errorf("index Len = %d", ix.Len())
	}
	if ix.KeyWidth() != 16 {
		t.Errorf("KeyWidth = %d", ix.KeyWidth())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// Building must not count as maintenance.
	if ix.MaintenanceCost() != 0 {
		t.Errorf("fresh index maintenance cost = %d", ix.MaintenanceCost())
	}
	// Seek on id = 7 returns exactly the 20 matching rows.
	count := 0
	for c := ix.Seek(value.Key{value.NewInt(7)}, value.Key{value.NewInt(7)}, true); c.Valid(); c.Next() {
		r, err := h.Get(c.RID())
		if err != nil {
			t.Fatal(err)
		}
		if r[0].Int() != 7 {
			t.Fatalf("seek returned row with id %d", r[0].Int())
		}
		count++
	}
	if count != 20 {
		t.Errorf("seek matched %d rows, want 20", count)
	}
	// Full index scan is sorted.
	var prev value.Key
	n := 0
	for c := ix.ScanAll(); c.Valid(); c.Next() {
		if prev != nil && prev.Compare(c.Key()) > 0 {
			t.Fatal("index scan out of order")
		}
		prev = c.Key()
		n++
	}
	if n != 1000 {
		t.Errorf("scan visited %d entries", n)
	}
}

func TestBuildIndexErrors(t *testing.T) {
	h := NewHeap(testTable(t))
	if _, err := BuildIndex(catalog.IndexDef{Name: "i", Table: "other", Columns: []string{"id"}}, h); err == nil {
		t.Error("wrong table accepted")
	}
	if _, err := BuildIndex(catalog.IndexDef{Name: "i", Table: "t", Columns: []string{"nope"}}, h); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestIndexInsertRowMaintenance(t *testing.T) {
	h := NewHeap(testTable(t))
	for i := int64(0); i < 500; i++ {
		h.Insert(row(i, "x", 0))
	}
	def := catalog.IndexDef{Name: "ix", Table: "t", Columns: []string{"id"}}
	ix, err := BuildIndex(def, h)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := h.Insert(row(777, "y", 1))
	ix.InsertRow(id, row(777, "y", 1))
	if ix.MaintenanceCost() == 0 {
		t.Error("insert recorded no maintenance")
	}
	if ix.Len() != 501 {
		t.Errorf("Len = %d", ix.Len())
	}
	ix.ResetMaintenance()
	if ix.MaintenanceCost() != 0 {
		t.Error("reset failed")
	}
}

// TestHeapNthLive: the k-th live row skips tombstones and reaches rows
// past the live count; without tombstones it is RowID k.
func TestHeapNthLive(t *testing.T) {
	h := NewHeap(testTable(t))
	for i := int64(0); i < 10; i++ {
		if _, err := h.Insert(row(i, "x", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if id, err := h.NthLive(7); err != nil || id != 7 {
		t.Fatalf("NthLive(7) without tombstones = %d, %v", id, err)
	}
	for _, id := range []RowID{0, 1, 2, 5} {
		if err := h.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var live []RowID
	h.Scan(func(id RowID, _ value.Row) bool {
		live = append(live, id)
		return true
	})
	for k, want := range live {
		if id, err := h.NthLive(int64(k)); err != nil || id != want {
			t.Errorf("NthLive(%d) = %d, %v; want %d", k, id, err, want)
		}
	}
	for _, k := range []int64{-1, int64(len(live))} {
		if _, err := h.NthLive(k); err == nil {
			t.Errorf("NthLive(%d) of %d live rows succeeded", k, len(live))
		}
	}
}
