package engine

import (
	"errors"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/value"
)

func buildCOWTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	tbl, err := catalog.NewTable("t", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Int},
		{Name: "s", Type: value.String, Width: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 17)), value.NewString("x")}
		if err := db.Insert("t", r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex(catalog.IndexDef{Name: "t_a", Table: "t", Columns: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	db.AnalyzeAll()
	return db
}

func TestSnapshotFreezesOrigin(t *testing.T) {
	db := buildCOWTestDB(t)
	snap := db.Snapshot()
	if snap.DB() != db {
		t.Fatal("snapshot does not hold the database it froze")
	}
	if err := db.Insert("t", value.Row{value.NewInt(1), value.NewInt(1), value.NewString("x")}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("Insert on frozen origin: got %v, want ErrFrozen", err)
	}
	if _, err := db.DeleteWhere("t", func(value.Row) bool { return true }); !errors.Is(err, ErrFrozen) {
		t.Fatalf("DeleteWhere on frozen origin: got %v, want ErrFrozen", err)
	}
	if _, err := db.CreateIndex(catalog.IndexDef{Name: "t_b", Table: "t", Columns: []string{"b"}}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("CreateIndex on frozen origin: got %v, want ErrFrozen", err)
	}
	if err := db.DropIndex("t(a)"); !errors.Is(err, ErrFrozen) && err == nil {
		t.Fatalf("DropIndex on frozen origin: got %v", err)
	}
	if err := db.Materialize(nil); !errors.Is(err, ErrFrozen) {
		t.Fatalf("Materialize on frozen origin: got %v, want ErrFrozen", err)
	}
	tbl, _ := catalog.NewTable("u", []catalog.Column{{Name: "a", Type: value.Int}})
	if err := db.CreateTable(tbl); !errors.Is(err, ErrFrozen) {
		t.Fatalf("CreateTable on frozen origin: got %v, want ErrFrozen", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Analyze on frozen origin did not panic")
			}
		}()
		db.Analyze("t")
	}()
	// The read path stays fully usable after freezing.
	if db.TableRowCount("t") != 200 {
		t.Fatalf("row count = %d", db.TableRowCount("t"))
	}
	if db.TableStats("t") == nil {
		t.Fatal("stats gone after freeze")
	}
}

func TestFingerprintDeterminism(t *testing.T) {
	a := buildCOWTestDB(t)
	b := buildCOWTestDB(t)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical builds fingerprint differently: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	snap := a.Snapshot()
	if snap.DB().Fingerprint() != b.Fingerprint() {
		t.Fatal("snapshot fingerprint differs from origin's")
	}
	// Extra data changes the fingerprint.
	if err := b.Insert("t", value.Row{value.NewInt(999), value.NewInt(0), value.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint ignored a row-count change")
	}
}
