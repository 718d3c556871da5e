package catalog

import (
	"math/rand"
	"strings"
	"testing"

	"indexmerge/internal/value"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	tab := MustNewTable("t", []Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.String, Width: 10},
		{Name: "c", Type: value.Float},
		{Name: "d", Type: value.Date},
	})
	if err := s.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewTableValidation(t *testing.T) {
	cases := []struct {
		name string
		tn   string
		cols []Column
		want string // error substring; empty = ok
	}{
		{"ok", "t", []Column{{Name: "a", Type: value.Int}}, ""},
		{"empty name", "", []Column{{Name: "a", Type: value.Int}}, "empty table name"},
		{"no columns", "t", nil, "no columns"},
		{"empty column name", "t", []Column{{Name: "", Type: value.Int}}, "empty name"},
		{"dup column", "t", []Column{{Name: "a", Type: value.Int}, {Name: "a", Type: value.Int}}, "duplicate column"},
		{"string no width", "t", []Column{{Name: "s", Type: value.String}}, "positive width"},
		{"bad type", "t", []Column{{Name: "x", Type: value.Null}}, "invalid type"},
	}
	for _, c := range cases {
		_, err := NewTable(c.tn, c.cols)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestNumericWidthsNormalized(t *testing.T) {
	tab := MustNewTable("t", []Column{
		{Name: "a", Type: value.Int, Width: 3}, // ignored
		{Name: "b", Type: value.Float},
		{Name: "c", Type: value.Date, Width: 100},
	})
	for _, c := range tab.Columns {
		if c.Width != 8 {
			t.Errorf("column %s width %d, want 8", c.Name, c.Width)
		}
	}
	if tab.RowWidth() != 24 {
		t.Errorf("RowWidth = %d, want 24", tab.RowWidth())
	}
}

func TestColumnLookups(t *testing.T) {
	s := testSchema(t)
	tab, _ := s.Table("t")
	if i := tab.ColumnIndex("b"); i != 1 {
		t.Errorf("ColumnIndex(b) = %d", i)
	}
	if i := tab.ColumnIndex("zz"); i != -1 {
		t.Errorf("ColumnIndex(zz) = %d", i)
	}
	if c, ok := tab.Column("b"); !ok || c.Width != 10 {
		t.Errorf("Column(b) = %+v, %v", c, ok)
	}
	if _, ok := tab.Column("zz"); ok {
		t.Error("Column(zz) found")
	}
	if !tab.HasColumn("d") || tab.HasColumn("e") {
		t.Error("HasColumn wrong")
	}
	names := tab.ColumnNames()
	if len(names) != 4 || names[0] != "a" || names[3] != "d" {
		t.Errorf("ColumnNames = %v", names)
	}
	if w := tab.WidthOf([]string{"a", "b"}); w != 18 {
		t.Errorf("WidthOf(a,b) = %d, want 18", w)
	}
	if w := tab.WidthOf([]string{"a", "nope"}); w != 8 {
		t.Errorf("WidthOf with unknown = %d, want 8", w)
	}
}

func TestSchemaTables(t *testing.T) {
	s := testSchema(t)
	if err := s.AddTable(MustNewTable("u", []Column{{Name: "x", Type: value.Int}})); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(MustNewTable("t", []Column{{Name: "x", Type: value.Int}})); err == nil {
		t.Error("duplicate table accepted")
	}
	if got := s.TableNames(); len(got) != 2 || got[0] != "t" || got[1] != "u" {
		t.Errorf("TableNames = %v", got)
	}
	if got := s.Tables(); len(got) != 2 || got[0].Name != "t" {
		t.Errorf("Tables order wrong")
	}
	if _, ok := s.Table("nope"); ok {
		t.Error("found nonexistent table")
	}
}

func TestNewIndexDefValidation(t *testing.T) {
	s := testSchema(t)
	if _, err := NewIndexDef(s, "i", "nope", []string{"a"}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := NewIndexDef(s, "i", "t", nil); err == nil {
		t.Error("empty columns accepted")
	}
	if _, err := NewIndexDef(s, "i", "t", []string{"zz"}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := NewIndexDef(s, "i", "t", []string{"a", "a"}); err == nil {
		t.Error("repeated column accepted")
	}
	def, err := NewIndexDef(s, "", "t", []string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "ix_t_b_a" {
		t.Errorf("auto name = %q", def.Name)
	}
	if def.Key() != "t(b,a)" {
		t.Errorf("Key = %q", def.Key())
	}
}

func TestIndexDefPrefixAndCovers(t *testing.T) {
	ab := IndexDef{Table: "t", Columns: []string{"a", "b"}}
	abc := IndexDef{Table: "t", Columns: []string{"a", "b", "c"}}
	ba := IndexDef{Table: "t", Columns: []string{"b", "a"}}
	other := IndexDef{Table: "u", Columns: []string{"a"}}

	if !abc.HasPrefix(ab) {
		t.Error("abc should have prefix ab")
	}
	if ab.HasPrefix(abc) {
		t.Error("ab cannot have longer prefix abc")
	}
	if abc.HasPrefix(ba) {
		t.Error("abc should not have prefix ba (order matters)")
	}
	if !ab.HasPrefix(ab) {
		t.Error("index should be a prefix of itself")
	}
	if abc.HasPrefix(other) {
		t.Error("prefix across tables")
	}

	if !abc.CoversColumns([]string{"c", "a"}) {
		t.Error("abc covers {c,a}")
	}
	if abc.CoversColumns([]string{"a", "z"}) {
		t.Error("abc does not cover z")
	}
	if !ab.CoversColumns(nil) {
		t.Error("empty set is always covered")
	}
}

func TestIndexDefSignatures(t *testing.T) {
	ab := IndexDef{Table: "t", Columns: []string{"a", "b"}}
	ba := IndexDef{Table: "t", Columns: []string{"b", "a"}}
	if ab.Key() == ba.Key() {
		t.Error("Key must be order sensitive")
	}
	set := ab.ColumnSet()
	if !set["a"] || !set["b"] || len(set) != 2 {
		t.Errorf("ColumnSet = %v", set)
	}
}

func TestIndexDefString(t *testing.T) {
	d := IndexDef{Name: "ix", Table: "t", Columns: []string{"a"}}
	if got := d.String(); got != "ix ON t(a)" {
		t.Errorf("String = %q", got)
	}
}

func TestMustNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewTable did not panic on invalid input")
		}
	}()
	MustNewTable("", nil)
}

// TestCompareKeysMatchesKey: CompareKeys orders definitions as their
// Key strings do, over names that are prefixes of one another and that
// hold the key's own punctuation and bytes below and above it.
func TestCompareKeysMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	name := func() string {
		const alphabet = "ab(),' ~\x00"
		b := make([]byte, rng.Intn(4))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	def := func() IndexDef {
		d := IndexDef{Name: name(), Table: name()}
		for i := rng.Intn(4); i > 0; i-- {
			d.Columns = append(d.Columns, name())
		}
		return d
	}
	for i := 0; i < 200000; i++ {
		a, b := def(), def()
		if i%3 == 0 {
			b.Table = a.Table
		}
		if got, want := CompareKeys(&a, &b), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("CompareKeys(%q, %q) = %d, Key order %d", a.Key(), b.Key(), got, want)
		}
	}
}
