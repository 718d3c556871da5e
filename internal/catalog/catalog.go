// Package catalog holds schema metadata: tables, columns, and index
// definitions. The catalog is the shared vocabulary between the storage
// engine, the optimizer, the advisor, and the index-merging core.
package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"indexmerge/internal/value"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type value.Kind
	// Width is the stored width in bytes. For String columns it is the
	// declared (fixed) width; for numeric columns it is 8. Index size
	// estimation (paper §3.3) sums these widths.
	Width int
}

// Table describes a relation: its name and ordered columns.
type Table struct {
	Name    string
	Columns []Column

	byName map[string]int
}

// NewTable builds a table descriptor, normalizing numeric widths.
func NewTable(name string, cols []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %q has no columns", name)
	}
	t := &Table{Name: name, Columns: make([]Column, len(cols)), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("catalog: table %q column %d has empty name", name, i)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("catalog: table %q has duplicate column %q", name, c.Name)
		}
		switch c.Type {
		case value.Int, value.Float, value.Date:
			c.Width = 8
		case value.String:
			if c.Width <= 0 {
				return nil, fmt.Errorf("catalog: table %q string column %q needs a positive width", name, c.Name)
			}
		default:
			return nil, fmt.Errorf("catalog: table %q column %q has invalid type %v", name, c.Name, c.Type)
		}
		t.Columns[i] = c
		t.byName[c.Name] = i
	}
	return t, nil
}

// MustNewTable is NewTable, panicking on error; for statically known schemas.
func MustNewTable(name string, cols []Column) *Table {
	t, err := NewTable(name, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// Column returns the named column descriptor.
func (t *Table) Column(name string) (Column, bool) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// HasColumn reports whether the table defines the named column.
func (t *Table) HasColumn(name string) bool { return t.ColumnIndex(name) >= 0 }

// RowWidth is the stored width of one row in bytes (sum of column widths).
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.Width
	}
	return w
}

// ColumnNames returns the table's column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// WidthOf sums the stored widths of the named columns. Unknown columns
// contribute zero; callers validate column existence separately.
func (t *Table) WidthOf(cols []string) int {
	w := 0
	for _, name := range cols {
		if i := t.ColumnIndex(name); i >= 0 {
			w += t.Columns[i].Width
		}
	}
	return w
}

// SchemaHolder is anything that exposes a schema (e.g. the engine's
// Database); small consumers accept this instead of the full database.
type SchemaHolder interface {
	Schema() *Schema
}

// Schema is a set of tables.
type Schema struct {
	tables map[string]*Table
	order  []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: make(map[string]*Table)}
}

// AddTable registers a table; table names must be unique.
func (s *Schema) AddTable(t *Table) error {
	if _, dup := s.tables[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	s.tables[t.Name] = t
	s.order = append(s.order, t.Name)
	return nil
}

// Table looks up a table by name.
func (s *Schema) Table(name string) (*Table, bool) {
	t, ok := s.tables[name]
	return t, ok
}

// Tables returns the tables in registration order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.tables[name])
	}
	return out
}

// TableNames returns the registered table names in registration order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// IndexDef identifies an index: a table and an ordered list of key
// columns. Column order is semantically significant — it determines
// which predicates the index can serve with a seek (paper Definition 1,
// Example 1). IndexDef carries no storage; the storage engine and the
// what-if machinery attach size and statistics separately.
type IndexDef struct {
	Name    string
	Table   string
	Columns []string
}

// NewIndexDef validates the definition against a schema and returns it.
func NewIndexDef(s *Schema, name, table string, columns []string) (IndexDef, error) {
	if err := s.CheckIndex(IndexDef{Name: name, Table: table, Columns: columns}); err != nil {
		return IndexDef{}, err
	}
	if name == "" {
		name = AutoIndexName(table, columns)
	}
	return IndexDef{Name: name, Table: table, Columns: append([]string(nil), columns...)}, nil
}

// CheckIndex reports the first way the definition does not fit the
// schema — an unknown table, no columns, an unknown or a repeated
// column — naming the index (by its key when it has no name) and the
// table or column; nil when it fits.
func (s *Schema) CheckIndex(d IndexDef) error {
	name := func() string {
		if d.Name == "" {
			return d.Key()
		}
		return d.Name
	}
	t, ok := s.Table(d.Table)
	if !ok {
		return fmt.Errorf("catalog: index %q references unknown table %q", name(), d.Table)
	}
	if len(d.Columns) == 0 {
		return fmt.Errorf("catalog: index %q has no columns", name())
	}
	for i, c := range d.Columns {
		if !t.HasColumn(c) {
			return fmt.Errorf("catalog: index %q references unknown column %s.%s", name(), d.Table, c)
		}
		if slices.Contains(d.Columns[:i], c) {
			return fmt.Errorf("catalog: index %q repeats column %q", name(), c)
		}
	}
	return nil
}

// AutoIndexName derives a deterministic name from table and columns.
func AutoIndexName(table string, columns []string) string {
	return "ix_" + table + "_" + strings.Join(columns, "_")
}

// Key returns a canonical identity string: table plus ordered columns.
// Two IndexDefs with equal Key are the same index regardless of Name.
func (d IndexDef) Key() string {
	return d.Table + "(" + strings.Join(d.Columns, ",") + ")"
}

// CompareKeys is strings.Compare(a.Key(), b.Key()) without building
// either key: key order, by which the optimizer chooses between indexes
// of equal merit.
func CompareKeys(a, b *IndexDef) int {
	// The common cases: the first names that differ, where neither is a
	// prefix of the other, decide; or one non-empty column list is a
	// prefix of the other, and ")" sorts before ",".
	if a.Table != b.Table {
		if c, ok := compareApart(a.Table, b.Table); ok {
			return c
		}
	} else {
		for k := 0; ; k++ {
			if k == len(a.Columns) || k == len(b.Columns) {
				if k == 0 {
					break
				}
				return cmp.Compare(len(a.Columns), len(b.Columns))
			}
			if a.Columns[k] != b.Columns[k] {
				if c, ok := compareApart(a.Columns[k], b.Columns[k]); ok {
					return c
				}
				break
			}
		}
	}
	x, y := keyReader{d: a}, keyReader{d: b}
	for {
		okx, oky := x.fill(), y.fill()
		if !okx || !oky {
			switch {
			case okx:
				return 1
			case oky:
				return -1
			}
			return 0
		}
		n := min(len(x.s), len(y.s))
		if c := strings.Compare(x.s[:n], y.s[:n]); c != 0 {
			return c
		}
		x.s, y.s = x.s[n:], y.s[n:]
	}
}

// compareApart is strings.Compare(x, y) when neither is a prefix of the
// other; ok is false when one is.
func compareApart(x, y string) (c int, ok bool) {
	n := min(len(x), len(y))
	if c = strings.Compare(x[:n], y[:n]); c != 0 {
		return c, true
	}
	return 0, false
}

// keyReader reads an index's key part by part: the table, "(", then
// each column after its separator ("" before the first, "," after), then
// ")". s is what is left of the part read last.
type keyReader struct {
	d    *IndexDef
	part int
	s    string
}

// fill makes s the non-empty rest of the key's current part, moving on
// as parts run out; false once the key is read to its end.
func (r *keyReader) fill() bool {
	for len(r.s) == 0 {
		n := len(r.d.Columns)
		switch j := r.part - 2; {
		case r.part == 0:
			r.s = r.d.Table
		case r.part == 1:
			r.s = "("
		case j < 2*n && j%2 == 1:
			r.s = r.d.Columns[j/2]
		case j < 2*n && j > 0:
			r.s = ","
		case j == 2*n:
			r.s = ")"
		case j > 2*n:
			return false
		}
		r.part++
	}
	return true
}

// String implements fmt.Stringer.
func (d IndexDef) String() string { return d.Name + " ON " + d.Key() }

// HasPrefix reports whether other's column list is a leading prefix of
// d's (order-sensitive). Every index is a prefix of itself.
func (d IndexDef) HasPrefix(other IndexDef) bool {
	if d.Table != other.Table || len(other.Columns) > len(d.Columns) {
		return false
	}
	for i, c := range other.Columns {
		if d.Columns[i] != c {
			return false
		}
	}
	return true
}

// ColumnSet returns the index's columns as a set.
func (d IndexDef) ColumnSet() map[string]bool {
	set := make(map[string]bool, len(d.Columns))
	for _, c := range d.Columns {
		set[c] = true
	}
	return set
}

// CoversColumns reports whether the index contains every column in cols
// (order-insensitive) — the covering-index test from the paper's intro.
func (d IndexDef) CoversColumns(cols []string) bool {
	set := d.ColumnSet()
	for _, c := range cols {
		if !set[c] {
			return false
		}
	}
	return true
}
