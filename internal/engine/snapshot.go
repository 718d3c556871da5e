package engine

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"indexmerge/internal/catalog"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
)

// Snapshot wire format: a gob-encoded, gzip-compressed dump of the
// schema, all live rows, and the materialized index definitions.
// Statistics are rebuilt on load (they are derived state). The format
// lets dbgen materialize a database once and reuse it across tool runs.

type wireColumn struct {
	Name  string
	Kind  uint8
	Width int
}

type wireValue struct {
	Kind uint8
	I    int64
	F    float64
	S    string
	// NegZero marks a float −0: gob sends no field that equals zero,
	// so F alone would read back as +0. Snapshots written before the
	// field existed decode it as false.
	NegZero bool
}

type wireTable struct {
	Name    string
	Columns []wireColumn
	Rows    [][]wireValue
}

type wireIndex struct {
	Name    string
	Table   string
	Columns []string
}

type wireSnapshot struct {
	Magic   string
	Tables  []wireTable
	Indexes []wireIndex
}

const snapshotMagic = "indexmerge-snapshot-v1"

func toWire(v value.Value) wireValue {
	switch v.Kind() {
	case value.Int, value.Date:
		return wireValue{Kind: uint8(v.Kind()), I: v.Int()}
	case value.Float:
		f := v.Float()
		return wireValue{Kind: uint8(v.Kind()), F: f, NegZero: f == 0 && math.Signbit(f)}
	case value.String:
		return wireValue{Kind: uint8(v.Kind()), S: v.Str()}
	}
	return wireValue{Kind: uint8(value.Null)}
}

func fromWire(w wireValue) value.Value {
	switch value.Kind(w.Kind) {
	case value.Int:
		return value.NewInt(w.I)
	case value.Date:
		return value.NewDate(w.I)
	case value.Float:
		if w.NegZero {
			return value.NewFloat(math.Copysign(0, -1))
		}
		return value.NewFloat(w.F)
	case value.String:
		return value.NewString(w.S)
	}
	return value.NewNull()
}

// SaveSnapshot writes the database (schema, live rows, index
// definitions) to w.
func (db *Database) SaveSnapshot(w io.Writer) error {
	gz := gzip.NewWriter(w)
	enc := gob.NewEncoder(gz)
	snap := wireSnapshot{Magic: snapshotMagic}
	for _, t := range db.schema.Tables() {
		h, err := db.Heap(t.Name)
		if err != nil {
			return err
		}
		wt := wireTable{Name: t.Name}
		for _, c := range t.Columns {
			wt.Columns = append(wt.Columns, wireColumn{Name: c.Name, Kind: uint8(c.Type), Width: c.Width})
		}
		h.Scan(func(_ storage.RowID, r value.Row) bool {
			row := make([]wireValue, len(r))
			for i, v := range r {
				row[i] = toWire(v)
			}
			wt.Rows = append(wt.Rows, row)
			return true
		})
		snap.Tables = append(snap.Tables, wt)
	}
	for _, ix := range db.Indexes() {
		d := ix.Def()
		snap.Indexes = append(snap.Indexes, wireIndex{Name: d.Name, Table: d.Table, Columns: d.Columns})
	}
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("engine: encoding snapshot: %w", err)
	}
	return gz.Close()
}

// LoadSnapshot reconstructs a database from a snapshot written by
// SaveSnapshot: tables, rows, materialized indexes, fresh statistics.
func LoadSnapshot(r io.Reader) (*Database, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot is not gzip: %w", err)
	}
	defer gz.Close()
	var snap wireSnapshot
	if err := gob.NewDecoder(gz).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	if snap.Magic != snapshotMagic {
		return nil, fmt.Errorf("engine: bad snapshot magic %q", snap.Magic)
	}
	db := NewDatabase()
	for _, wt := range snap.Tables {
		cols := make([]catalog.Column, len(wt.Columns))
		for i, c := range wt.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: value.Kind(c.Kind), Width: c.Width}
		}
		t, err := catalog.NewTable(wt.Name, cols)
		if err != nil {
			return nil, err
		}
		if err := db.CreateTable(t); err != nil {
			return nil, err
		}
		// BulkLoad hands fill rows of the table's width; a stored row of
		// another width is refused here, as Insert would refuse it.
		for _, wr := range wt.Rows {
			if len(wr) != len(cols) {
				return nil, fmt.Errorf("engine: snapshot table %q has %d columns, a row has %d", wt.Name, len(cols), len(wr))
			}
		}
		if err := db.BulkLoad(wt.Name, len(wt.Rows), func(row value.Row, i int) {
			for c, wv := range wt.Rows[i] {
				row[c] = fromWire(wv)
			}
		}); err != nil {
			return nil, err
		}
	}
	for _, wi := range snap.Indexes {
		if _, err := db.CreateIndex(catalog.IndexDef{Name: wi.Name, Table: wi.Table, Columns: wi.Columns}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// SaveSnapshotFile and LoadSnapshotFile are path-based conveniences.
func (db *Database) SaveSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := db.SaveSnapshot(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshotFile loads a snapshot from disk.
func LoadSnapshotFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(bufio.NewReader(f))
}
