// Package engine ties the substrates together into a database: tables
// with heap storage, materialized B+-tree indexes, per-column
// statistics, and the what-if configuration support the optimizer and
// the index-merging core consume. It plays the role Microsoft SQL
// Server 7.0 plays in the paper's architecture (Figure 1, "Database
// Server").
package engine

import (
	"fmt"
	"sync/atomic"

	"indexmerge/internal/catalog"
	"indexmerge/internal/faults"
	"indexmerge/internal/stats"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
)

// Database is an in-memory database instance.
//
// Concurrency contract: a database is mutable until Snapshot freezes
// it, and read-only from then on. The read path — Schema, Heap,
// Index(es), TableStats, TableRowCount, DataBytes, EstimateIndexBytes,
// ConfigurationBytes — is safe for concurrent use provided no mutator
// (CreateTable, CreateIndex, DropIndex, Insert, DeleteWhere,
// Materialize, Analyze*) runs at the same time, which freezing
// guarantees. The parallel merge search only ever uses the read path;
// experiments that materialize configurations do so on an unfrozen
// database, strictly between searches.
type Database struct {
	schema  *catalog.Schema
	heaps   map[string]*storage.Heap
	indexes map[string]*storage.Index // keyed by IndexDef.Key()
	tstats  map[string]*stats.TableStats
	// statsDigests holds statsDigest of each tstats entry, computed
	// when Analyze builds it, for Fingerprint.
	statsDigests map[string]uint64

	statsOpts stats.BuildOptions

	// statsVersion counts statistics rebuilds (Analyze calls). Prepared
	// query descriptors bake selectivities in at prepare time and use
	// the version to detect staleness (optimizer.StatsVersioner).
	statsVersion atomic.Uint64

	// frozen is set permanently by Snapshot(): every mutator fails from
	// then on, making shared read-path use safe (see frozen.go).
	frozen atomic.Bool
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{
		schema:       catalog.NewSchema(),
		heaps:        make(map[string]*storage.Heap),
		indexes:      make(map[string]*storage.Index),
		tstats:       make(map[string]*stats.TableStats),
		statsDigests: make(map[string]uint64),
	}
}

// SetStatsOptions configures how AnalyzeAll builds statistics (bucket
// count, sampling rate, seed).
func (db *Database) SetStatsOptions(opt stats.BuildOptions) { db.statsOpts = opt }

// Schema returns the database schema.
func (db *Database) Schema() *catalog.Schema { return db.schema }

// CreateTable registers a table and allocates its heap.
func (db *Database) CreateTable(t *catalog.Table) error {
	if err := db.mutable(); err != nil {
		return err
	}
	if err := db.schema.AddTable(t); err != nil {
		return err
	}
	db.heaps[t.Name] = storage.NewHeap(t)
	return nil
}

// Heap returns the named table's heap.
func (db *Database) Heap(table string) (*storage.Heap, error) {
	h, ok := db.heaps[table]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", table)
	}
	return h, nil
}

// Insert appends one row, maintaining every materialized index on the
// table. Maintenance page writes accrue to each index's counters.
func (db *Database) Insert(table string, r value.Row) error {
	if err := db.mutable(); err != nil {
		return err
	}
	h, err := db.Heap(table)
	if err != nil {
		return err
	}
	id, err := h.Insert(r)
	if err != nil {
		return err
	}
	for _, ix := range db.indexes {
		if ix.Def().Table == table {
			ix.InsertRow(id, r)
		}
	}
	return nil
}

// DeleteWhere removes every live row the predicate matches, keeping
// all indexes maintained (each index delete is charged to maintenance
// like a ghost-record removal). It returns the number of rows deleted.
func (db *Database) DeleteWhere(table string, match func(value.Row) bool) (int, error) {
	if err := db.mutable(); err != nil {
		return 0, err
	}
	h, err := db.Heap(table)
	if err != nil {
		return 0, err
	}
	var victims []storage.RowID
	h.Scan(func(id storage.RowID, r value.Row) bool {
		if match(r) {
			victims = append(victims, id)
		}
		return true
	})
	for _, id := range victims {
		row, err := h.Get(id)
		if err != nil {
			return 0, err
		}
		for _, ix := range db.indexes {
			if ix.Def().Table == table {
				ix.DeleteRow(id, row)
			}
		}
		if err := h.Delete(id); err != nil {
			return 0, err
		}
	}
	return len(victims), nil
}

// CreateIndex materializes an index over the table's current contents.
// Creating an index whose definition (table + ordered columns) already
// exists is an error.
func (db *Database) CreateIndex(def catalog.IndexDef) (*storage.Index, error) {
	if err := db.mutable(); err != nil {
		return nil, err
	}
	def, err := catalog.NewIndexDef(db.schema, def.Name, def.Table, def.Columns)
	if err != nil {
		return nil, err
	}
	key := def.Key()
	if _, dup := db.indexes[key]; dup {
		return nil, fmt.Errorf("engine: index on %s already exists", key)
	}
	h := db.heaps[def.Table]
	ix, err := storage.BuildIndex(def, h)
	if err != nil {
		return nil, err
	}
	db.indexes[key] = ix
	return ix, nil
}

// DropIndex removes the index with the given definition key.
func (db *Database) DropIndex(defKey string) error {
	if err := db.mutable(); err != nil {
		return err
	}
	if _, ok := db.indexes[defKey]; !ok {
		return fmt.Errorf("engine: no index on %s", defKey)
	}
	delete(db.indexes, defKey)
	return nil
}

// DropAllIndexes removes every materialized index. It panics on a
// frozen database (callers that can observe freezing use DropIndex
// and get ErrFrozen).
func (db *Database) DropAllIndexes() {
	if db.frozen.Load() {
		panic("engine: DropAllIndexes on a frozen database")
	}
	db.indexes = make(map[string]*storage.Index)
}

// Index returns the materialized index with the given definition key.
func (db *Database) Index(defKey string) (*storage.Index, bool) {
	ix, ok := db.indexes[defKey]
	return ix, ok
}

// Indexes returns all materialized indexes.
func (db *Database) Indexes() []*storage.Index {
	out := make([]*storage.Index, 0, len(db.indexes))
	for _, ix := range db.indexes {
		out = append(out, ix)
	}
	return out
}

// AnalyzeAll (re)builds statistics for every table. Statistics back
// both real-index costing and hypothetical-index costing; they are the
// whole substance of a what-if index (paper §3.5.3).
func (db *Database) AnalyzeAll() {
	for _, t := range db.schema.Tables() {
		db.Analyze(t.Name)
	}
}

// Analyze rebuilds statistics for one table. It panics on a frozen
// database (a programming error — readers of a snapshot share its
// statistics).
func (db *Database) Analyze(table string) {
	if db.frozen.Load() {
		panic("engine: Analyze on a frozen database")
	}
	faults.Hit(faults.StatsSample)
	h, err := db.Heap(table)
	if err != nil {
		return
	}
	t := h.Table()
	ts := &stats.TableStats{RowCount: h.RowCount(), Columns: make(map[string]*stats.ColumnStats, len(t.Columns))}
	// One scan gathers every column into a slice of its declared type
	// (Heap.Insert admits no other non-null kind).
	cols := make([]stats.Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = stats.NewColumn(c.Type, int(h.RowCount()))
	}
	h.Scan(func(_ storage.RowID, r value.Row) bool {
		for i, v := range r {
			cols[i].Append(v)
		}
		return true
	})
	for i, c := range t.Columns {
		opt := db.statsOpts
		opt.Seed = db.statsOpts.Seed + int64(i)*7919
		ts.Columns[c.Name] = cols[i].Build(opt)
	}
	db.tstats[table] = ts
	db.statsDigests[table] = statsDigest(t, ts)
	db.statsVersion.Add(1)
}

// StatsVersion returns the statistics rebuild counter; it implements
// optimizer.StatsVersioner so prepared workloads detect stale
// selectivities after Analyze reruns.
func (db *Database) StatsVersion() uint64 { return db.statsVersion.Load() }

// TableStats returns statistics for a table (nil when not analyzed).
func (db *Database) TableStats(table string) *stats.TableStats { return db.tstats[table] }

// TableRowCount returns the live row count of a table.
func (db *Database) TableRowCount(table string) int64 {
	if h, ok := db.heaps[table]; ok {
		return h.RowCount()
	}
	return 0
}

// DataBytes returns the total heap size across tables — "the data
// size" against which the paper reports index storage multiples.
func (db *Database) DataBytes() int64 {
	var total int64
	for _, h := range db.heaps {
		total += h.Bytes()
	}
	return total
}

// EstimateIndexBytes predicts the size of an index (materialized or
// hypothetical) over the current table contents.
func (db *Database) EstimateIndexBytes(def catalog.IndexDef) int64 {
	t, ok := db.schema.Table(def.Table)
	if !ok {
		return 0
	}
	return storage.EstimateIndexBytes(db.TableRowCount(def.Table), t.WidthOf(def.Columns))
}

// ConfigurationBytes sums the estimated storage of a configuration
// (paper §3.1: "The storage of a configuration C is the sum of the
// storage of indexes in C").
func (db *Database) ConfigurationBytes(cfg []catalog.IndexDef) int64 {
	var total int64
	for _, def := range cfg {
		total += db.EstimateIndexBytes(def)
	}
	return total
}

// Materialize drops all indexes and creates exactly the given
// configuration — used by experiments that need real page counts and
// maintenance costs rather than estimates.
func (db *Database) Materialize(cfg []catalog.IndexDef) error {
	if err := db.mutable(); err != nil {
		return err
	}
	db.DropAllIndexes()
	for _, def := range cfg {
		if _, err := db.CreateIndex(def); err != nil {
			return err
		}
	}
	return nil
}

// ResetMaintenance starts a fresh maintenance accounting window on all
// materialized indexes. It panics on a frozen database: maintenance
// counters live on the index objects, which its readers share.
func (db *Database) ResetMaintenance() {
	if db.frozen.Load() {
		panic("engine: ResetMaintenance on a frozen database")
	}
	for _, ix := range db.indexes {
		ix.ResetMaintenance()
	}
}

// MaintenanceCost totals maintenance page writes across all indexes
// since the last reset.
func (db *Database) MaintenanceCost() int64 {
	var total int64
	for _, ix := range db.indexes {
		total += ix.MaintenanceCost()
	}
	return total
}
