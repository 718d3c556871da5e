// Frozen databases. Snapshot freezes a Database for good: every
// mutator fails from then on, so the one database is shared by pointer
// — every idxmerged session over a spec, a what-if worker — and read
// concurrently without copying. What-if costing plans over indexes
// that never exist (paper §3.5.3), so no reader needs a private copy.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"indexmerge/internal/catalog"
	"indexmerge/internal/stats"
	"indexmerge/internal/value"
)

// ErrFrozen is returned by mutators invoked on a database that has
// been frozen by Snapshot().
var ErrFrozen = errors.New("engine: database is frozen by a snapshot")

// Snapshot is a frozen Database and the fingerprint computed when it
// was frozen.
type Snapshot struct {
	db *Database
	fp uint64
}

// Snapshot freezes the database and returns a handle to it. Freezing
// is permanent and idempotent; the read path (costing, scans) remains
// fully usable and is safe for any number of concurrent readers.
func (db *Database) Snapshot() *Snapshot {
	db.frozen.Store(true)
	return &Snapshot{db: db, fp: db.Fingerprint()}
}

// Fingerprint returns the database's fingerprint (see
// Database.Fingerprint) computed at freeze time.
func (s *Snapshot) Fingerprint() uint64 { return s.fp }

// DB returns the frozen database for read-only use.
func (s *Snapshot) DB() *Database { return s.db }

// Fork is DB; the benchmark's per-layer timings call it.
func (s *Snapshot) Fork() *Database { return s.db }

// mutable guards the mutators that return an error; Analyze,
// DropAllIndexes and ResetMaintenance panic on a frozen database
// instead.
func (db *Database) mutable() error {
	if db.frozen.Load() {
		return ErrFrozen
	}
	return nil
}

// fingerprinter is the FNV-1a state and encoding Fingerprint and
// statsDigest share: little-endian fixed-width integers,
// length-prefixed strings.
type fingerprinter uint64

func newFingerprinter() *fingerprinter {
	f := fingerprinter(14695981039346656037)
	return &f
}

func (f *fingerprinter) byte(b byte) { *f = (*f ^ fingerprinter(b)) * 1099511628211 }

func (f *fingerprinter) u64(v uint64) {
	for shift := 0; shift < 64; shift += 8 {
		f.byte(byte(v >> shift))
	}
}

func (f *fingerprinter) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fingerprinter) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
}

func (f *fingerprinter) val(v value.Value) {
	f.u64(uint64(v.Kind()))
	switch v.Kind() {
	case value.Int, value.Date:
		f.u64(uint64(v.Int()))
	case value.Float:
		f.f64(v.Float())
	case value.String:
		f.str(v.Str())
	}
}

// statsDigest hashes everything the optimizer reads from a table's
// statistics: per column in schema order the row, null and distinct
// counts, Min, Max, and every bucket's boundary, rows and distinct.
func statsDigest(t *catalog.Table, ts *stats.TableStats) uint64 {
	f := newFingerprinter()
	f.u64(uint64(ts.RowCount))
	for _, c := range t.Columns {
		cs := ts.Columns[c.Name]
		f.f64(cs.RowCount)
		f.f64(cs.NullCount)
		f.f64(cs.Distinct)
		f.val(cs.Min)
		f.val(cs.Max)
		f.u64(uint64(len(cs.Buckets)))
		for _, b := range cs.Buckets {
			f.val(b.Hi)
			f.f64(b.Rows)
			f.f64(b.Distinct)
		}
	}
	return uint64(*f)
}

// Fingerprint summarizes the database for coordinator/worker
// compatibility checks: FNV-1a over the sorted schema (table, column
// names/types/widths), per-table row counts, heap bytes and the digest
// of the built statistics (statsDigest, computed by Analyze), the
// sorted materialized index keys, and the statistics build options
// and version. Two processes that build the same database through the
// same deterministic path (a snapshot file, or a named generator with
// identical scale and seed) agree on it; a worker whose fingerprint
// differs from the coordinator's must not be trusted to return
// identical what-if costs.
func (db *Database) Fingerprint() uint64 {
	f := newFingerprinter()
	tables := db.schema.Tables()
	names := make([]string, 0, len(tables))
	byName := make(map[string]int, len(tables))
	for i, t := range tables {
		names = append(names, t.Name)
		byName[t.Name] = i
	}
	sort.Strings(names)
	for _, name := range names {
		t := tables[byName[name]]
		f.str(t.Name)
		f.u64(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			f.str(c.Name)
			f.u64(uint64(c.Type))
			f.u64(uint64(c.Width))
		}
		f.u64(uint64(db.TableRowCount(t.Name)))
		if hp, ok := db.heaps[t.Name]; ok {
			f.u64(uint64(hp.Bytes()))
		}
		f.u64(db.statsDigests[t.Name])
	}
	keys := make([]string, 0, len(db.indexes))
	for k := range db.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f.u64(uint64(len(keys)))
	for _, k := range keys {
		f.str(k)
	}
	f.u64(uint64(db.statsOpts.Buckets))
	f.u64(uint64(int64(db.statsOpts.SampleRate * 1e9)))
	f.u64(uint64(db.statsOpts.Seed))
	f.u64(db.statsVersion.Load())
	return uint64(*f)
}

// FingerprintString renders a fingerprint the way the worker protocol
// transports it (hexadecimal, to survive JSON's float64 numbers).
func FingerprintString(fp uint64) string { return fmt.Sprintf("%016x", fp) }
