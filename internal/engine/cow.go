// Copy-on-write snapshots. A Snapshot freezes a Database into an
// immutable view; Fork then derives cheap private copies that share
// every heap page, index and statistics object with the frozen origin
// while keeping their own catalog-of-indexes and statistics maps. One
// loaded database can this way serve many concurrent idxmerged
// sessions — and ship to stateless what-if workers — without rebuilds
// (ROADMAP item 3).
package engine

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"

	"indexmerge/internal/catalog"
	"indexmerge/internal/stats"
	"indexmerge/internal/value"
)

// ErrFrozen is returned by mutators invoked on a database that has
// been frozen by Snapshot().
var ErrFrozen = errors.New("engine: database is frozen by a snapshot")

// ErrForkMutation is returned by row/schema mutators invoked on a
// copy-on-write fork, which shares heaps and schema with its origin.
var ErrForkMutation = errors.New("engine: copy-on-write fork forbids row and schema mutation")

// Snapshot is an immutable view of a Database, keyed by the
// statistics version captured at freeze time. Creating a snapshot
// freezes the origin permanently: every mutator on it fails from then
// on, which is what makes concurrent Fork() calls and concurrent
// read-path use safe.
type Snapshot struct {
	origin  *Database
	version uint64
	fp      uint64
}

// Snapshot freezes the database and returns an immutable view of it.
// Freezing is permanent and idempotent; the read path (costing,
// scans) remains fully usable on the origin.
func (db *Database) Snapshot() *Snapshot {
	if db.fork {
		panic("engine: Snapshot on a copy-on-write fork")
	}
	db.frozen.Store(true)
	return &Snapshot{origin: db, version: db.statsVersion.Load(), fp: db.Fingerprint()}
}

// StatsVersion returns the statistics version captured at freeze time.
func (s *Snapshot) StatsVersion() uint64 { return s.version }

// Fingerprint returns the origin's fingerprint (see
// Database.Fingerprint) captured at freeze time.
func (s *Snapshot) Fingerprint() uint64 { return s.fp }

// DB returns the frozen origin for read-only use (costing, scans).
func (s *Snapshot) DB() *Database { return s.origin }

// Fork returns a copy-on-write database derived from the snapshot.
// The fork shares the origin's schema, heaps, materialized indexes
// and statistics objects, but owns its maps: CreateIndex, DropIndex,
// Materialize and Analyze act on the fork alone, while Insert,
// DeleteWhere, BulkLoad and CreateTable — which would mutate shared
// state — return ErrForkMutation. Forking is safe concurrently with
// other forks and with read-path use of the origin.
func (s *Snapshot) Fork() *Database {
	o := s.origin
	f := &Database{
		schema:       o.schema,
		heaps:        maps.Clone(o.heaps),
		indexes:      maps.Clone(o.indexes),
		tstats:       maps.Clone(o.tstats),
		statsDigests: maps.Clone(o.statsDigests),
		statsOpts:    o.statsOpts,
		fork:         true,
	}
	f.statsVersion.Store(s.version)
	return f
}

// mutableRows guards mutators that write rows or schema (shared with
// the origin on forks, immutable on frozen databases).
func (db *Database) mutableRows() error {
	if db.fork {
		return ErrForkMutation
	}
	if db.frozen.Load() {
		return ErrFrozen
	}
	return nil
}

// mutableIndexes guards index DDL and Analyze: forbidden on frozen
// origins, allowed on forks (their index/stats maps are private and
// building an index only reads the shared heap).
func (db *Database) mutableIndexes() error {
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
