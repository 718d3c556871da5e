// Package optimizer implements a cost-based query optimizer with
// what-if (hypothetical) index support. It is the stand-in for the SQL
// Server 7.0 optimizer + Showplan interface the paper builds on: given
// a query and a *configuration* (a set of index definitions that need
// not be materialized), it returns the cheapest plan it can find, its
// estimated cost, and a report of which indexes the plan uses and how
// (seek vs scan) — everything the index-merging core consumes.
package optimizer

import (
	"indexmerge/internal/catalog"
	"indexmerge/internal/stats"
)

// Meta is the read-only database metadata the optimizer needs. The
// engine's Database satisfies it.
//
// Implementations must be safe for concurrent calls as long as the
// underlying database is not mutated — the parallel merge search
// issues Schema/TableRowCount/TableStats reads from many goroutines
// at once.
type Meta interface {
	Schema() *catalog.Schema
	TableRowCount(table string) int64
	TableStats(table string) *stats.TableStats
}

// Configuration is a set of index definitions to optimize against.
// Indexes in a configuration are hypothetical from the optimizer's
// point of view: only their definitions and the base tables'
// statistics matter, exactly as with the what-if interface of [CN98].
type Configuration []catalog.IndexDef

// Clone returns a copy of the configuration.
func (c Configuration) Clone() Configuration {
	return append(Configuration(nil), c...)
}
