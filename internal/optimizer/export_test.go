package optimizer

import "indexmerge/internal/sql"

// Bind exposes bind to the package's external tests.
func (pq *PreparedQuery) Bind(stmt *sql.SelectStmt) *PreparedQuery { return pq.bind(stmt) }
