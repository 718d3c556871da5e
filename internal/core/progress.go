package core

// Progress is a point-in-time snapshot of a running search, delivered
// to the Progress callback of GreedyOptions / ExhaustiveOptions. The
// long-running advisor service surfaces these snapshots while a job is
// in flight; the batch CLI can stream them as JSON. Callbacks are
// invoked synchronously from the searching goroutine, so they must be
// cheap and must not block for long.
type Progress struct {
	// Steps counts accepted merge steps so far (Greedy; 0 for
	// Exhaustive, which reports ConfigsExplored instead).
	Steps int
	// ConfigsExplored counts candidate configurations considered.
	ConfigsExplored int64
	// CostEvaluations counts constraint checks consumed so far.
	CostEvaluations int64
	// OptimizerCalls counts actual optimizer invocations issued so far
	// (0 for checkers that never consult a cost function).
	OptimizerCalls int64
	// InitialBytes is the initial configuration's estimated size.
	InitialBytes int64
	// CurrentBytes is the current (Greedy) or best-so-far (Exhaustive)
	// configuration's estimated size; InitialBytes - CurrentBytes is
	// the storage saved so far.
	CurrentBytes int64
}

// SavedBytes is the storage saved so far.
func (p Progress) SavedBytes() int64 { return p.InitialBytes - p.CurrentBytes }
