package core

import (
	"context"
	"fmt"

	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// MergePair produces a merged index from a pair — the MergePair module
// of the paper's architecture (Figure 1, §3.3).
type MergePair interface {
	// Merge returns the merged index for the pair.
	Merge(a, b *Index) (*Index, error)
	// Name identifies the procedure in reports.
	Name() string
}

// MergePairCost is the paper's Figure 2 procedure: an index-preserving
// merge whose leading prefix is the parent with the higher
// Seek-Cost(W, I) — losing a seek typically multiplies a query's cost,
// so the more seek-valuable order survives.
type MergePairCost struct {
	Seek *SeekCosts
	// ReversePreference flips the choice (ablation: leading prefix =
	// lower seek cost). Off in the paper's algorithm.
	ReversePreference bool
}

// Name implements MergePair.
func (m *MergePairCost) Name() string { return "MergePair-Cost" }

// Merge implements MergePair (paper Figure 2).
func (m *MergePairCost) Merge(a, b *Index) (*Index, error) {
	leading, trailing := a, b
	if m.Seek.SeekCost(a.Key()) < m.Seek.SeekCost(b.Key()) {
		leading, trailing = b, a
	}
	if m.ReversePreference {
		leading, trailing = trailing, leading
	}
	return MergeOrdered(leading, trailing)
}

// MergePairSyntactic is the paper's Figure 3 procedure: the leading
// prefix is the index whose leading column appears more often in the
// workload's conditions, ORDER BY, GROUP BY and SELECT clauses. It
// ignores cost and usage information — the paper shows it performs
// substantially worse.
type MergePairSyntactic struct {
	Freq map[string]float64 // from LeadingColumnFrequencies
}

// Name implements MergePair.
func (m *MergePairSyntactic) Name() string { return "MergePair-Syntactic" }

// Merge implements MergePair (paper Figure 3).
func (m *MergePairSyntactic) Merge(a, b *Index) (*Index, error) {
	fa := m.leadingFreq(a)
	fb := m.leadingFreq(b)
	leading, trailing := a, b
	if fb > fa {
		leading, trailing = b, a
	}
	return MergeOrdered(leading, trailing)
}

func (m *MergePairSyntactic) leadingFreq(ix *Index) float64 {
	if len(ix.Def.Columns) == 0 {
		return 0
	}
	return m.Freq[ix.Def.Table+"."+ix.Def.Columns[0]]
}

// MergePairExhaustive considers every permutation of the pair's column
// union — all k! merges admitted by Definition 1, not just the index-
// preserving ones — and keeps the permutation with the lowest
// optimizer-estimated workload cost. It exists as a quality upper
// bound for the experiments (§3.3, §4.3.2) and is exponential in the
// column count.
type MergePairExhaustive struct {
	Server  CostServer
	W       *sql.Workload
	Base    *Configuration // configuration context for cost evaluation
	MaxCols int            // safety bound; merges wider than this fall back to index-preserving

	// Prepared is W prepared against the Server's statistics; left nil,
	// the first Merge prepares W through Server. One whose length is not
	// W's fails every Merge.
	Prepared *optimizer.PreparedWorkload

	ctx context.Context // the search's, set with Base; nil = never canceled
}

// Name implements MergePair.
func (m *MergePairExhaustive) Name() string { return "MergePair-Exhaustive" }

// Merge implements MergePair.
func (m *MergePairExhaustive) Merge(a, b *Index) (*Index, error) {
	if a.Def.Table != b.Def.Table {
		return nil, fmt.Errorf("core: cannot merge indexes on different tables")
	}
	union := unionColumns(a, b)
	maxCols := m.MaxCols
	if maxCols <= 0 {
		maxCols = 8
	}
	if len(union) > maxCols {
		// Too many permutations; fall back to the index-preserving
		// merge in both orders and keep the cheaper.
		return m.bestOf(a, b, candidateOrders(a, b))
	}
	var orders [][]string
	permute(union, 0, &orders)
	return m.bestOf(a, b, orders)
}

// bestOf evaluates candidate column orders by workload cost on the
// queries that reference the table, in the context of the base
// configuration with a and b replaced by the candidate. It checks the
// search's ctx before each order and each optimizer call, and returns
// ctx.Err() once it is done.
func (m *MergePairExhaustive) bestOf(a, b *Index, orders [][]string) (*Index, error) {
	ctx := m.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pw, err := preparedFor(m.Server, m.W, m.Prepared)
	if err != nil {
		return nil, err
	}
	m.Prepared = pw
	relevant := relevantQueryIndices(m.W, a.Def.Table)
	weights := make([]float64, len(relevant))
	for k, qi := range relevant {
		weights[k] = m.W.Queries[qi].Freq
	}
	var best *Index
	bestCost := 0.0
	for _, cols := range orders {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cand, err := MergeWithColumnOrder(a.Def.Table, cols, a, b)
		if err != nil {
			return nil, err
		}
		cfg := m.Base.ReplacePair(a, b, cand)
		cost, _, err := m.Server.CostPreparedSum(ctx, pw, relevant, weights, optimizer.Configuration(cfg.Defs()), nil)
		if err != nil {
			return nil, err
		}
		if best == nil || cost < bestCost {
			best = cand
			bestCost = cost
		}
	}
	return best, nil
}

// candidateOrders returns the two index-preserving orders for a pair.
func candidateOrders(a, b *Index) [][]string {
	m1, _ := MergeOrdered(a, b)
	m2, _ := MergeOrdered(b, a)
	return [][]string{m1.Def.Columns, m2.Def.Columns}
}

func unionColumns(a, b *Index) []string {
	seen := make(map[string]bool)
	var out []string
	for _, ix := range []*Index{a, b} {
		for _, c := range ix.Def.Columns {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// permute appends all permutations of cols[k:] (with cols[:k] fixed).
func permute(cols []string, k int, out *[][]string) {
	if k == len(cols) {
		*out = append(*out, append([]string(nil), cols...))
		return
	}
	for i := k; i < len(cols); i++ {
		cols[k], cols[i] = cols[i], cols[k]
		permute(cols, k+1, out)
		cols[k], cols[i] = cols[i], cols[k]
	}
}

// relevantQueryIndices filters the workload to queries touching the
// table — the first cost-evaluation shortcut from §3.5.3. Positions
// (not copies) are returned so prepared descriptors stay aligned.
func relevantQueryIndices(w *sql.Workload, table string) []int {
	var out []int
	for qi, q := range w.Queries {
		for _, t := range q.Stmt.TablesReferenced() {
			if t == table {
				out = append(out, qi)
				break
			}
		}
	}
	return out
}
