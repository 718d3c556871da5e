package core

import (
	"sync"

	"indexmerge/internal/catalog"
	"indexmerge/internal/sql"
	"indexmerge/internal/storage"
)

// ExternalMeta is the metadata the external cost model reads; the
// engine's Database satisfies it.
type ExternalMeta interface {
	Schema() *catalog.Schema
	TableRowCount(table string) int64
}

// ExternalCostModel is the deliberately coarse analytic cost model
// discussed in §3.5.2: page-count arithmetic with fixed selectivity
// guesses, no histograms, no join optimization. The paper argues such
// models are hard to keep faithful to a real optimizer; here the model
// exists (a) as a standalone evaluation strategy to compare against,
// and (b) as the cheap pre-filter of §3.5.3 that prunes hopeless
// candidates before an optimizer invocation.
//
// A model built by NewExternalCostModel is calibrated against the
// initial configuration, on first use, and carries the run's cost
// constraint; one built as a bare struct is uncalibrated, and Within
// accepts everything. Safe for concurrent use: the calibration runs
// once, whichever caller asks first, and the model is read-only after.
type ExternalCostModel struct {
	Meta ExternalMeta
	W    *sql.Workload

	initial  *Configuration
	slackPct float64

	calibrate sync.Once
	baseline  float64
}

// NewExternalCostModel returns the model over w, to be calibrated
// against initial: the initial configuration's external cost is the
// baseline that constraint translation (optimizer-U → external-U)
// scales by slackPct, the run's cost constraint. It reads nothing: the
// baseline is priced the first time BaselineCost or Within asks for it,
// so a run whose checks never consult the model never pays for it.
func NewExternalCostModel(meta ExternalMeta, w *sql.Workload, initial *Configuration, slackPct float64) *ExternalCostModel {
	return &ExternalCostModel{Meta: meta, W: w, initial: initial, slackPct: slackPct}
}

// Fixed selectivity guesses — the hallmark of an out-of-sync external
// model.
const (
	extEqSel    = 0.01
	extRangeSel = 0.30
)

// BaselineCost returns the initial configuration's external cost (0
// for an uncalibrated model), pricing it on the first call.
func (m *ExternalCostModel) BaselineCost() float64 {
	m.calibrate.Do(func() {
		if m.initial != nil {
			m.baseline = m.WorkloadCost(m.initial)
		}
	})
	return m.baseline
}

// Within reports whether cfg's external cost stays within the cost
// constraint times margin of the baseline:
// ext(cfg) ≤ ext(initial) × (1 + slackPct × margin). The §3.5.3
// prefilter asks with a loose margin, so that the coarse model vetoes
// only clearly hopeless candidates; degraded mode asks with margin 1.
// An uncalibrated model accepts everything.
func (m *ExternalCostModel) Within(cfg *Configuration, margin float64) bool {
	base := m.BaselineCost()
	if base <= 0 {
		return true
	}
	return m.WorkloadCost(cfg) <= base*(1+m.slackPct*margin)
}

// WorkloadCost estimates Cost(W, C) analytically.
func (m *ExternalCostModel) WorkloadCost(cfg *Configuration) float64 {
	total := 0.0
	for _, q := range m.W.Queries {
		total += m.queryCost(q.Stmt, cfg) * q.Freq
	}
	return total
}

// queryCost sums a per-table access estimate; joins contribute a
// hash-build surcharge per joined table.
func (m *ExternalCostModel) queryCost(stmt *sql.SelectStmt, cfg *Configuration) float64 {
	cost := 0.0
	tables := stmt.TablesReferenced()
	for _, tname := range tables {
		cost += m.tableAccessCost(stmt, tname, cfg)
	}
	if len(tables) > 1 {
		cost *= 1.2 // join overhead guess
	}
	return cost
}

func (m *ExternalCostModel) tableAccessCost(stmt *sql.SelectStmt, tname string, cfg *Configuration) float64 {
	t, ok := m.Meta.Schema().Table(tname)
	if !ok {
		return 0
	}
	rows := m.Meta.TableRowCount(tname)
	heapPages := float64(storage.EstimateHeapPages(rows, t.RowWidth()))
	best := heapPages // full scan

	required := stmt.ColumnsOf(tname)
	preds := stmt.PredicatesOn(tname)
	predOn := make(map[string]sql.CompareOp, len(preds))
	for _, p := range preds {
		if _, seen := predOn[p.Col.Column]; !seen {
			predOn[p.Col.Column] = p.Op
		}
	}

	for _, ix := range cfg.Indexes {
		if ix.Def.Table != tname {
			continue
		}
		idxPages := float64(storage.EstimateIndexPages(rows, t.WidthOf(ix.Def.Columns)))
		covering := ix.Def.CoversColumns(required)
		if covering && idxPages < best {
			best = idxPages
		}
		if len(ix.Def.Columns) == 0 {
			continue
		}
		op, hasPred := predOn[ix.Def.Columns[0]]
		if !hasPred {
			continue
		}
		sel := extRangeSel
		if op.IsEquality() {
			sel = extEqSel
		}
		c := sel * idxPages
		if !covering {
			c += sel * float64(rows) * 0.5 // lookup guess
		}
		if c < best {
			best = c
		}
	}
	if best < 1 {
		best = 1
	}
	return best
}
