package experiments

import (
	"context"
	"io"

	"indexmerge/internal/core"
)

// DualRow reports one point of the Cost-Minimal Index Merging study —
// the dual formulation the paper states but leaves unexplored (§3.1):
// minimize Cost(W, C') subject to storage(C') ≤ budget.
type DualRow struct {
	Database string
	// BudgetFrac is the storage budget as a fraction of the initial
	// configuration's storage.
	BudgetFrac float64
	MetBudget  bool
	// StorageFrac is the achieved storage as a fraction of initial.
	StorageFrac float64
	// CostIncrease is the achieved workload-cost growth.
	CostIncrease float64
	Merges       int
}

// RunCostMinimal sweeps storage budgets and reports the cost the dual
// greedy pays to reach each one.
func RunCostMinimal(labs []*Lab, n int, budgetFracs []float64) ([]DualRow, error) {
	var rows []DualRow
	for _, lab := range labs {
		s, err := newSetup(lab, lab.Complex, n)
		if err != nil {
			return nil, err
		}
		coster := s.optChecker(0)
		initialBytes := s.initial.Bytes(lab.DB)
		for _, frac := range budgetFracs {
			budget := int64(float64(initialBytes) * frac)
			res, err := core.CostMinimalContext(context.Background(), s.initial, &core.MergePairCost{Seek: s.seek}, coster, lab.DB, budget)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DualRow{
				Database:     lab.Name,
				BudgetFrac:   frac,
				MetBudget:    res.MetBudget,
				StorageFrac:  float64(res.FinalBytes) / float64(initialBytes),
				CostIncrease: res.FinalCost/res.InitialCost - 1,
				Merges:       len(res.Steps),
			})
		}
	}
	return rows, nil
}

// RenderCostMinimal prints the dual study.
func RenderCostMinimal(w io.Writer, rows []DualRow) {
	t := NewTable("Extension — Cost-Minimal Index Merging (the paper's unexplored dual): minimize cost under a storage budget",
		"Database", "Budget (x initial)", "Achieved storage", "Met", "Cost increase", "Merges")
	for _, r := range rows {
		met := "yes"
		if !r.MetBudget {
			met = "no"
		}
		t.Add(r.Database, Pct(r.BudgetFrac), Pct(r.StorageFrac), met, Pct(r.CostIncrease), r.Merges)
	}
	t.Render(w)
}
