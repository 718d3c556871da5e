package experiments

import (
	"testing"
)

// TestExperimentsDeterministic: the whole pipeline (data generation,
// workload generation, tuning, merging) is seeded; the same options
// must reproduce identical figures run-to-run.
func TestExperimentsDeterministic(t *testing.T) {
	opt := LabOptions{Scale: 0.2, WorkloadQueries: 12, Seed: 5}
	run := func() []SearchComparisonRow {
		labs, err := StandardLabs(opt)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := RunSearchComparisonOpt(labs, FigureOptions{N: Fig5N, Constraint: Fig5Constraint})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ExhaustiveReduction != b[i].ExhaustiveReduction ||
			a[i].GreedyOptReduction != b[i].GreedyOptReduction ||
			a[i].GreedyNoneReduction != b[i].GreedyNoneReduction ||
			a[i].FinalCostIncrease != b[i].FinalCostIncrease {
			t.Errorf("row %d differs across identical runs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

func TestCostMinimalSweepShapes(t *testing.T) {
	labs, err := StandardLabs(LabOptions{Scale: 0.2, WorkloadQueries: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunCostMinimal(labs[:1], 8, []float64{0.9, 0.6, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Tighter budgets: storage non-increasing, cost non-decreasing.
	for i := 1; i < len(rows); i++ {
		if rows[i].StorageFrac > rows[i-1].StorageFrac+1e-9 {
			t.Errorf("storage grew with tighter budget: %v -> %v", rows[i-1].StorageFrac, rows[i].StorageFrac)
		}
		if rows[i].CostIncrease < rows[i-1].CostIncrease-1e-9 {
			t.Errorf("cost shrank with tighter budget: %v -> %v", rows[i-1].CostIncrease, rows[i].CostIncrease)
		}
	}
	// A met budget must actually be met.
	for _, r := range rows {
		if r.MetBudget && r.StorageFrac > r.BudgetFrac+1e-9 {
			t.Errorf("budget %v claimed met at storage %v", r.BudgetFrac, r.StorageFrac)
		}
	}
}

func TestProjectionFigureVariant(t *testing.T) {
	labs, err := StandardLabs(LabOptions{Scale: 0.2, WorkloadQueries: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunSearchComparisonOpt(labs[:1], FigureOptions{N: 5, Constraint: 0.10, Projection: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GreedyOptReduction > r.ExhaustiveReduction+1e-9 {
			t.Errorf("%s: greedy beat exhaustive on projection workload", r.Database)
		}
		if r.GreedyOptReduction < -1e-9 {
			t.Errorf("%s: negative storage reduction %v", r.Database, r.GreedyOptReduction)
		}
		if r.FinalCostIncrease > 0.10+1e-6 {
			t.Errorf("%s: constraint violated: %v", r.Database, r.FinalCostIncrease)
		}
	}
}

func TestIntersectionAblationRuns(t *testing.T) {
	labs, err := StandardLabs(LabOptions{Scale: 0.2, WorkloadQueries: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunAblationIntersection(labs[:1], 5, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The optimizer must be restored afterwards.
	if labs[0].Opt.DisableIndexIntersection {
		t.Error("ablation left intersection disabled")
	}
}
