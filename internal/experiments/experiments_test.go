package experiments

import (
	"os"
	"testing"
)

// smallLabs builds fast, reduced-scale labs shared by the tests in
// this file. Shapes (who wins, roughly by how much) are asserted, not
// absolute numbers.
func smallLabs(t testing.TB) []*Lab {
	t.Helper()
	labs, err := StandardLabs(LabOptions{Scale: 0.25, WorkloadQueries: 20, Seed: 3})
	if err != nil {
		t.Fatalf("StandardLabs: %v", err)
	}
	return labs
}

func TestSearchComparisonShapes(t *testing.T) {
	labs := smallLabs(t)
	rows, err := RunSearchComparisonOpt(labs, FigureOptions{N: Fig5N, Constraint: Fig5Constraint})
	if err != nil {
		t.Fatalf("RunSearchComparisonOpt: %v", err)
	}
	RenderSearchComparison(os.Stderr, rows)
	for _, r := range rows {
		// Figure 5 shape: Greedy-Cost-Opt close to Exhaustive; both
		// bounded by it; meaningful reduction somewhere.
		if r.GreedyOptReduction > r.ExhaustiveReduction+1e-9 {
			t.Errorf("%s: greedy (%v) beat exhaustive (%v) — exhaustive must dominate", r.Database, r.GreedyOptReduction, r.ExhaustiveReduction)
		}
		if r.ExhaustiveReduction-r.GreedyOptReduction > 0.15 {
			t.Errorf("%s: greedy trails exhaustive by %.1f points (paper: within a few points)", r.Database, 100*(r.ExhaustiveReduction-r.GreedyOptReduction))
		}
		// Figure 6 shape: greedy evaluates far fewer configurations.
		if r.ExhaustiveEvals > 0 && r.GreedyOptEvals > r.ExhaustiveEvals {
			t.Errorf("%s: greedy used more cost evaluations (%d) than exhaustive (%d)", r.Database, r.GreedyOptEvals, r.ExhaustiveEvals)
		}
		// Cost constraint honored.
		if r.FinalCostIncrease > Fig5Constraint+1e-6 {
			t.Errorf("%s: cost increase %v exceeds constraint %v", r.Database, r.FinalCostIncrease, Fig5Constraint)
		}
	}
}

func TestMergePairComparisonShapes(t *testing.T) {
	labs := smallLabs(t)
	rows, err := RunMergePairComparisonOpt(labs, FigureOptions{N: Fig5N, Constraint: Fig5Constraint})
	if err != nil {
		t.Fatalf("RunMergePairComparisonOpt: %v", err)
	}
	RenderMergePairComparison(os.Stderr, rows)
	var costTotal, synTotal float64
	for _, r := range rows {
		costTotal += r.CostReduction
		synTotal += r.SyntacticReduction
	}
	// Figure 7 shape: across databases, MergePair-Cost at least matches
	// MergePair-Syntactic (paper: substantially better).
	if costTotal < synTotal-1e-9 {
		t.Errorf("MergePair-Cost total reduction %.3f below MergePair-Syntactic %.3f", costTotal, synTotal)
	}
}

func TestMaintenanceComparisonShapes(t *testing.T) {
	labs := smallLabs(t)
	rows, err := RunMaintenanceComparison(labs[:1], []int{5, 10}, Fig8Constraint)
	if err != nil {
		t.Fatalf("RunMaintenanceComparison: %v", err)
	}
	RenderMaintenanceComparison(os.Stderr, rows)
	for _, r := range rows {
		if r.InitialCost <= 0 {
			t.Errorf("%s N=%d: no maintenance cost recorded", r.Database, r.N)
		}
		if r.MergedCost > r.InitialCost {
			t.Errorf("%s N=%d: merged maintenance (%d) above initial (%d)", r.Database, r.N, r.MergedCost, r.InitialCost)
		}
	}
}

func TestIntroExperiments(t *testing.T) {
	lab, err := NewTPCDLab(LabOptions{Scale: 0.5, Seed: 3})
	if err != nil {
		t.Fatalf("NewTPCDLab: %v", err)
	}
	q13, err := RunIntroQ1Q3(lab)
	if err != nil {
		t.Fatalf("RunIntroQ1Q3: %v", err)
	}
	RenderIntroQ1Q3(os.Stderr, q13)
	if q13.StorageReduction() < 0.15 || q13.StorageReduction() > 0.60 {
		t.Errorf("Q1/Q3 storage reduction %v far from paper's 38%%", q13.StorageReduction())
	}
	if q13.MaintenanceReduction() <= 0 {
		t.Errorf("Q1/Q3 maintenance reduction %v not positive (paper: 22%%)", q13.MaintenanceReduction())
	}
	if q13.QueryCostIncrease() < -1e-9 || q13.QueryCostIncrease() > 0.25 {
		t.Errorf("Q1/Q3 cost increase %v out of plausible range (paper: 3%%)", q13.QueryCostIncrease())
	}

	t17, err := RunIntroTPCD17(lab, 0.10)
	if err != nil {
		t.Fatalf("RunIntroTPCD17: %v", err)
	}
	RenderIntroTPCD17(os.Stderr, t17)
	if t17.MergedRatio >= t17.TunedRatio {
		t.Errorf("merging did not shrink index storage: %.2fx -> %.2fx", t17.TunedRatio, t17.MergedRatio)
	}
	if t17.CostIncrease > 0.10+1e-6 {
		t.Errorf("cost increase %v exceeds the 10%% constraint", t17.CostIncrease)
	}
}
