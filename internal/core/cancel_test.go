package core

import (
	"context"
	"errors"
	"testing"
)

func TestGreedyContextPreCanceled(t *testing.T) {
	f := newSearchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := GreedyContext(ctx, f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.3), f.db, GreedyOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled search returned a partial result")
	}
}

func TestExhaustiveContextPreCanceled(t *testing.T) {
	f := newSearchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExhaustiveContext(ctx, f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.3), f.db, ExhaustiveOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled search returned a partial result")
	}
}

func TestWorkloadCostContextPreCanceled(t *testing.T) {
	f := newSearchFixture(t)
	check := f.checker(0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := check.WorkloadCostContext(ctx, f.initial); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := check.Accepts(ctx, f.initial, nil, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Accepts err = %v, want context.Canceled", err)
	}
}

// TestGreedyCancelMidSearchStopsEarly cancels from inside the first
// progress callback and verifies the search (a) surfaces
// context.Canceled and (b) consumed strictly fewer constraint checks
// than the full run — i.e. cancellation actually cut the search short
// rather than letting it finish.
func TestGreedyCancelMidSearchStopsEarly(t *testing.T) {
	f := newSearchFixture(t)

	full, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.3), f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.CostEvaluations < 2 {
		t.Fatalf("fixture too small: full run consumed %d evaluations", full.CostEvaluations)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lastSeen Progress
	res, err := GreedyContext(ctx, f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.3), f.db, GreedyOptions{
		Progress: func(p Progress) {
			if lastSeen.CostEvaluations == 0 {
				cancel() // fires on the very first wave snapshot
			}
			lastSeen = p
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled search returned a partial result")
	}
	if lastSeen.CostEvaluations == 0 || lastSeen.CostEvaluations >= full.CostEvaluations {
		t.Errorf("canceled run saw %d evaluations, want in [1, %d)",
			lastSeen.CostEvaluations, full.CostEvaluations)
	}
}

// TestGreedyProgressSnapshots verifies the final progress snapshot
// agrees with the returned result and that saved bytes are monotone.
func TestGreedyProgressSnapshots(t *testing.T) {
	f := newSearchFixture(t)
	var snaps []Progress
	res, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.3), f.db, GreedyOptions{
		Progress: func(p Progress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	last := snaps[len(snaps)-1]
	if last.Steps != len(res.Steps) || last.CostEvaluations != res.CostEvaluations ||
		last.CurrentBytes != res.FinalBytes || last.InitialBytes != res.InitialBytes {
		t.Errorf("final snapshot %+v disagrees with result (steps %d, evals %d, bytes %d->%d)",
			last, len(res.Steps), res.CostEvaluations, res.InitialBytes, res.FinalBytes)
	}
	prev := int64(-1)
	for i, p := range snaps {
		if p.SavedBytes() < prev {
			t.Errorf("snapshot %d: saved bytes regressed (%d -> %d)", i, prev, p.SavedBytes())
		}
		prev = p.SavedBytes()
	}
}

// TestCostMinimalContextPreCanceled covers the dual search.
func TestCostMinimalContextPreCanceled(t *testing.T) {
	f := newSearchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	coster := NewOptimizerChecker(f.opt, f.w, f.base, 0)
	_, err := CostMinimalContext(ctx, f.initial, &MergePairCost{Seek: f.seek}, coster, f.db, f.initial.Bytes(f.db)/2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
