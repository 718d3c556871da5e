// Recommendation-parity tests for the compressed cost model: on every
// reference database, a greedy merge priced through the (template,
// atom) cost table must arrive at the same final configuration as the
// plain per-query OptimizerCost model — or, when a last-ulp total flips
// a borderline acceptance, at a configuration of equal workload cost.
// The compression is exact (atoms sum every member's CostPrepared, no
// representative approximation), so anything else is a bug.
package indexmerge

import (
	"context"
	"math"
	"testing"

	"indexmerge/internal/experiments"
	"indexmerge/internal/workload"
)

func TestCompressedMergeParity(t *testing.T) {
	labs, err := experiments.StandardLabs(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lab := range labs {
		// Two workload flavors per database: duplicated complex queries,
		// and a disjunction-bearing variant so IndexUnion arms flow
		// through the relevance test and the cost table. Synthetic2 adds
		// a log: 2,000 statements of 25 disjunction-bearing shapes,
		// zipf-duplicated, over 30 initial indexes.
		flavors := []struct {
			name string
			only string // lab the flavor runs on ("" = every lab)
			n    int    // initial configuration size
			opt  workload.Options
		}{
			{"dup", "", 8, workload.Options{Class: workload.Complex, Queries: 10, Duplication: 40, Seed: 3}},
			{"disjunct", "", 8, workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 10, Duplication: 40, Seed: 9}},
			{"zipf-log", "Synthetic2", 30, workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 25, Duplication: 1975, Seed: 12}},
		}
		for _, f := range flavors {
			if f.only != "" && f.only != lab.Name {
				continue
			}
			w, err := workload.Generate(lab.DB, f.opt)
			if err != nil {
				t.Fatalf("%s/%s: generate: %v", lab.Name, f.name, err)
			}
			defs, err := lab.InitialConfiguration(w, f.n)
			if err != nil {
				t.Fatalf("%s/%s: initial: %v", lab.Name, f.name, err)
			}
			if len(defs) < 4 {
				t.Fatalf("%s/%s: initial configuration too small (%d)", lab.Name, f.name, len(defs))
			}
			m, err := NewMerger(lab.DB, w)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.10})
			if err != nil {
				t.Fatalf("%s/%s: plain merge: %v", lab.Name, f.name, err)
			}
			comp, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.10, CostModel: CompressedOptimizerCost})
			if err != nil {
				t.Fatalf("%s/%s: compressed merge: %v", lab.Name, f.name, err)
			}

			if comp.Templates == 0 || comp.DedupRatio <= 1 {
				t.Errorf("%s/%s: compression stats missing: %d templates, %.2fx dedup",
					lab.Name, f.name, comp.Templates, comp.DedupRatio)
			}
			if comp.CostTableHits+comp.CostTableMisses == 0 {
				t.Errorf("%s/%s: compressed run never consulted the cost table", lab.Name, f.name)
			}
			t.Logf("%s/%s: %d templates (%.1fx dedup), optimizer calls %d compressed / %d plain",
				lab.Name, f.name, comp.Templates, comp.DedupRatio, comp.OptimizerCalls, plain.OptimizerCalls)
			// A template's members are one stored cost: the compressed
			// search never asks the optimizer more often than the plain one.
			if comp.OptimizerCalls > plain.OptimizerCalls {
				t.Errorf("%s/%s: compressed run made %d optimizer calls, plain %d",
					lab.Name, f.name, comp.OptimizerCalls, plain.OptimizerCalls)
			}
			if comp.Final.Len() != plain.Final.Len() {
				t.Errorf("%s/%s: compressed run ends with %d indexes, plain %d",
					lab.Name, f.name, comp.Final.Len(), plain.Final.Len())
			}

			if plain.Final.Signature() == comp.Final.Signature() {
				continue
			}
			pc, err := m.WorkloadCost(plain.Final.Defs())
			if err != nil {
				t.Fatal(err)
			}
			cc, err := m.WorkloadCost(comp.Final.Defs())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pc-cc) > 1e-9*math.Max(1, math.Abs(pc)) {
				t.Errorf("%s/%s: final configurations diverge:\n plain      %s (cost %v)\n compressed %s (cost %v)",
					lab.Name, f.name, plain.Final.Signature(), pc, comp.Final.Signature(), cc)
			}
		}
	}
}

// TestCompressedMergeResilience: the compressed checker must compose
// with the resilient wrapper (SetBase forwarding) — a healthy run under
// Resilience is identical to one without.
func TestCompressedMergeResilience(t *testing.T) {
	lab, err := experiments.NewSynthetic1Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(lab.DB, workload.Options{
		Class: workload.Complex, Queries: 10, Duplication: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := lab.InitialConfiguration(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(lab.DB, w)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.10, CostModel: CompressedOptimizerCost})
	if err != nil {
		t.Fatal(err)
	}
	hardened, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{
		CostConstraint: 0.10, CostModel: CompressedOptimizerCost,
		Resilience: &ResilienceOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Final.Signature() != hardened.Final.Signature() {
		t.Errorf("resilient compressed run diverged:\n bare     %s\n hardened %s",
			bare.Final.Signature(), hardened.Final.Signature())
	}
	if hardened.Degraded || hardened.Retries != 0 {
		t.Errorf("healthy run reported degradation: degraded=%v retries=%d", hardened.Degraded, hardened.Retries)
	}
}
