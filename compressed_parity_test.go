// Recommendation-parity tests for the cost models: on every reference
// database, a greedy merge priced through the form's (template, atom)
// cost table — under either -costmodel opt or compressed — must arrive at
// the final configuration a per-query reference checker arrives at — or,
// when a last-ulp total flips a borderline acceptance, at a
// configuration of equal workload cost. The compression is exact (atoms
// sum every member's CostPrepared, no representative approximation), so
// anything else is a bug.
package indexmerge

import (
	"context"
	"math"
	"testing"

	"indexmerge/internal/core"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/workload"
	"indexmerge/internal/wscale"
)

// perQueryReference is the greedy merge the way a caller of core alone
// runs it: MergePair-Cost over the initial configuration's Seek-Costs,
// checked by core.NewOptimizerChecker — one unit per query on a store of
// its own — against U from the workload-order baseline, parallelism
// candidates at a time. It returns the result as the facade reports one.
func perQueryReference(t *testing.T, m *Merger, defs []IndexDef, constraint float64, parallelism int) *MergeResult {
	t.Helper()
	pw, err := m.PreparedWorkload()
	if err != nil {
		t.Fatal(err)
	}
	initial := core.NewConfiguration(defs)
	base, err := m.opt.WorkloadCostPrepared(pw, optimizer.Configuration(initial.Defs()))
	if err != nil {
		t.Fatal(err)
	}
	seek, err := core.ComputeSeekCostsPrepared(m.opt, pw, initial)
	if err != nil {
		t.Fatal(err)
	}
	check := core.NewOptimizerChecker(m.opt, m.w, base, constraint)
	check.Prepared, check.Parallelism = pw, parallelism
	res, err := core.GreedyContext(context.Background(), initial, &core.MergePairCost{Seek: seek}, check, m.db, core.GreedyOptions{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.opt.WorkloadCostPrepared(pw, optimizer.Configuration(res.Final.Defs()))
	if err != nil {
		t.Fatal(err)
	}
	return &MergeResult{SearchResult: res, InitialCost: base, FinalCost: final, Bound: check.U}
}

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
			ref := perQueryReference(t, m, defs, 0.10, 1)
			for _, model := range []CostModelKind{OptimizerCost, CompressedOptimizerCost} {
				// A Merger per model: the two share the form's cells, and each
				// is to start as cold as the reference.
				m, err := NewMerger(lab.DB, w)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.10, CostModel: model})
				if err != nil {
					t.Fatalf("%s/%s, model %d: merge: %v", lab.Name, f.name, model, err)
				}
				if model == CompressedOptimizerCost {
					if got.Templates == 0 || got.DedupRatio <= 1 {
						t.Errorf("%s/%s: compression stats missing: %d templates, %.2fx dedup",
							lab.Name, f.name, got.Templates, got.DedupRatio)
					}
					if got.CostTableHits+got.CostTableMisses == 0 {
						t.Errorf("%s/%s: compressed run never consulted the cost table", lab.Name, f.name)
					}
				} else {
					if got.Templates != 0 || got.CostTableHits+got.CostTableMisses != 0 {
						t.Errorf("%s/%s: plain run reported compression fields: %d templates, %d / %d table hits / misses",
							lab.Name, f.name, got.Templates, got.CostTableHits, got.CostTableMisses)
					}
					// The plain model's bound is the workload-order baseline's.
					if math.Float64bits(got.Bound) != math.Float64bits(ref.Bound) {
						t.Errorf("%s/%s: plain run's bound %v, per-query reference %v", lab.Name, f.name, got.Bound, ref.Bound)
					}
				}
				t.Logf("%s/%s, model %d: optimizer calls %d, per-query reference %d",
					lab.Name, f.name, model, got.OptimizerCalls, ref.OptimizerCalls)
				// A template's members are one stored cost: the form's engine
				// never asks the optimizer more often than the per-query one.
				if got.OptimizerCalls > ref.OptimizerCalls {
					t.Errorf("%s/%s, model %d: %d optimizer calls, per-query reference %d",
						lab.Name, f.name, model, got.OptimizerCalls, ref.OptimizerCalls)
				}
				if got.Final.Len() != ref.Final.Len() {
					t.Errorf("%s/%s, model %d: ends with %d indexes, per-query reference %d",
						lab.Name, f.name, model, got.Final.Len(), ref.Final.Len())
				}
				if got.Final.Signature() == ref.Final.Signature() {
					continue
				}
				if math.Abs(got.FinalCost-ref.FinalCost) > 1e-9*math.Max(1, math.Abs(ref.FinalCost)) {
					t.Errorf("%s/%s, model %d: final configurations diverge:\n reference %s (cost %v)\n got       %s (cost %v)",
						lab.Name, f.name, model, ref.Final.Signature(), ref.FinalCost, got.Final.Signature(), got.FinalCost)
				}
			}
		}
	}
}

// TestOptMatchesPerQueryReference: where no two statements share a
// template (dedup ratio 1), a template unit is a query's unit bit for
// bit, so the facade's plain-model merge reports — counters included —
// what the per-query reference reports.
func TestOptMatchesPerQueryReference(t *testing.T) {
	lab, err := experiments.NewSynthetic2Lab(experiments.LabOptions{Scale: 0.2, WorkloadQueries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(lab.DB, workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r := wscale.Compress(w).DedupRatio(); r != 1 {
		t.Fatalf("dedup ratio %v; the workload must have one statement per template", r)
	}
	defs, err := lab.InitialConfiguration(w, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		m, err := NewMerger(lab.DB, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.10, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		want := perQueryReference(t, m, defs, 0.10, p)
		if len(want.Steps) == 0 || want.OptimizerCalls == 0 {
			t.Errorf("%d steps, %d optimizer calls; the comparison has no teeth", len(want.Steps), want.OptimizerCalls)
		}
		if p > 1 {
			// Concurrent waves make the optimizer-call count a measurement,
			// the reference's own included; every other field is exact.
			got.OptimizerCalls, want.OptimizerCalls = 0, 0
		}
		if mergeKey(got) != mergeKey(want) {
			t.Errorf("parallelism %d: the facade's merge is not the per-query reference's:\n got: %s\nwant: %s", p, mergeKey(got), mergeKey(want))
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
	if hardened.Degraded || hardened.DegradedChecks != 0 || hardened.PanicsRecovered != 0 {
		t.Errorf("healthy run reported degradation: degraded=%v checks=%d panics=%d",
			hardened.Degraded, hardened.DegradedChecks, hardened.PanicsRecovered)
	}
}
