package indexmerge

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
	"indexmerge/internal/wscale"
)

// readCounter is a core.ExternalMeta that counts the reads an external
// model makes through it.
type readCounter struct {
	core.ExternalMeta
	reads *atomic.Int64
}

func (c readCounter) Schema() *catalog.Schema {
	c.reads.Add(1)
	return c.ExternalMeta.Schema()
}

func (c readCounter) TableRowCount(table string) int64 {
	c.reads.Add(1)
	return c.ExternalMeta.TableRowCount(table)
}

// watchExternalModels makes every external model a run builds read
// through a counter, until the test ends. It returns the number of
// models built and the reads they made.
func watchExternalModels(tb testing.TB) (built, reads *atomic.Int64) {
	tb.Helper()
	built, reads = new(atomic.Int64), new(atomic.Int64)
	orig := newExternalModel
	newExternalModel = func(meta core.ExternalMeta, w *sql.Workload, initial *core.Configuration, slackPct float64) *core.ExternalCostModel {
		built.Add(1)
		return orig(readCounter{ExternalMeta: meta, reads: reads}, w, initial, slackPct)
	}
	tb.Cleanup(func() { newExternalModel = orig })
	return built, reads
}

// TestMergePricesInitialConfigurationOnce: on every reference database,
// over a distinct log and a duplicated one, under opt, compressed and
// prefilter, with and without Resilience, a merge under every MergePair
// procedure
//   - reports the InitialCost WorkloadCostPrepared gives, to the bit;
//   - makes one optimizer pass under the initial configuration, the
//     checker's calls (the search's, and under compressed its
//     template-order baseline), the procedure's own (MergePair-
//     Exhaustive's) and one pass under the final configuration,
//     exactly: where the chain builds an external model, the calls made
//     by then are the initial pass and the bound; the calls made after
//     the search's last progress report are the final pass; under
//     MergePair-Cost and -Syntactic, which make no call of their own,
//     the whole run adds up;
//   - calibrates the external model only where a check consults it: a
//     healthy resilient run never does; a prefiltered run does.
//
// MergePair-Exhaustive costs every column order of a merge, so it runs
// on Synthetic2's duplicated log only.
func TestMergePricesInitialConfigurationOnce(t *testing.T) {
	labs, err := experiments.StandardLabs(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	built, reads := watchExternalModels(t)
	// The optimizer calls the run under test had made when its chain
	// built the external model.
	var running *Merger
	var atBuild int64
	watched := newExternalModel
	newExternalModel = func(meta core.ExternalMeta, w *sql.Workload, initial *core.Configuration, slackPct float64) *core.ExternalCostModel {
		atBuild = running.opt.InvocationCount()
		return watched(meta, w, initial, slackPct)
	}
	t.Cleanup(func() { newExternalModel = watched })
	ctx := context.Background()
	for li, lab := range labs {
		for _, log := range []struct {
			name string
			opt  workload.Options
		}{
			{"distinct", workload.Options{Class: workload.Complex, Queries: 12, Seed: 3}},
			{"duplicated", workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 10, Duplication: 40, Seed: 9}},
		} {
			w, err := workload.Generate(lab.DB, log.opt)
			if err != nil {
				t.Fatal(err)
			}
			defs, err := lab.InitialConfiguration(w, 8)
			if err != nil {
				t.Fatal(err)
			}
			initial := core.NewConfiguration(defs)
			n := int64(len(w.Queries))
			for _, proc := range []MergePairKind{MergePairCost, MergePairSyntactic, MergePairExhaustive} {
				if proc == MergePairExhaustive && (li != 2 || log.name != "duplicated") {
					continue
				}
				for _, model := range []CostModelKind{OptimizerCost, CompressedOptimizerCost, PrefilteredOptimizerCost} {
					for _, ro := range []*ResilienceOptions{nil, {}} {
						name := fmt.Sprintf("%s/%s/mergepair=%d/model=%d/resilient=%v", lab.Name, log.name, proc, model, ro != nil)
						built.Store(0)
						reads.Store(0)
						m, err := NewMerger(lab.DB, w)
						if err != nil {
							t.Fatal(err)
						}
						running, atBuild = m, -1
						var atLastProgress int64
						before := m.opt.InvocationCount()
						res, err := m.MergeDefsContext(ctx, defs, MergeOptions{
							CostConstraint: 0.10, MergePair: proc, CostModel: model, Resilience: ro,
							Progress: func(SearchProgress) { atLastProgress = m.opt.InvocationCount() },
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						calls, final := m.opt.InvocationCount()-before, m.opt.InvocationCount()-atLastProgress
						if res.Degraded {
							t.Fatalf("%s: a healthy run degraded", name)
						}

						pw, err := m.PreparedWorkload()
						if err != nil {
							t.Fatal(err)
						}
						want, err := m.opt.WorkloadCostPrepared(pw, optimizer.Configuration(initial.Defs()))
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(res.InitialCost) != math.Float64bits(want) {
							t.Errorf("%s: InitialCost %v, WorkloadCostPrepared %v", name, res.InitialCost, want)
						}

						// The compressed model's bound is the template-order baseline,
						// priced through the engine before the search: on a cold twin
						// it costs what it cost in the run.
						var boundCalls int64
						if model == CompressedOptimizerCost {
							twin := coldTwin(t, m)
							cw, err := twin.CompressedWorkload()
							if err != nil {
								t.Fatal(err)
							}
							at := twin.opt.InvocationCount()
							if _, err := wscale.NewChecker(cw, 0, 0).WorkloadCostContext(ctx, initial); err != nil {
								t.Fatal(err)
							}
							boundCalls = twin.opt.InvocationCount() - at
						}
						if atBuild >= 0 && atBuild-before != n+boundCalls {
							t.Errorf("%s: %d optimizer calls before the search, want %d: %d for the initial pass, %d for the bound",
								name, atBuild-before, n+boundCalls, n, boundCalls)
						}
						if final != n {
							t.Errorf("%s: %d optimizer calls after the search, want %d for the final cost", name, final, n)
						}
						switch want := n + boundCalls + res.OptimizerCalls + n; {
						case proc != MergePairExhaustive && calls != want:
							t.Errorf("%s: %d optimizer calls, want %d: %d for the initial pass, %d for the bound, %d for the search and %d for the final cost",
								name, calls, want, n, boundCalls, res.OptimizerCalls, n)
						case proc == MergePairExhaustive && calls <= want:
							t.Errorf("%s: %d optimizer calls, the procedure made none of its own", name, calls)
						}

						prefilter := model == PrefilteredOptimizerCost
						switch {
						case !prefilter && ro == nil:
							if built.Load() != 0 {
								t.Errorf("%s: built an external model no check consults", name)
							}
						case !prefilter:
							if built.Load() != 1 || reads.Load() != 0 {
								t.Errorf("%s: %d external models, %d reads; want 1 model, never calibrated", name, built.Load(), reads.Load())
							}
						default:
							if built.Load() != 1 || reads.Load() == 0 {
								t.Errorf("%s: %d external models, %d reads; want 1 model the prefilter calibrated", name, built.Load(), reads.Load())
							}
						}
					}
				}
			}
		}
	}
}
