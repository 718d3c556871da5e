package optimizer_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// TestPassMatchesOneOff: a configuration resolved once for a loop of
// calls prices and plans every query of the three reference databases'
// workloads to the bit as one-off CostPrepared and OptimizePrepared
// calls do, with the relevant-index prefilter on and off, under random
// configurations that also hold definitions the schema lacks. So does a
// loop over descriptors prepared against another build of the same
// database than the optimizer's — the loop then resolves against their
// schema — and one that alternates between the two kinds. A sum over no
// members is 0.
func TestPassMatchesOneOff(t *testing.T) {
	opts := experiments.LabOptions{Scale: 0.25, WorkloadQueries: 12, Seed: 1}
	labs, err := experiments.StandardLabs(opts)
	if err != nil {
		t.Fatal(err)
	}
	others, err := experiments.StandardLabs(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	checked := 0
	for li, lab := range labs {
		for _, lw := range []struct {
			name string
			w    *sql.Workload
		}{{"complex", lab.Complex}, {"projection", lab.Projection}} {
			w := lw.w
			pw, err := optimizer.PrepareWorkload(w, lab.DB)
			if err != nil {
				t.Fatal(err)
			}
			elsewhere, err := optimizer.PrepareWorkload(w, others[li].DB)
			if err != nil {
				t.Fatal(err)
			}
			mixed := &optimizer.PreparedWorkload{W: w, Queries: append([]*optimizer.PreparedQuery(nil), pw.Queries...)}
			for qi := 1; qi < len(mixed.Queries); qi += 2 {
				mixed.Queries[qi] = elsewhere.Queries[qi]
			}
			cfgs := randomConfigs(t, rng, lab.DB, w, 6)
			tables := w.TablesReferenced()
			for ci := range cfgs {
				tab, _ := lab.DB.Schema().Table(tables[rng.Intn(len(tables))])
				first := tab.ColumnNames()[0]
				cfgs[ci] = append(cfgs[ci],
					catalog.IndexDef{Name: "unknown_col", Table: tab.Name, Columns: []string{first, "zz"}},
					catalog.IndexDef{Name: "unknown_lead", Table: tab.Name, Columns: []string{"zz", first}},
					catalog.IndexDef{Name: "unknown_table", Table: "zz", Columns: []string{"zz"}},
					catalog.IndexDef{Name: "repeats", Table: tab.Name, Columns: []string{first, first}},
					catalog.IndexDef{Name: "empty", Table: tab.Name},
				)
			}
			for _, unfiltered := range []bool{false, true} {
				opt := optimizer.New(lab.DB)
				opt.DisableRelevantIndexFilter = unfiltered
				for ci, cfg := range cfgs {
					where := func() string {
						return fmt.Sprintf("%s/%s cfg %d (prefilter off: %v)", lab.Name, lw.name, ci, unfiltered)
					}
					want := make([]float64, len(pw.Queries))
					wantPlans := make([]string, len(pw.Queries))
					sum := 0.0
					for qi, pq := range pw.Queries {
						if want[qi], err = opt.CostPrepared(pq, cfg); err != nil {
							t.Fatal(err)
						}
						plan, err := opt.OptimizePrepared(pq, cfg)
						if err != nil {
							t.Fatal(err)
						}
						wantPlans[qi] = plan.Explain()
						sum += want[qi] * w.Queries[qi].Freq

						got, calls, err := opt.CostPreparedSum(ctx, pw, []int{qi}, []float64{1}, cfg)
						if err != nil || calls != 1 || math.Float64bits(got) != math.Float64bits(want[qi]) {
							t.Fatalf("%s q%d: CostPreparedSum of the query = %v (%d calls, error %v), CostPrepared %v", where(), qi+1, got, calls, err, want[qi])
						}
					}
					for name, pw := range map[string]*optimizer.PreparedWorkload{"": pw, "elsewhere-prepared ": elsewhere, "mixed ": mixed} {
						total, calls, err := opt.WorkloadCostPreparedContext(ctx, pw, cfg)
						if err != nil || calls != len(pw.Queries) || math.Float64bits(total) != math.Float64bits(sum) {
							t.Fatalf("%s: WorkloadCostPreparedContext over the %sworkload = %v (%d calls, error %v), the sum of CostPrepared %v",
								where(), name, total, calls, err, sum)
						}
						all := make([]int, len(pw.Queries))
						for qi := range all {
							all[qi] = qi
						}
						total, calls, err = opt.CostPreparedSum(ctx, pw, all, nil, cfg)
						if err != nil || calls != len(pw.Queries) || math.Float64bits(total) != math.Float64bits(sum) {
							t.Fatalf("%s: CostPreparedSum over the %sworkload = %v (%d calls, error %v), the sum of CostPrepared %v",
								where(), name, total, calls, err, sum)
						}
						for _, none := range [][]int{nil, {}} {
							if total, calls, err := opt.CostPreparedSum(ctx, pw, none, nil, cfg); err != nil || calls != 0 || total != 0 {
								t.Fatalf("%s: CostPreparedSum over no members of the %sworkload = %v (%d calls, error %v), want 0",
									where(), name, total, calls, err)
							}
						}
						err = opt.OptimizePreparedEach(pw, cfg, func(qi int, plan *optimizer.Plan) error {
							if math.Float64bits(plan.Cost) != math.Float64bits(want[qi]) || plan.Explain() != wantPlans[qi] {
								return fmt.Errorf("q%d of the %sworkload: OptimizePreparedEach plans\n%s\nOptimizePrepared\n%s",
									qi+1, name, plan.Explain(), wantPlans[qi])
							}
							checked++
							return nil
						})
						if err != nil {
							t.Fatalf("%s: %v", where(), err)
						}
					}
					if total, err := opt.WorkloadCostPrepared(pw, cfg); err != nil || math.Float64bits(total) != math.Float64bits(sum) {
						t.Fatalf("%s: WorkloadCostPrepared = %v (error %v), the sum of CostPrepared %v", where(), total, err, sum)
					}
				}
			}
		}
	}
	t.Logf("%d (query, configuration, prefilter, descriptor) plans", checked)
}
