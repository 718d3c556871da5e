package optimizer_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// TestPassMatchesOneOff: a configuration resolved once for a loop of
// calls prices and plans every query of the three reference databases'
// workloads to the bit as one-off CostPrepared and Optimize calls do,
// with the relevant-index prefilter on and off, under random
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
						plan, err := opt.Optimize(w.Queries[qi].Stmt, cfg)
						if err != nil {
							t.Fatal(err)
						}
						wantPlans[qi] = plan.Explain()
						sum += want[qi] * w.Queries[qi].Freq

						got, calls, err := opt.CostPreparedSum(ctx, pw, []int{qi}, []float64{1}, cfg, nil)
						if err != nil || calls != 1 || math.Float64bits(got) != math.Float64bits(want[qi]) {
							t.Fatalf("%s q%d: CostPreparedSum of the query = %v (%d calls, error %v), CostPrepared %v", where(), qi+1, got, calls, err, want[qi])
						}
					}
					for name, pw := range map[string]*optimizer.PreparedWorkload{"": pw, "elsewhere-prepared ": elsewhere, "mixed ": mixed} {
						if total, err := opt.WorkloadCostPrepared(pw, cfg); err != nil || math.Float64bits(total) != math.Float64bits(sum) {
							t.Fatalf("%s: WorkloadCostPrepared over the %sworkload = %v (error %v), the sum of CostPrepared %v", where(), name, total, err, sum)
						}
						all, freqs := pw.Whole()
						// By name, and on indexes resolved once against each
						// build's schema: the loop resolves again, by name, only
						// for a descriptor of the other build.
						for rname, rxs := range map[string][]*optimizer.ResolvedIndex{"": nil, "resolved ": resolveAll(pw, cfg), "resolved elsewhere ": resolveAll(elsewhere, cfg)} {
							total, calls, err := opt.CostPreparedSum(ctx, pw, all, freqs, cfg, rxs)
							if err != nil || calls != len(pw.Queries) || math.Float64bits(total) != math.Float64bits(sum) {
								t.Fatalf("%s: %sCostPreparedSum over the %sworkload = %v (%d calls, error %v), the sum of CostPrepared %v",
									where(), rname, name, total, calls, err, sum)
							}
						}
						for _, none := range [][]int{nil, {}} {
							if total, calls, err := opt.CostPreparedSum(ctx, pw, none, nil, cfg, nil); err != nil || calls != 0 || total != 0 {
								t.Fatalf("%s: CostPreparedSum over no members of the %sworkload = %v (%d calls, error %v), want 0",
									where(), name, total, calls, err)
							}
						}
						err = opt.OptimizePreparedEach(context.Background(), pw, cfg, func(qi int, c *optimizer.Choice) error {
							plan := c.Plan()
							if math.Float64bits(c.Cost) != math.Float64bits(want[qi]) || math.Float64bits(plan.Cost) != math.Float64bits(want[qi]) || plan.Explain() != wantPlans[qi] {
								return fmt.Errorf("q%d of the %sworkload: OptimizePreparedEach plans\n%s\nOptimize\n%s",
									qi+1, name, plan.Explain(), wantPlans[qi])
							}
							checked++
							return nil
						})
						if err != nil {
							t.Fatalf("%s: %v", where(), err)
						}
					}
				}
			}
		}
	}
	t.Logf("%d (query, configuration, prefilter, descriptor) plans", checked)
}

// resolveAll resolves every index of cfg against pw's schema.
func resolveAll(pw *optimizer.PreparedWorkload, cfg optimizer.Configuration) []*optimizer.ResolvedIndex {
	rxs := make([]*optimizer.ResolvedIndex, len(cfg))
	for i, def := range cfg {
		rxs[i] = pw.Resolve(def)
	}
	return rxs
}

// TestLoopSizesIndexesPerRowCount: a loop sizes an index once for each
// row count its table has. Descriptors of one database prepared before
// and after rows were inserted — the statistics not rebuilt, so neither
// is stale — price in one loop to the bit as they do one by one.
func TestLoopSizesIndexesPerRowCount(t *testing.T) {
	db, err := datagen.BuildNamed("synthetic1", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Queries: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(db)
	before, err := opt.PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range w.TablesReferenced() {
		rows, err := datagen.SyntheticInsertRows(db, table, int(db.TableRowCount(table)), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := db.Insert(table, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := opt.PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	mixed := &optimizer.PreparedWorkload{W: w}
	for qi := range w.Queries {
		mixed.Queries = append(mixed.Queries, before.Queries[qi], after.Queries[qi])
	}
	weights := make([]float64, len(mixed.Queries))
	all := make([]int, len(mixed.Queries))
	for i := range all {
		all[i], weights[i] = i, 1
	}
	rng := rand.New(rand.NewSource(4))
	moved := 0
	for _, cfg := range randomConfigs(t, rng, db, w, 8) {
		want := 0.0
		for qi, pq := range mixed.Queries {
			cost, err := opt.CostPrepared(pq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want += cost
			if qi%2 == 1 {
				if prev, _ := opt.CostPrepared(mixed.Queries[qi-1], cfg); prev != cost {
					moved++
				}
			}
		}
		got, _, err := opt.CostPreparedSum(context.Background(), mixed, all, weights, cfg, nil)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: a loop over both row counts sums %v (error %v), one-off calls %v", cfg, got, err, want)
		}
	}
	if moved == 0 {
		t.Fatal("no cost moved with the row counts: the test checks nothing")
	}
}
