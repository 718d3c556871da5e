package optimizer_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"indexmerge/internal/optimizer"
	"indexmerge/internal/oracle"
	"indexmerge/internal/sql"
	"indexmerge/internal/widetest"
)

// TestWidePredicateAndIndexSets plans, executes and allocation-checks
// statements whose predicate lists, equality-bound index prefixes,
// GROUP BY lists and inner-seek probe lists pass 64 members. The
// planner keeps consumed predicates as position lists and equality
// prefixes as a count, so width is not a special case; a one-word
// bitmask would lose the members past bit 63 and with them the seek,
// the order, the clustering or the join probe each case depends on.
func TestWidePredicateAndIndexSets(t *testing.T) {
	db, cases, err := widetest.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(db)
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			cfg := optimizer.Configuration(c.Config)
			plan, err := opt.Optimize(c.Stmt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			explain := plan.Explain()
			if !strings.Contains(explain, c.Want) || strings.Contains(explain, c.Avoid) {
				t.Errorf("want a plan with %q and without %q, got:\n%s", c.Want, c.Avoid, explain)
			}

			// Every entry point answers with the same bits.
			pq, err := opt.PrepareQuery(c.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			w := &sql.Workload{}
			w.Add(c.Stmt, 1)
			pw, err := opt.PrepareWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			var planE *optimizer.Plan
			if err := opt.OptimizePreparedEach(context.Background(), pw, cfg, func(_ int, c *optimizer.Choice) error {
				planE = c.Plan()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if planE.Explain() != explain {
				t.Errorf("OptimizePreparedEach plans differently:\n%s-- Optimize:\n%s", planE.Explain(), explain)
			}
			members, weights := pw.Whole()
			costs := map[string]func() (float64, error){
				"OptimizePreparedEach": func() (float64, error) { return planE.Cost, nil },
				"CostPrepared":         func() (float64, error) { return opt.CostPrepared(pq, cfg) },
				"CostPreparedSum": func() (float64, error) {
					sum, _, err := opt.CostPreparedSum(context.Background(), pw, members, weights, cfg, nil)
					return sum, err
				},
				"WorkloadCostPrepared": func() (float64, error) { return opt.WorkloadCostPrepared(pw, cfg) },
			}
			for name, call := range costs {
				got, err := call()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if math.Float64bits(got) != math.Float64bits(plan.Cost) {
					t.Errorf("%s = %v, Optimize = %v", name, got, plan.Cost)
				}
			}

			// The chosen plan computes the reference answer.
			ref, err := oracle.Reference(db, c.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Rows) == 0 {
				t.Fatal("reference answer is empty: the case checks nothing")
			}
			violations, _, err := oracle.CheckConfig(db, opt, w, []*oracle.Result{ref}, c.Config)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range violations {
				t.Error(v)
			}

			if raceEnabled {
				return // sync.Pool drops items under the detector
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if _, err := opt.CostPrepared(pq, cfg); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("CostPrepared allocates %.1f times per call once warm, want 0", allocs)
			}
		})
	}
}
