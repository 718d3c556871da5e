package optimizer_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
)

// TestPlansOutliveThePlanner: a plan owns the definitions it names.
// Plans built by Optimize and OptimizePreparedEach under a
// configuration listed out of key order name definitions of that
// configuration, and still render and report the same indexes after two
// goroutines have planned other configurations — the same keys under
// other names and in other orders — on every pooled planner.
func TestPlansOutliveThePlanner(t *testing.T) {
	labs, err := experiments.StandardLabs(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, lab := range labs {
		opt := lab.Opt
		pw, err := opt.PrepareWorkload(lab.Complex)
		if err != nil {
			t.Fatal(err)
		}
		defs, err := lab.InitialConfiguration(lab.Complex, 12)
		if err != nil {
			t.Fatal(err)
		}
		cfg := optimizer.Configuration(slices.Clone(defs))
		slices.SortStableFunc(cfg, func(a, b catalog.IndexDef) int { return -strings.Compare(a.Key(), b.Key()) })

		var plans []*optimizer.Plan
		for _, q := range lab.Complex.Queries {
			plan, err := opt.Optimize(q.Stmt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, plan)
		}
		if err := opt.OptimizePreparedEach(context.Background(), pw, cfg, func(_ int, c *optimizer.Choice) error {
			plans = append(plans, c.Plan())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		render := func(plan *optimizer.Plan) string {
			var b strings.Builder
			for _, u := range plan.Uses {
				fmt.Fprintf(&b, "%s %v\n", u.Index, u.Mode)
			}
			return b.String() + plan.Explain()
		}
		want := make([]string, len(plans))
		used := 0
		for i, plan := range plans {
			want[i] = render(plan)
			for _, u := range plan.Uses {
				used++
				if !slices.ContainsFunc(cfg, func(d catalog.IndexDef) bool {
					return d.Name == u.Index.Name && d.Key() == u.Index.Key()
				}) {
					t.Fatalf("%s plan %d uses %s, which the configuration does not hold", lab.Name, i, u.Index)
				}
			}
		}
		if used == 0 {
			t.Fatalf("%s: no plan uses an index", lab.Name)
		}

		var wg sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				other := slices.Clone(cfg)
				for i := range other {
					other[i].Name = fmt.Sprintf("other%d_%d", g, i)
				}
				for round := range 20 {
					slices.Reverse(other)
					if err := opt.OptimizePreparedEach(context.Background(), pw, other, func(int, *optimizer.Choice) error { return nil }); err != nil {
						t.Error(err)
						return
					}
					for _, q := range lab.Complex.Queries {
						if _, err := opt.Optimize(q.Stmt, other[:1+round%len(other)]); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for i, plan := range plans {
			if got := render(plan); got != want[i] {
				t.Fatalf("%s plan %d changed after other calls:\n%s\nwas\n%s", lab.Name, i, got, want[i])
			}
		}
	}
}
