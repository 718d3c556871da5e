package optimizer_test

import (
	"context"
	"testing"

	"indexmerge/internal/faults"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/widetest"
)

// TestEntryPointsCountAndInjectOnce pins the entry sequence the public
// planning calls share: each query a call plans is one invocation and
// reaches the optimizer.cost fault point exactly once — resilience and
// chaos tests script faults by call number — whether the call plans one
// query or a workload through one of the two doors.
func TestEntryPointsCountAndInjectOnce(t *testing.T) {
	db, cases, err := widetest.Build()
	if err != nil {
		t.Fatal(err)
	}
	stmt, cfg := cases[3].Stmt, optimizer.Configuration(cases[3].Config)
	opt := optimizer.New(db)
	pq, err := opt.PrepareQuery(stmt)
	if err != nil {
		t.Fatal(err)
	}
	w := &sql.Workload{}
	for _, c := range cases {
		w.Add(c.Stmt, 1)
	}
	pw, err := opt.PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	members, weights := pw.Whole()
	ctx := context.Background()
	defer faults.Reset()
	rule := faults.Install(faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeLatency})[0]

	for _, c := range []struct {
		name    string
		queries int64
		call    func() error
	}{
		{"Optimize", 1, func() error { _, err := opt.Optimize(stmt, cfg); return err }},
		{"CostPrepared", 1, func() error { _, err := opt.CostPrepared(pq, cfg); return err }},
		{"CostPreparedSum", int64(pw.Len()), func() error {
			_, _, err := opt.CostPreparedSum(ctx, pw, members, weights, cfg, nil)
			return err
		}},
		{"OptimizePreparedEach", int64(pw.Len()), func() error {
			return opt.OptimizePreparedEach(ctx, pw, cfg, func(int, *optimizer.Choice) error { return nil })
		}},
		{"WorkloadCostPrepared", int64(pw.Len()), func() error { _, err := opt.WorkloadCostPrepared(pw, cfg); return err }},
	} {
		calls, fired := opt.InvocationCount(), faults.Fired(rule.ID)
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := opt.InvocationCount() - calls; d != c.queries {
			t.Errorf("%s counted %d invocations, want %d", c.name, d, c.queries)
		}
		if d := faults.Fired(rule.ID) - fired; d != c.queries {
			t.Errorf("%s reached the fault point %d times, want %d", c.name, d, c.queries)
		}
	}
}
