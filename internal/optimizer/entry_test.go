package optimizer_test

import (
	"testing"

	"indexmerge/internal/faults"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/widetest"
)

// TestEntryPointsCountAndInjectOnce pins the entry sequence the public
// planning calls share: each call is one invocation, reaches the
// optimizer.cost fault point exactly once — resilience and chaos tests
// script faults by call number — and counts as prepared only when it
// was handed a descriptor.
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
	defer faults.Reset()
	rule := faults.Install(faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeLatency})[0]

	for _, c := range []struct {
		name     string
		prepared int64
		call     func() error
	}{
		{"Optimize", 0, func() error { _, err := opt.Optimize(stmt, cfg); return err }},
		{"Cost", 0, func() error { _, err := opt.Cost(stmt, cfg); return err }},
		{"OptimizePrepared", 1, func() error { _, err := opt.OptimizePrepared(pq, cfg); return err }},
		{"CostPrepared", 1, func() error { _, err := opt.CostPrepared(pq, cfg); return err }},
	} {
		calls, prepared, fired := opt.InvocationCount(), opt.PreparedCallCount(), faults.Fired(rule.ID)
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := opt.InvocationCount() - calls; d != 1 {
			t.Errorf("%s counted %d invocations, want 1", c.name, d)
		}
		if d := opt.PreparedCallCount() - prepared; d != c.prepared {
			t.Errorf("%s counted %d prepared calls, want %d", c.name, d, c.prepared)
		}
		if d := faults.Fired(rule.ID) - fired; d != 1 {
			t.Errorf("%s reached the fault point %d times, want 1", c.name, d)
		}
	}
}
