package indexmerge

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"indexmerge/internal/core"
	"indexmerge/internal/faults"
)

// The chaos suite runs real Greedy/Exhaustive searches with
// deterministic faults injected into the what-if costing path and
// asserts the robustness contract. Every costing runs once; nothing is
// retried:
//
//   - faults without resilience surface as typed errors;
//   - with resilience, each failed check is decided by the external
//     model and the result is flagged degraded;
//   - a fault window that closes leaves no trace on the runs after it;
//   - injected panics never escape, on any goroutine;
//   - latency faults never change any result;
//   - a done ctx stops costing before it starts.
//
// Every test uses count-window rules (After/Count), never Prob, so the
// injected fault sequence is exactly reproducible.

// chaosBaseline runs a fault-free merge to compare against.
func chaosBaseline(t *testing.T, m *Merger, defs []IndexDef, opts MergeOptions) *MergeResult {
	t.Helper()
	faults.Reset()
	res, err := coldTwin(t, m).MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("fault-free merge: %v", err)
	}
	return res
}

// coldTwin returns a Merger over m's database and workload with cells of
// its own. A Merger's form keeps the cells its runs fill, and a warm one
// leaves no optimizer call for a fault to land in: a fault-free run that
// a faulted one is compared with runs on m's twin, so m is as cold as it.
func coldTwin(t *testing.T, m *Merger) *Merger {
	t.Helper()
	twin, err := NewMerger(m.db, m.w)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// assertSameSearch asserts the decision-relevant parts of two results
// are identical. OptimizerCalls is deliberately excluded: it is a
// measured quantity, and a Merger's warm cells save calls.
func assertSameSearch(t *testing.T, want, got *MergeResult) {
	t.Helper()
	if w, g := fmt.Sprint(want.Final.Defs()), fmt.Sprint(got.Final.Defs()); w != g {
		t.Errorf("final configuration diverged:\nwant %s\ngot  %s", w, g)
	}
	if want.FinalCost != got.FinalCost {
		t.Errorf("final cost diverged: want %v, got %v", want.FinalCost, got.FinalCost)
	}
	if want.InitialCost != got.InitialCost {
		t.Errorf("initial cost diverged: want %v, got %v", want.InitialCost, got.InitialCost)
	}
	if want.FinalBytes != got.FinalBytes {
		t.Errorf("final bytes diverged: want %d, got %d", want.FinalBytes, got.FinalBytes)
	}
	if want.CostEvaluations != got.CostEvaluations {
		t.Errorf("cost evaluations diverged: want %d, got %d", want.CostEvaluations, got.CostEvaluations)
	}
	if len(want.Steps) != len(got.Steps) {
		t.Errorf("merge steps diverged: want %d, got %d", len(want.Steps), len(got.Steps))
	}
	if got.Degraded || got.DegradedChecks != 0 {
		t.Errorf("result degraded (%d checks), want exact", got.DegradedChecks)
	}
}

// faultWindowLeavesNoTrace installs transient faults — error windows
// that close — into the search of a resilient run on m: each fault
// fails the one costing it lands in, which degrades, once. Once the
// faults are gone, the next run on m is exact and decides as a
// fault-free run on a cold twin does.
func faultWindowLeavesNoTrace(t *testing.T, m *Merger, defs []IndexDef, opts MergeOptions, rules ...faults.Rule) {
	t.Helper()
	want := chaosBaseline(t, m, defs, opts)
	installed := faults.Install(rules...)
	defer faults.Reset()

	opts.Resilience = &ResilienceOptions{}
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge under a closing fault window: %v", err)
	}
	var fired int64
	for _, r := range installed {
		fired += faults.Fired(r.ID)
	}
	if fired == 0 {
		t.Fatal("no fault fired; the chaos test exercised nothing")
	}
	t.Logf("%d faults fired, %d degraded checks", fired, got.DegradedChecks)
	if !got.Degraded || got.DegradedChecks != fired {
		t.Errorf("degraded %v with %d degraded checks, want every one of the %d faults to degrade its check once",
			got.Degraded, got.DegradedChecks, fired)
	}

	faults.Reset()
	again, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge after the faults cleared: %v", err)
	}
	assertSameSearch(t, want, again)
}

// TestChaosTransientFaultsAreInvisible: error windows spread across a
// greedy search degrade the run they land in and nothing after it.
func TestChaosTransientFaultsAreInvisible(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	// The initial pass makes the run's first 17 optimizer calls; the
	// windows land in the search after them, early, mid and late.
	faultWindowLeavesNoTrace(t, m, defs, MergeOptions{CostConstraint: 0.15},
		faults.Rule{ID: "t-early", Point: faults.OptimizerCost, Mode: faults.ModeError, After: 40, Count: 3},
		faults.Rule{ID: "t-mid", Point: faults.OptimizerCost, Mode: faults.ModeError, After: 120, Count: 2},
		faults.Rule{ID: "t-late", Point: faults.OptimizerCost, Mode: faults.ModeError, After: 250, Count: 1},
	)
}

// TestChaosTransientFaultsExhaustiveSearch: the same under Exhaustive.
func TestChaosTransientFaultsExhaustiveSearch(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 5 {
		defs = defs[:5]
	}
	faultWindowLeavesNoTrace(t, m, defs, MergeOptions{CostConstraint: 0.15, Search: ExhaustiveSearch},
		faults.Rule{ID: "tx", Point: faults.OptimizerCost, Mode: faults.ModeError, After: 40, Count: 4},
	)
}

func TestChaosPermanentFaultWithoutResilienceIsTyped(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 5 {
		defs = defs[:5]
	}
	faults.Install(faults.Rule{
		ID: "perm", Point: faults.OptimizerCost, Mode: faults.ModeError, After: 30,
	})
	defer faults.Reset()

	_, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.15})
	if err == nil {
		t.Fatal("permanent fault with no resilience must fail the merge")
	}
	var fe *faults.Error
	if !errors.As(err, &fe) {
		t.Fatalf("error chain lost the typed fault: %v", err)
	}
	if fe.Point != faults.OptimizerCost {
		t.Errorf("fault point = %q, want optimizer.cost", fe.Point)
	}
}

func TestChaosPermanentFaultDegradesToExternalModel(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 5 {
		defs = defs[:5]
	}
	opts := MergeOptions{CostConstraint: 0.15}
	// Measure the run's total optimizer invocations (pre-search costing
	// included) with an always-matching zero-latency rule, then start
	// the outage halfway: baseline calibration succeeds, the search is
	// underway, and every later costing fails permanently.
	counter := faults.Install(faults.Rule{ID: "count", Point: faults.OptimizerCost, Mode: faults.ModeLatency})
	want, err := coldTwin(t, m).MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("counting merge: %v", err)
	}
	total := faults.Fired(counter[0].ID)
	faults.Reset()
	if total < 40 {
		t.Fatalf("fixture too small: only %d optimizer calls", total)
	}
	outageStart := total / 2

	faults.Install(faults.Rule{
		ID: "outage", Point: faults.OptimizerCost, Mode: faults.ModeError, After: outageStart,
		Msg: "optimizer service down",
	})
	defer faults.Reset()

	opts.Resilience = &ResilienceOptions{}
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("resilient merge under permanent outage: %v", err)
	}
	if !got.Degraded {
		t.Fatal("permanent outage must flag the result degraded")
	}
	// Each check the search consumed after the outage began failed once
	// and degraded once, and so did the final costing; checks the search
	// made before it did not.
	if got.DegradedChecks == 0 || got.DegradedChecks > got.CostEvaluations+1 {
		t.Errorf("degraded checks = %d for %d consumed checks and the final costing", got.DegradedChecks, got.CostEvaluations)
	}
	if got.FinalCost <= 0 {
		t.Errorf("degraded final cost = %v, want > 0", got.FinalCost)
	}
	if got.Final.Len() == 0 || got.Final.Len() > want.Initial.Len() {
		t.Errorf("degraded search produced a nonsensical configuration (%d indexes)", got.Final.Len())
	}
	// The external model still enforces its translated constraint, so
	// storage must not grow.
	if got.FinalBytes > got.InitialBytes {
		t.Error("degraded merge grew storage")
	}
}

func TestChaosInjectedPanicsAreRecovered(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 6 {
		defs = defs[:6]
	}
	opts := MergeOptions{CostConstraint: 0.15}
	want := chaosBaseline(t, m, defs, opts)

	// Two injected panics mid-search: the worker boundary converts each
	// to an error, the check it lands in degrades, the run completes.
	installed := faults.Install(faults.Rule{
		ID: "boom", Point: faults.OptimizerCost, Mode: faults.ModePanic, After: 40, Count: 2,
	})
	defer faults.Reset()

	opts.Resilience = &ResilienceOptions{}
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge under injected panics: %v", err)
	}
	fired := faults.Fired(installed[0].ID)
	if fired != 2 {
		t.Fatalf("panic rule fired %d times, want 2", fired)
	}
	if got.PanicsRecovered != fired || got.DegradedChecks != fired || !got.Degraded {
		t.Errorf("%d panics recovered, %d degraded checks (degraded %v); want each of the %d panics to degrade its check",
			got.PanicsRecovered, got.DegradedChecks, got.Degraded, fired)
	}
	again, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge after the panics: %v", err)
	}
	assertSameSearch(t, want, again)
}

// TestChaosCanceledMergeMakesNoOptimizerCall: a done ctx stops every
// costing around the search before it starts — the initial pass (the
// Seek-Costs, which give the baseline) and the final costing alike — or,
// done during the initial pass, before its next query, and comes back as
// ctx.Err(), never as a degraded result.
func TestChaosCanceledMergeMakesNoOptimizerCall(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 5 {
		defs = defs[:5]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ro := range []*ResilienceOptions{nil, {}} {
		before := m.opt.InvocationCount()
		_, err := m.MergeDefsContext(ctx, defs, MergeOptions{CostConstraint: 0.15, Resilience: ro})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("resilient %v: err = %v, want context.Canceled", ro != nil, err)
		}
		if n := m.opt.InvocationCount() - before; n != 0 {
			t.Errorf("resilient %v: a pre-canceled merge made %d optimizer calls, want 0", ro != nil, n)
		}
	}

	// Cancel on the search's last progress report, which it delivers
	// after its last look at ctx: only the final costing sees ctx done.
	var reports int
	opts := MergeOptions{CostConstraint: 0.15, Progress: func(SearchProgress) { reports++ }}
	chaosBaseline(t, m, defs, opts)
	last := reports
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	reports = 0
	opts.Progress = func(SearchProgress) {
		if reports++; reports == last {
			cancel()
		}
	}
	opts.Resilience = &ResilienceOptions{}
	before := m.opt.InvocationCount()
	res, err := m.MergeDefsContext(ctx, defs, opts)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled before the final costing: (%v, %v), want context.Canceled and no result", res, err)
	}
	if reports != last {
		t.Fatalf("the search reported %d times, the fault-free run %d", reports, last)
	}
	calls := m.opt.InvocationCount() - before
	again, err := coldTwin(t, m).MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if want := again.OptimizerCalls + 1*int64(len(m.w.Queries)); calls != want {
		t.Errorf("canceled run made %d optimizer calls, want %d: the initial pass's and the search's, no final costing", calls, want)
	}

	// Cancel in the middle of the initial pass: it stops before the next
	// query, and nothing after it runs.
	at := int64(len(m.w.Queries)) / 2
	for _, ro := range []*ResilienceOptions{nil, {}} {
		before := m.opt.InvocationCount()
		ctx := cancelAtCall(m.opt, before+at)
		_, err := m.MergeDefsContext(ctx, defs, MergeOptions{CostConstraint: 0.15, Resilience: ro})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("resilient %v: err = %v, want context.Canceled", ro != nil, err)
		}
		if n := m.opt.InvocationCount() - before; n != at {
			t.Errorf("resilient %v: canceled after call %d of the initial pass, the merge made %d optimizer calls", ro != nil, at, n)
		}
	}

	// MergePair-Exhaustive prices column orders inside Merge, before the
	// search's first check: cancel after its 50th call, and it stops
	// within the order it is pricing.
	at = int64(len(m.w.Queries)) + 50
	for _, ro := range []*ResilienceOptions{nil, {}} {
		cold := coldTwin(t, m)
		before := cold.opt.InvocationCount()
		ctx := cancelAtCall(cold.opt, before+at)
		_, err := cold.MergeDefsContext(ctx, defs, MergeOptions{CostConstraint: 0.15, MergePair: MergePairExhaustive, Resilience: ro})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("MergePair-Exhaustive, resilient %v: err = %v, want context.Canceled", ro != nil, err)
		}
		if n := cold.opt.InvocationCount() - before; n > at+1 {
			t.Errorf("MergePair-Exhaustive, resilient %v: canceled after call %d, the merge made %d optimizer calls, want at most one more", ro != nil, at, n)
		}
	}
}

// callCanceled is a context that cancels itself the first time it is
// asked once the optimizer has made its at-th invocation: a cancellation
// that lands between two given optimizer calls, deterministically.
type callCanceled struct {
	context.Context
	cancel context.CancelFunc
	opt    *Optimizer
	at     int64
}

func cancelAtCall(opt *Optimizer, at int64) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	return &callCanceled{Context: ctx, cancel: cancel, opt: opt, at: at}
}

func (c *callCanceled) Err() error {
	if c.opt.InvocationCount() >= c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestChaosCanceledDualMakesNoOptimizerCall: a done ctx stops the dual's
// Seek-Cost pass before its first query.
func TestChaosCanceledDualMakesNoOptimizerCall(t *testing.T) {
	db, _, m, defs := mergerFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := m.opt.InvocationCount()
	res, err := m.MergeDualContext(ctx, defs, db.ConfigurationBytes(defs)/2)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-canceled dual: (%v, %v), want context.Canceled and no result", res, err)
	}
	if n := m.opt.InvocationCount() - before; n != 0 {
		t.Errorf("a pre-canceled dual made %d optimizer calls, want 0", n)
	}
}

func TestChaosParallelSearchUnderFaults(t *testing.T) {
	// Parallel candidate costing with a permanent error window and one
	// panic mixed in, under every optimizer-backed cost model: the run
	// completes degraded, the panic is recovered once wherever it lands
	// — on the search goroutine or a fill worker — and the next run on
	// the same merger is exact. Run under -race this also validates the
	// concurrency story end to end.
	db, w, _, defs := mergerFixture(t)
	if len(defs) > 6 {
		defs = defs[:6]
	}
	// A merger per run: every optimizer-backed model prices through the
	// merger's cost table, and a warm one leaves no optimizer call for a
	// fault to land in.
	merger := func() *Merger {
		m, err := NewMerger(db, w)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name  string
		model CostModelKind
		// search is the optimizer call the search's first fill makes:
		// the initial pass makes the 17 calls before it, and the
		// compressed model's template-order baseline (which, like the
		// initial pass, cannot degrade) 17 more. The panic sweeps the fills
		// from there, on the search goroutine and the fill workers; an
		// outage starts there.
		search int64
	}{
		{"opt", OptimizerCost, 18},
		{"prefilter", PrefilteredOptimizerCost, 18},
		{"compressed", CompressedOptimizerCost, 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faults.Reset()
			opts := MergeOptions{CostConstraint: 0.15, CostModel: tc.model}
			want := chaosBaseline(t, merger(), defs, opts)

			opts.Parallelism = 4
			opts.Resilience = &ResilienceOptions{}
			run := func(what string, rule faults.Rule) *MergeResult {
				t.Helper()
				faults.Reset()
				faults.Install(rule)
				m := merger()
				got, err := m.MergeDefsContext(context.Background(), defs, opts)
				if err != nil {
					t.Fatalf("%s: parallel merge under faults: %v", what, err)
				}
				if !got.Degraded || got.DegradedChecks == 0 {
					t.Errorf("%s: result not degraded", what)
				}
				if got.FinalBytes > got.InitialBytes {
					t.Errorf("%s: degraded merge grew storage", what)
				}
				faults.Reset()
				again, err := m.MergeDefsContext(context.Background(), defs, opts)
				if err != nil {
					t.Fatalf("%s: merge after the faults: %v", what, err)
				}
				assertSameSearch(t, want, again)
				return got
			}
			for after := tc.search - 1; after < tc.search+6; after++ {
				what := fmt.Sprintf("panic after %d calls", after)
				got := run(what, faults.Rule{ID: "pp", Point: faults.OptimizerCost, Mode: faults.ModePanic, After: after, Count: 1})
				if got.PanicsRecovered != 1 {
					t.Errorf("%s: %d panics recovered, want 1", what, got.PanicsRecovered)
				}
			}
			run("outage", faults.Rule{ID: "pe", Point: faults.OptimizerCost, Mode: faults.ModeError, After: tc.search + 2})
		})
	}
}

// TestChaosCostCacheFillPanic: at parallelism 4 a cost-table miss is
// filled on one of the search's wave goroutines, where nothing above a
// constraint check can recover a panic. A panic as a missed cell is
// filled must fail that check — and the merge, with a typed error that
// carries the stack — not the process; the failed run leaves nothing
// behind, and with Resilience one such panic degrades the check it
// lands in and nothing else.
func TestChaosCostCacheFillPanic(t *testing.T) {
	db, w, _, defs := mergerFixture(t)
	defer faults.Reset()
	// A merger per run: every run fills the cells its checks miss.
	merge := func(opts MergeOptions) (*MergeResult, error) {
		m, err := NewMerger(db, w)
		if err != nil {
			t.Fatal(err)
		}
		return m.MergeDefsContext(context.Background(), defs, opts)
	}
	for _, model := range []struct {
		name string
		kind CostModelKind
	}{{"opt", OptimizerCost}, {"compressed", CompressedOptimizerCost}} {
		t.Run(model.name, func(t *testing.T) {
			opts := MergeOptions{CostConstraint: 0.10, CostModel: model.kind, Parallelism: 4}
			faults.Reset()
			want, err := merge(opts)
			if err != nil {
				t.Fatalf("fault-free merge: %v", err)
			}
			// Which of a wave's four checks makes the 61st fill is a race,
			// and a panicking candidate ranked behind an accepted one is
			// discarded with its verdict: every fill from there on panics,
			// so that the next consumed verdict carries one.
			panics := faults.Rule{ID: "fill", Point: faults.CostCacheDo, Mode: faults.ModePanic, After: 60}

			faults.Install(panics)
			_, err = merge(opts)
			var pe *core.PanicError
			if !errors.As(err, &pe) || len(pe.Stack) == 0 {
				t.Fatalf("merge under a fill panic: err = %v, want a *core.PanicError with a stack", err)
			}
			// Nothing of the failed run is left behind.
			faults.Reset()
			again, err := merge(opts)
			if err != nil {
				t.Fatalf("merge after the failed run: %v", err)
			}
			assertSameSearch(t, want, again)

			// One panic under Resilience: whichever check it lands on
			// degrades, once.
			panics.Count = 1
			faults.Install(panics)
			opts.Resilience = &ResilienceOptions{}
			got, err := merge(opts)
			if err != nil {
				t.Fatalf("merge under one fill panic: %v", err)
			}
			if got.PanicsRecovered != 1 || got.DegradedChecks != 1 || !got.Degraded {
				t.Errorf("PanicsRecovered = %d, DegradedChecks = %d, Degraded = %v; want 1, 1, true",
					got.PanicsRecovered, got.DegradedChecks, got.Degraded)
			}
		})
	}
}

func TestChaosLatencyNeverChangesResults(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 5 {
		defs = defs[:5]
	}
	opts := MergeOptions{CostConstraint: 0.15}
	want := chaosBaseline(t, m, defs, opts)

	installed := faults.Install(
		faults.Rule{ID: "lat-opt", Point: faults.OptimizerCost, Mode: faults.ModeLatency, Latency: 100 * time.Microsecond, Count: 50},
		faults.Rule{ID: "lat-cache", Point: faults.CostCacheDo, Mode: faults.ModeLatency, Latency: 50 * time.Microsecond, Count: 50},
	)
	defer faults.Reset()

	// Latency is not an error, under Resilience or not.
	opts.Resilience = &ResilienceOptions{}
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge under latency faults: %v", err)
	}
	if faults.Fired(installed[0].ID) == 0 && faults.Fired(installed[1].ID) == 0 {
		t.Fatal("no latency fault fired")
	}
	assertSameSearch(t, want, got)
	if want.OptimizerCalls != got.OptimizerCalls {
		t.Errorf("optimizer calls diverged under pure latency: want %d, got %d",
			want.OptimizerCalls, got.OptimizerCalls)
	}
}

func TestChaosStorageAndStatsFaultsSurface(t *testing.T) {
	// Storage heap-read errors surface through stats/explain paths as
	// typed faults; latency-only points absorb Hit rules without
	// consuming error windows.
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 4 {
		defs = defs[:4]
	}
	// An error rule against a Hit-only point is inert by design.
	installed := faults.Install(
		faults.Rule{ID: "inert", Point: faults.StorageHeapScan, Mode: faults.ModeError},
		faults.Rule{ID: "scan-lat", Point: faults.StorageHeapScan, Mode: faults.ModeLatency, Latency: 10 * time.Microsecond, Count: 5},
	)
	defer faults.Reset()

	res, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{CostConstraint: 0.15})
	if err != nil {
		t.Fatalf("merge with Hit-point rules: %v", err)
	}
	if res == nil || res.Final.Len() == 0 {
		t.Fatal("merge produced no result")
	}
	if got := faults.Fired(installed[0].ID); got != 0 {
		t.Errorf("error rule on a Hit-only point fired %d times, want 0", got)
	}
}

// degradedDigest is a resilient result's payload-visible fields and its
// degradation counters, hashed.
func degradedDigest(r *MergeResult) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s dc=%d pr=%d", mergeKey(r), r.DegradedChecks, r.PanicsRecovered)))
	return hex.EncodeToString(sum[:8])
}

// TestChaosDegradedPathsPinned pins, by digest, the results of resilient
// runs whose checks are decided by the external model: faults placed
// relative to the search's first optimizer call (an error window, an
// outage from mid-search on, which also degrades the final costing, and
// a fault in the final costing alone), and healthy prefiltered runs,
// whose §3.5.3 prefilter consults the external model on every check. A
// fault's offset is counted from the run's pre-search costing, measured
// on a cold twin, so the pins hold however many calls that costing
// makes. The digests are those of the code that calibrated the external
// model eagerly and priced the initial configuration twice before the
// search.
func TestChaosDegradedPathsPinned(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	n := int64(len(m.w.Queries))
	for _, tc := range []struct {
		name  string
		model CostModelKind
		// rule places the fault, given the calls the run makes before
		// its search and the calls of the search; nil runs healthy.
		rule func(pre, search int64) *faults.Rule
		want string
	}{
		{"opt/window", OptimizerCost, func(pre, _ int64) *faults.Rule {
			return &faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError, After: pre + 5, Count: 3}
		}, "bca6d830426bf9e9"},
		{"opt/outage", OptimizerCost, func(pre, search int64) *faults.Rule {
			return &faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError, After: pre + search/2}
		}, "7918efca5250b4df"},
		{"opt/final", OptimizerCost, func(pre, search int64) *faults.Rule {
			return &faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError, After: pre + search + 2, Count: 1}
		}, "eb169f6a260d92b5"},
		{"opt/panics", OptimizerCost, func(pre, _ int64) *faults.Rule {
			return &faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModePanic, After: pre + 9, Count: 2}
		}, "51b02076abdd5ac4"},
		{"prefilter/healthy", PrefilteredOptimizerCost, nil, "36b63efb6d0e9885"},
		{"prefilter/outage", PrefilteredOptimizerCost, func(pre, search int64) *faults.Rule {
			return &faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError, After: pre + search/2}
		}, "d3e79319ea5fad3a"},
		{"compressed/window", CompressedOptimizerCost, func(pre, _ int64) *faults.Rule {
			return &faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError, After: pre + 4, Count: 2}
		}, "99184a73afc35e1f"},
		{"compressed/outage", CompressedOptimizerCost, func(pre, search int64) *faults.Rule {
			return &faults.Rule{Point: faults.OptimizerCost, Mode: faults.ModeError, After: pre + search/2}
		}, "4b93fc270b623257"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faults.Reset()
			opts := MergeOptions{CostConstraint: 0.15, CostModel: tc.model, Resilience: &ResilienceOptions{}}
			var rule *faults.Rule
			if tc.rule != nil {
				twin := coldTwin(t, m)
				healthy, err := twin.MergeDefsContext(context.Background(), defs, opts)
				if err != nil {
					t.Fatal(err)
				}
				pre := twin.opt.InvocationCount() - healthy.OptimizerCalls - n
				rule = tc.rule(pre, healthy.OptimizerCalls)
			}
			faults.Reset()
			if rule != nil {
				faults.Install(*rule)
			}
			got, err := coldTwin(t, m).MergeDefsContext(context.Background(), defs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rule != nil && !got.Degraded {
				t.Fatal("the fault degraded nothing; the case exercises no degraded path")
			}
			if d := degradedDigest(got); d != tc.want {
				t.Errorf("digest %s, want %s: %s dc=%d pr=%d", d, tc.want, mergeKey(got), got.DegradedChecks, got.PanicsRecovered)
			}
		})
	}
}
