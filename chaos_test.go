package indexmerge

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"indexmerge/internal/core"
	"indexmerge/internal/faults"
)

// The chaos suite runs real Greedy/Exhaustive searches with
// deterministic faults injected into the what-if costing path and
// asserts the robustness contract:
//
//   - faults fully absorbed by retries produce byte-identical results
//     (same final configuration, same costs, same CostEvaluations);
//   - permanent faults without resilience surface as typed errors;
//   - permanent faults with resilience degrade to the external model
//     and flag the result;
//   - latency faults never change any result.
//
// Every test uses count-window rules (After/Count), never Prob, and
// serial search (Parallelism 1 is the default), so the injected fault
// sequence is exactly reproducible.

// chaosBaseline runs a fault-free merge to compare against.
func chaosBaseline(t *testing.T, m *Merger, defs []IndexDef, opts MergeOptions) *MergeResult {
	t.Helper()
	faults.Reset()
	res, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("fault-free merge: %v", err)
	}
	return res
}

// assertSameSearch asserts the decision-relevant parts of two results
// are identical. OptimizerCalls is deliberately excluded: it is a
// measured quantity and retried attempts legitimately add calls.
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
}

func TestChaosTransientFaultsAreInvisible(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 6 {
		defs = defs[:6]
	}
	opts := MergeOptions{CostConstraint: 0.15}
	want := chaosBaseline(t, m, defs, opts)

	// Transient errors sprayed across the costing path: three separate
	// windows so faults land in baseline costing, early search and late
	// search. Retries must absorb every one of them.
	installed := faults.Install(
		faults.Rule{ID: "t-early", Point: faults.OptimizerCost, Mode: faults.ModeError, Transient: true, After: 2, Count: 2},
		faults.Rule{ID: "t-mid", Point: faults.OptimizerCost, Mode: faults.ModeError, Transient: true, After: 40, Count: 3},
		faults.Rule{ID: "t-late", Point: faults.OptimizerCost, Mode: faults.ModeError, Transient: true, After: 90, Count: 1},
	)
	defer faults.Reset()

	// Budget must outlast the widest consecutive window (retrying one
	// check consumes the window's next entries).
	opts.Resilience = &ResilienceOptions{MaxRetries: 8, Backoff: time.Microsecond}
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge under transient faults: %v", err)
	}
	var fired int64
	for _, r := range installed {
		fired += faults.Fired(r.ID)
	}
	if fired == 0 {
		t.Fatal("no fault fired; the chaos test exercised nothing")
	}
	if got.Retries < fired {
		t.Errorf("retries = %d, want >= %d (every injected transient retried)", got.Retries, fired)
	}
	if got.Degraded {
		t.Error("retry-absorbed faults must not degrade the result")
	}
	if got.DegradedChecks != 0 {
		t.Errorf("degraded checks = %d, want 0", got.DegradedChecks)
	}
	assertSameSearch(t, want, got)
}

func TestChaosTransientFaultsExhaustiveSearch(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 5 {
		defs = defs[:5]
	}
	opts := MergeOptions{CostConstraint: 0.15, Search: ExhaustiveSearch}
	want := chaosBaseline(t, m, defs, opts)

	installed := faults.Install(
		faults.Rule{ID: "tx", Point: faults.OptimizerCost, Mode: faults.ModeError, Transient: true, After: 10, Count: 4},
	)
	defer faults.Reset()

	opts.Resilience = &ResilienceOptions{MaxRetries: 8, Backoff: time.Microsecond}
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("exhaustive merge under transient faults: %v", err)
	}
	if faults.Fired(installed[0].ID) == 0 {
		t.Fatal("fault never fired")
	}
	if got.Degraded {
		t.Error("unexpected degraded result")
	}
	assertSameSearch(t, want, got)
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
	if core.IsTransient(err) {
		t.Error("permanent injected fault classified transient")
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
	want, err := m.MergeDefsContext(context.Background(), defs, opts)
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

	opts.Resilience = &ResilienceOptions{
		Backoff: time.Microsecond,
		Breaker: &CostBreaker{Threshold: 2, Cooldown: time.Hour},
	}
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("resilient merge under permanent outage: %v", err)
	}
	if !got.Degraded {
		t.Fatal("permanent outage must flag the result degraded")
	}
	if got.DegradedChecks == 0 {
		t.Error("no degraded checks recorded")
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

func TestChaosPermanentFaultNoDegradedFailsTyped(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 5 {
		defs = defs[:5]
	}
	faults.Install(faults.Rule{
		ID: "outage2", Point: faults.OptimizerCost, Mode: faults.ModeError, After: 30,
	})
	defer faults.Reset()

	opts := MergeOptions{CostConstraint: 0.15}
	opts.Resilience = &ResilienceOptions{Backoff: time.Microsecond, NoDegraded: true}
	_, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err == nil {
		t.Fatal("NoDegraded outage must fail the merge")
	}
	var fe *faults.Error
	if !errors.As(err, &fe) {
		t.Fatalf("error chain lost the typed fault: %v", err)
	}
}

func TestChaosInjectedPanicsAreRecovered(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 6 {
		defs = defs[:6]
	}
	opts := MergeOptions{CostConstraint: 0.15}
	want := chaosBaseline(t, m, defs, opts)

	// Two injected panics mid-search, marked transient: the worker
	// boundary converts them to errors, the retry re-costs, results stay
	// byte-identical.
	installed := faults.Install(faults.Rule{
		ID: "boom", Point: faults.OptimizerCost, Mode: faults.ModePanic, Transient: true, After: 25, Count: 2,
	})
	defer faults.Reset()

	opts.Resilience = &ResilienceOptions{Backoff: time.Microsecond}
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge under injected panics: %v", err)
	}
	if faults.Fired(installed[0].ID) == 0 {
		t.Fatal("panic rule never fired")
	}
	if got.PanicsRecovered == 0 {
		t.Error("no panics recorded as recovered")
	}
	if got.Degraded {
		t.Error("recovered panics must not degrade the result")
	}
	assertSameSearch(t, want, got)
}

// TestChaosCancelCutsBackoffShort: costing around the search retries
// on the same loop as the constraint checks, and that loop's backoff
// waits on the context. Every optimizer call fails transiently, so the
// baseline costing is in its first one-second backoff when the caller
// gives up.
func TestChaosCancelCutsBackoffShort(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	if len(defs) > 5 {
		defs = defs[:5]
	}
	faults.Install(faults.Rule{ID: "flaky", Point: faults.OptimizerCost, Mode: faults.ModeError, Transient: true})
	defer faults.Reset()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	_, err := m.MergeDefsContext(ctx, defs, MergeOptions{
		CostConstraint: 0.15,
		Resilience:     &ResilienceOptions{Backoff: time.Second},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("canceled after 10ms, returned after %v: the backoff slept through the cancellation", elapsed)
	}
}

func TestChaosParallelSearchUnderFaults(t *testing.T) {
	// Parallel candidate costing with transient faults and panics mixed
	// in, under every optimizer-backed cost model: decisions must match
	// the serial fault-free baseline. Run under -race this also
	// validates the concurrency story end to end.
	db, w, _, defs := mergerFixture(t)
	if len(defs) > 6 {
		defs = defs[:6]
	}
	// A merger per run: the compressed model's cost table is the
	// merger's, and a warm one leaves no optimizer call for a fault to
	// land in.
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
		// panicAfter are the optimizer-call offsets the one panic is tried
		// at. The compressed model costs the baselines serially and then
		// fills each candidate's cost-table misses on worker goroutines;
		// the sweep crosses that fill (calls 69–75 with the three
		// transient faults retried before it), where nothing but the
		// workers' own boundary can catch a panic.
		panicAfter []int64
	}{
		{"opt", OptimizerCost, []int64{60}},
		{"prefilter", PrefilteredOptimizerCost, []int64{60}},
		{"compressed", CompressedOptimizerCost, []int64{62, 66, 69, 70, 71, 72, 73, 74, 75, 78}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faults.Reset()
			opts := MergeOptions{CostConstraint: 0.15, CostModel: tc.model}
			want := chaosBaseline(t, merger(), defs, opts)

			opts.Parallelism = 4
			opts.Resilience = &ResilienceOptions{MaxRetries: 8, Backoff: time.Microsecond}
			for _, after := range tc.panicAfter {
				faults.Reset()
				faults.Install(
					faults.Rule{ID: "pt", Point: faults.OptimizerCost, Mode: faults.ModeError, Transient: true, After: 15, Count: 3},
					faults.Rule{ID: "pp", Point: faults.OptimizerCost, Mode: faults.ModePanic, Transient: true, After: after, Count: 1},
				)
				got, err := merger().MergeDefsContext(context.Background(), defs, opts)
				if err != nil {
					t.Fatalf("panic after %d calls: parallel merge under faults: %v", after, err)
				}
				if got.Degraded {
					t.Errorf("panic after %d calls: unexpected degraded result", after)
				}
				if faults.Fired("pp") != 1 || got.PanicsRecovered == 0 {
					t.Errorf("panic after %d calls: fired %d times, %d recovered", after, faults.Fired("pp"), got.PanicsRecovered)
				}
				// Parallel speculation means the faults may land on
				// speculative checks, but consumed decisions must match
				// exactly.
				assertSameSearch(t, want, got)
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

	// No resilience needed: latency is not an error.
	got, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge under latency faults: %v", err)
	}
	if faults.Fired(installed[0].ID) == 0 && faults.Fired(installed[1].ID) == 0 {
		t.Fatal("no latency fault fired")
	}
	if got.Degraded || got.Retries != 0 {
		t.Errorf("latency faults leaked into resilience accounting: degraded=%v retries=%d",
			got.Degraded, got.Retries)
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
