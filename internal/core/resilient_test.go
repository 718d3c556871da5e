package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// scriptedChecker is a ConstraintChecker whose calls follow a script:
// entry i is the error (or nil) returned by the i-th call; entries
// equal to panicSentinel panic instead. Past the end of the script it
// fails with steady when that is set, and returns the steady decision
// otherwise.
type scriptedChecker struct {
	mu     sync.Mutex
	script []error
	steady error
	calls  int
	accept bool
}

var panicSentinel = errors.New("panic now")

func (s *scriptedChecker) Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	s.mu.Lock()
	step := s.steady
	if s.calls < len(s.script) {
		step = s.script[s.calls]
	}
	s.calls++
	s.mu.Unlock()
	if step == panicSentinel {
		panic("scripted costing panic")
	}
	if step != nil {
		return false, step
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return s.accept, nil
}

func (s *scriptedChecker) OptimizerCalls() int64  { return 0 }
func (s *scriptedChecker) SetBase(*Configuration) {}

func (s *scriptedChecker) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func TestResilientPermanentErrorWithoutFallback(t *testing.T) {
	permanent := errors.New("optimizer exploded")
	inner := &scriptedChecker{script: []error{permanent}, accept: true}
	rc := &ResilientChecker{Inner: inner}
	_, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
	if err != permanent {
		t.Fatalf("err = %v, want the inner error as is", err)
	}
	if got := inner.callCount(); got != 1 {
		t.Errorf("inner calls = %d, want 1 (a failed check is not retried)", got)
	}
	if rc.Degraded() || rc.DegradedChecks() != 0 {
		t.Error("a failure with no fallback must not count as degraded")
	}
}

func TestResilientRecoversPanics(t *testing.T) {
	inner := &scriptedChecker{script: []error{panicSentinel}, accept: true}
	rc := &ResilientChecker{Inner: inner}
	_, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
	var pe *PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("err = %v, want a *PanicError with a stack", err)
	}
	if got := rc.PanicsRecovered(); got != 1 {
		t.Errorf("panics recovered = %d, want 1", got)
	}
	if got := inner.callCount(); got != 1 {
		t.Errorf("inner calls = %d, want 1", got)
	}

	// With a fallback the panicking check degrades like any failure.
	f := newSearchFixture(t)
	inner = &scriptedChecker{script: []error{panicSentinel}, accept: true}
	rc = &ResilientChecker{Inner: inner, External: NewExternalCostModel(f.db, f.w, f.initial, 0.10)}
	ok, err := rc.Accepts(context.Background(), f.initial, nil, nil, nil)
	if err != nil || !ok {
		t.Fatalf("Accepts = (%v, %v), want the degraded accept of the baseline", ok, err)
	}
	if rc.PanicsRecovered() != 1 || rc.DegradedChecks() != 1 {
		t.Errorf("panics recovered %d, degraded checks %d, want 1 and 1", rc.PanicsRecovered(), rc.DegradedChecks())
	}
}

func TestResilientParentCancellationPropagates(t *testing.T) {
	f := newSearchFixture(t)
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0.10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The inner checker observes ctx, or fails on its own once ctx is
	// done: either way the caller is gone, which is not a costing
	// failure, and the fallback is not consulted.
	for _, inner := range []*scriptedChecker{
		{accept: true},
		{script: []error{errors.New("optimizer down")}},
	} {
		rc := &ResilientChecker{Inner: inner, External: ext}
		_, err := rc.Accepts(ctx, f.initial, nil, nil, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rc.Degraded() {
			t.Error("a canceled check degraded")
		}
	}
}

func TestResilientDegradedDecision(t *testing.T) {
	f := newSearchFixture(t)
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0.10)

	// Inner fails every call permanently.
	inner := &scriptedChecker{steady: errors.New("optimizer down")}
	rc := &ResilientChecker{Inner: inner, External: ext}
	// The initial configuration's external cost equals the baseline, so
	// the degraded decision must accept it (slack 10%).
	ok, err := rc.Accepts(context.Background(), f.initial, nil, nil, nil)
	if err != nil {
		t.Fatalf("degraded Accepts error: %v", err)
	}
	if !ok {
		t.Fatal("degraded decision rejected the baseline configuration")
	}
	if !rc.Degraded() {
		t.Error("Degraded flag not set")
	}
	if got := rc.DegradedChecks(); got != 1 {
		t.Errorf("degraded checks = %d, want 1", got)
	}
	// An empty configuration (all heap scans) must cost more than
	// baseline × 1.1 and be rejected by the degraded path too.
	empty := NewConfiguration(nil)
	ok, err = rc.Accepts(context.Background(), empty, nil, nil, nil)
	if err != nil {
		t.Fatalf("degraded Accepts error: %v", err)
	}
	if ok {
		t.Error("degraded decision accepted the index-free configuration")
	}
	if got := inner.callCount(); got != 2 {
		t.Errorf("inner calls = %d for two checks, want 2 (each check runs once)", got)
	}
}

func TestResilientConcurrentAccepts(t *testing.T) {
	// Hammer a resilient checker (permanent faults on every fourth call)
	// from many goroutines; run under -race this validates the locking
	// story. Each check runs once, and each failed one degrades.
	f := newSearchFixture(t)
	const checks = 64
	script := make([]error, checks)
	for i := 0; i < len(script); i += 4 {
		script[i] = errors.New("optimizer down")
	}
	inner := &scriptedChecker{script: script, accept: true}
	rc := &ResilientChecker{Inner: inner, External: NewExternalCostModel(f.db, f.w, f.initial, 0.10)}
	var wg sync.WaitGroup
	errs := make(chan error, checks)
	for i := 0; i < checks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := rc.Accepts(context.Background(), f.initial, nil, nil, nil)
			if err != nil {
				errs <- err
				return
			}
			if !ok {
				errs <- errors.New("unexpected reject")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Accepts: %v", err)
	}
	if got := inner.callCount(); got != checks {
		t.Errorf("inner calls = %d, want %d", got, checks)
	}
	if got := rc.DegradedChecks(); got != checks/4 {
		t.Errorf("degraded checks = %d, want %d", got, checks/4)
	}
}
