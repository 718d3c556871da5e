package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTransientErr models a retryable failure from any layer.
type fakeTransientErr struct{ transient bool }

func (e fakeTransientErr) Error() string   { return "fake fault" }
func (e fakeTransientErr) Transient() bool { return e.transient }

// scriptedChecker is a ConstraintChecker whose attempts follow a script:
// entry i is the error (or nil) returned by the i-th call; entries
// equal to panicSentinel panic instead. Past the end of the script it
// returns the steady decision.
type scriptedChecker struct {
	mu     sync.Mutex
	script []error
	calls  int
	accept bool
	evals  atomic.Int64
}

var panicSentinel = errors.New("panic now")

func (s *scriptedChecker) Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	s.evals.Add(1)
	s.mu.Lock()
	var step error
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

func (s *scriptedChecker) Evaluations() int64     { return s.evals.Load() }
func (s *scriptedChecker) OptimizerCalls() int64  { return 0 }
func (s *scriptedChecker) SetBase(*Configuration) {}

func (s *scriptedChecker) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(fakeTransientErr{transient: true}) {
		t.Error("transient error not classified transient")
	}
	if IsTransient(fakeTransientErr{transient: false}) {
		t.Error("permanent error classified transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error classified transient")
	}
	// Wrapped chains must still classify.
	wrapped := &CostingError{Attempts: 3, Err: fakeTransientErr{transient: true}}
	if !IsTransient(wrapped) {
		t.Error("wrapped transient error not classified")
	}
}

func TestPanicErrorTransient(t *testing.T) {
	if !(&PanicError{Value: "boom"}).Transient() {
		t.Error("plain panic should default to transient")
	}
	if (&PanicError{Value: fakeTransientErr{transient: false}}).Transient() {
		t.Error("panic carrying a permanent error must stay permanent")
	}
	if !(&PanicError{Value: fakeTransientErr{transient: true}}).Transient() {
		t.Error("panic carrying a transient error must stay transient")
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: time.Hour}
	for i := 0; i < 2; i++ {
		if allow, _ := b.Allow(); !allow {
			t.Fatalf("closed breaker denied call %d", i)
		}
		b.Failure(false)
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, got)
		}
	}
	b.Allow()
	b.Failure(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if allow, _ := b.Allow(); allow {
		t.Error("open breaker allowed a call inside cooldown")
	}
	if got := b.Transitions(); got != 1 {
		t.Errorf("transitions = %d, want 1", got)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := &Breaker{Threshold: 2, Cooldown: time.Hour}
	b.Failure(false)
	b.Success(false)
	b.Failure(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("non-consecutive failures opened the breaker: %v", got)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := &Breaker{Threshold: 1, Cooldown: time.Millisecond}
	b.Failure(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	time.Sleep(5 * time.Millisecond)

	allow, probe := b.Allow()
	if !allow || !probe {
		t.Fatalf("post-cooldown Allow = (%v, %v), want probe", allow, probe)
	}
	// Only one probe at a time.
	if allow, _ := b.Allow(); allow {
		t.Error("second call allowed while probe in flight")
	}
	// Failed probe reopens immediately.
	b.Failure(true)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	time.Sleep(5 * time.Millisecond)
	_, probe = b.Allow()
	if !probe {
		t.Fatal("expected a second probe after re-cooldown")
	}
	b.Success(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if allow, probe := b.Allow(); !allow || probe {
		t.Errorf("reclosed breaker Allow = (%v, %v), want plain allow", allow, probe)
	}
}

func TestBreakerReleaseKeepsHalfOpen(t *testing.T) {
	b := &Breaker{Threshold: 1, Cooldown: time.Millisecond}
	b.Failure(false)
	time.Sleep(5 * time.Millisecond)
	if _, probe := b.Allow(); !probe {
		t.Fatal("expected probe")
	}
	// Parent cancellation: the probe is released without judgment and
	// the slot becomes available to the next caller instead of
	// deadlocking half-open forever.
	b.Release(true)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after release = %v, want half-open", got)
	}
	allow, probe := b.Allow()
	if !allow || !probe {
		t.Fatalf("Allow after release = (%v, %v), want a fresh probe", allow, probe)
	}
}

func TestBreakerConcurrentProbeExclusive(t *testing.T) {
	b := &Breaker{Threshold: 1, Cooldown: time.Millisecond}
	b.Failure(false)
	time.Sleep(5 * time.Millisecond)
	var probes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if allow, probe := b.Allow(); allow && probe {
				probes.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := probes.Load(); got != 1 {
		t.Fatalf("%d concurrent probes allowed, want exactly 1", got)
	}
}

func TestResilientRetriesAbsorbTransientFaults(t *testing.T) {
	inner := &scriptedChecker{
		script: []error{fakeTransientErr{transient: true}, fakeTransientErr{transient: true}},
		accept: true,
	}
	rc := &ResilientChecker{Inner: inner, Backoff: time.Microsecond}
	ok, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
	if err != nil || !ok {
		t.Fatalf("Accepts = (%v, %v), want (true, nil)", ok, err)
	}
	if got := rc.Retries(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if rc.Degraded() {
		t.Error("retry-absorbed faults must not mark the result degraded")
	}
	if got := inner.callCount(); got != 3 {
		t.Errorf("inner calls = %d, want 3", got)
	}
}

func TestResilientPermanentErrorWithoutFallback(t *testing.T) {
	permanent := errors.New("optimizer exploded")
	inner := &scriptedChecker{script: []error{permanent}}
	rc := &ResilientChecker{Inner: inner, Backoff: time.Microsecond}
	_, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
	var ce *CostingError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CostingError", err)
	}
	if ce.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (permanent errors are not retried)", ce.Attempts)
	}
	if !errors.Is(err, permanent) {
		t.Error("CostingError must unwrap to the last attempt error")
	}
	if got := inner.callCount(); got != 1 {
		t.Errorf("inner calls = %d, want 1", got)
	}
}

func TestResilientRetryBudgetExhausted(t *testing.T) {
	tr := fakeTransientErr{transient: true}
	inner := &scriptedChecker{script: []error{tr, tr, tr, tr, tr, tr}}
	rc := &ResilientChecker{Inner: inner, MaxRetries: 2, Backoff: time.Microsecond}
	_, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
	var ce *CostingError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CostingError", err)
	}
	if ce.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + MaxRetries)", ce.Attempts)
	}
}

func TestResilientNegativeMaxRetriesDisables(t *testing.T) {
	inner := &scriptedChecker{script: []error{fakeTransientErr{transient: true}}, accept: true}
	rc := &ResilientChecker{Inner: inner, MaxRetries: -1, Backoff: time.Microsecond}
	if _, err := rc.Accepts(context.Background(), nil, nil, nil, nil); err == nil {
		t.Fatal("MaxRetries<0 must disable retries, got success")
	}
	if got := inner.callCount(); got != 1 {
		t.Errorf("inner calls = %d, want 1", got)
	}
}

func TestResilientRecoversPanics(t *testing.T) {
	inner := &scriptedChecker{script: []error{panicSentinel}, accept: true}
	rc := &ResilientChecker{Inner: inner, Backoff: time.Microsecond}
	ok, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
	if err != nil || !ok {
		t.Fatalf("Accepts = (%v, %v), want (true, nil)", ok, err)
	}
	if got := rc.PanicsRecovered(); got != 1 {
		t.Errorf("panics recovered = %d, want 1", got)
	}
	if got := rc.Retries(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

func TestResilientParentCancellationPropagates(t *testing.T) {
	inner := &scriptedChecker{accept: true}
	b := &Breaker{Threshold: 1, Cooldown: time.Hour}
	rc := &ResilientChecker{Inner: inner, Breaker: b, Backoff: time.Microsecond}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rc.Accepts(ctx, nil, nil, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is not a costing failure: the breaker must stay
	// closed (Threshold is 1, so a Failure would have opened it).
	if got := b.State(); got != BreakerClosed {
		t.Errorf("breaker state after cancellation = %v, want closed", got)
	}
}

func TestResilientDegradedDecision(t *testing.T) {
	f := newSearchFixture(t)
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0.10)

	permanent := errors.New("optimizer down")
	// Inner fails every call permanently.
	script := make([]error, 64)
	for i := range script {
		script[i] = permanent
	}
	inner := &scriptedChecker{script: script}
	rc := &ResilientChecker{
		Inner:    inner,
		External: ext,
		Backoff:  time.Microsecond,
	}
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
	// Evaluations include degraded decisions.
	if got := rc.Evaluations(); got < 2 {
		t.Errorf("evaluations = %d, want >= 2", got)
	}
}

func TestResilientCircuitOpenServesDegraded(t *testing.T) {
	f := newSearchFixture(t)
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0.10)

	inner := &scriptedChecker{accept: true}
	b := &Breaker{Threshold: 1, Cooldown: time.Hour}
	b.Failure(false) // force open
	rc := &ResilientChecker{Inner: inner, External: ext, Breaker: b}

	ok, err := rc.Accepts(context.Background(), f.initial, nil, nil, nil)
	if err != nil || !ok {
		t.Fatalf("Accepts under open breaker = (%v, %v), want degraded accept", ok, err)
	}
	if got := inner.callCount(); got != 0 {
		t.Errorf("open breaker still reached the inner checker (%d calls)", got)
	}
	if !rc.Degraded() {
		t.Error("open-breaker decision must be degraded")
	}
}

func TestResilientCircuitOpenWithoutFallbackFails(t *testing.T) {
	inner := &scriptedChecker{accept: true}
	b := &Breaker{Threshold: 1, Cooldown: time.Hour}
	b.Failure(false)
	rc := &ResilientChecker{Inner: inner, Breaker: b}
	_, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
}

func TestResilientBreakerTripsOnRepeatedFailures(t *testing.T) {
	permanent := errors.New("optimizer down")
	script := make([]error, 64)
	for i := range script {
		script[i] = permanent
	}
	inner := &scriptedChecker{script: script}
	b := &Breaker{Threshold: 3, Cooldown: time.Hour}
	rc := &ResilientChecker{Inner: inner, Breaker: b, Backoff: time.Microsecond}
	for i := 0; i < 3; i++ {
		if _, err := rc.Accepts(context.Background(), nil, nil, nil, nil); err == nil {
			t.Fatal("expected error")
		}
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("breaker after 3 permanent failures = %v, want open", got)
	}
	calls := inner.callCount()
	// Next check short-circuits: no new inner calls.
	if _, err := rc.Accepts(context.Background(), nil, nil, nil, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if got := inner.callCount(); got != calls {
		t.Errorf("open breaker reached inner checker: %d -> %d calls", calls, got)
	}
}

func TestResilientAttemptTimeout(t *testing.T) {
	// An inner checker that honors its context: the per-attempt
	// deadline converts a hang into a retryable timeout.
	var calls atomic.Int64
	inner := &ctxWaitChecker{calls: &calls}
	rc := &ResilientChecker{
		Inner:          inner,
		MaxRetries:     1,
		Backoff:        time.Microsecond,
		AttemptTimeout: 5 * time.Millisecond,
	}
	start := time.Now()
	_, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
	var ce *CostingError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CostingError", err)
	}
	if !errors.Is(ce.Err, context.DeadlineExceeded) {
		t.Fatalf("last attempt error = %v, want DeadlineExceeded", ce.Err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2 (timeout is retryable)", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hung for %v; per-attempt deadline not applied", elapsed)
	}
}

// ctxWaitChecker blocks until its context is done.
type ctxWaitChecker struct{ calls *atomic.Int64 }

func (c *ctxWaitChecker) Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	c.calls.Add(1)
	<-ctx.Done()
	return false, ctx.Err()
}

func (c *ctxWaitChecker) Evaluations() int64     { return c.calls.Load() }
func (c *ctxWaitChecker) OptimizerCalls() int64  { return 0 }
func (c *ctxWaitChecker) SetBase(*Configuration) {}

func TestResilientConcurrentAccepts(t *testing.T) {
	// Hammer a resilient checker (transient faults mixed in) from many
	// goroutines; run under -race this validates the locking story.
	tr := fakeTransientErr{transient: true}
	script := make([]error, 128)
	for i := 0; i < len(script); i += 4 {
		script[i] = tr
	}
	inner := &scriptedChecker{script: script, accept: true}
	// Interleaving means one goroutine's retry chain can consume several
	// scripted faults; give it budget to always outlast the script.
	rc := &ResilientChecker{Inner: inner, Breaker: &Breaker{}, MaxRetries: len(script), Backoff: time.Microsecond}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := rc.Accepts(context.Background(), nil, nil, nil, nil)
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
	if rc.Degraded() {
		t.Error("transient-only faults must not degrade")
	}
}
