package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// transienter classifies errors as retryable without importing the
// package that produced them; internal/faults.Error implements it, and
// so can any transport or engine error type.
type transienter interface{ Transient() bool }

// IsTransient reports whether err (anywhere in its chain) models a
// retryable condition.
func IsTransient(err error) bool {
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// PanicError is a panic recovered from the costing path, converted to
// an error so a crashing cost evaluation fails one constraint check
// instead of the process. When the panic value itself classifies as
// transient (an injected transient panic, say), the conversion
// preserves that; any other panic is treated as a retryable one-off.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: costing panicked: %v", e.Value)
}

// Transient implements the retry classification: defer to the panic
// value when it knows, default to retryable.
func (e *PanicError) Transient() bool {
	if t, ok := e.Value.(transienter); ok {
		return t.Transient()
	}
	if err, ok := e.Value.(error); ok {
		var t transienter
		if errors.As(err, &t) {
			return t.Transient()
		}
	}
	return true
}

// CostingError reports that a constraint check failed after exhausting
// its retry budget; Err is the last attempt's error.
type CostingError struct {
	Attempts int
	Err      error
}

// Error implements error.
func (e *CostingError) Error() string {
	return fmt.Sprintf("core: costing failed after %d attempt(s): %v", e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *CostingError) Unwrap() error { return e.Err }

// ErrCircuitOpen is returned when the costing circuit breaker is open
// and no degraded-mode fallback is configured.
var ErrCircuitOpen = errors.New("core: costing circuit breaker is open")

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes every call through (healthy).
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits every call until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a single probe through; its outcome decides
	// between reclosing and reopening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Breaker is a consecutive-failure circuit breaker shared by all
// constraint checks of one session: Threshold consecutive permanent
// costing failures open it; while open, the resilient checker skips
// the optimizer entirely and serves degraded external-model decisions;
// after Cooldown one probe is allowed through, reclosing the breaker
// on success. Safe for concurrent use.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 3).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// probe (default 5s).
	Cooldown time.Duration

	mu          sync.Mutex
	state       BreakerState
	failures    int
	openedAt    time.Time
	probeActive bool
	transitions atomic.Int64
}

// Allow reports whether a call may proceed; probe is true when the
// call is the half-open probe and its outcome must be reported via
// Success/Failure/Release with probe set.
func (b *Breaker) Allow() (allow, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		cd := b.Cooldown
		if cd <= 0 {
			cd = 5 * time.Second
		}
		if time.Since(b.openedAt) < cd {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.transitions.Add(1)
		b.probeActive = true
		return true, true
	case BreakerHalfOpen:
		if b.probeActive {
			return false, false
		}
		b.probeActive = true
		return true, true
	}
	return true, false
}

// Success records a successful call, reclosing the breaker.
func (b *Breaker) Success(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if probe {
		b.probeActive = false
	}
	if b.state != BreakerClosed {
		b.state = BreakerClosed
		b.transitions.Add(1)
	}
}

// Failure records a permanent costing failure: a failed probe reopens
// immediately; Threshold consecutive failures open a closed breaker.
func (b *Breaker) Failure(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probeActive = false
		if b.state != BreakerOpen {
			b.state = BreakerOpen
			b.transitions.Add(1)
		}
		b.openedAt = time.Now()
		return
	}
	b.failures++
	th := b.Threshold
	if th <= 0 {
		th = 3
	}
	if b.state == BreakerClosed && b.failures >= th {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.transitions.Add(1)
	}
}

// Release returns a probe slot without judging the call (parent
// cancellation); a half-open breaker stays half-open for the next
// caller.
func (b *Breaker) Release(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	b.probeActive = false
	b.mu.Unlock()
}

// State returns the breaker's current position (an open breaker whose
// cooldown has elapsed still reads open until the next Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Transitions counts state changes since construction.
func (b *Breaker) Transitions() int64 { return b.transitions.Load() }

// ResilientChecker hardens an optimizer-backed constraint checker
// against a flaky cost server: transient failures (injected faults,
// per-attempt timeouts, recovered panics) are retried with exponential
// backoff; permanent failures trip a circuit breaker and — when an
// external-model fallback is calibrated — degrade the decision to the
// coarse §3.5.2 analytic model instead of failing the search. Results
// produced with any degraded decision carry the Degraded flag so
// callers can tell a cost-guaranteed configuration from a best-effort
// one.
//
// Safe for concurrent Accepts calls (the wrapped checkers are, the
// external model is read-only after SetBaseline, and all counters are
// atomic).
type ResilientChecker struct {
	// Inner is the optimizer-backed checker being protected.
	Inner ConstraintChecker
	// External, when non-nil with a calibrated baseline (SetBaseline),
	// supplies degraded-mode decisions: a candidate is accepted iff its
	// external cost is within (1+SlackPct) of the external baseline —
	// the same constraint translation the §3.5.3 prefilter uses, with
	// margin 1.
	External *ExternalCostModel
	// SlackPct mirrors the cost constraint used to build Inner.
	SlackPct float64
	// MaxRetries bounds transient retries per constraint check
	// (default 2; negative disables retries).
	MaxRetries int
	// Backoff is the first retry's delay, doubling per retry
	// (default 2ms).
	Backoff time.Duration
	// AttemptTimeout, when positive, deadlines each attempt; an attempt
	// that exceeds it is retried like a transient fault.
	AttemptTimeout time.Duration
	// Breaker, when non-nil, is consulted before and informed after
	// every check; share one per session.
	Breaker *Breaker

	retries         atomic.Int64
	degradedChecks  atomic.Int64
	panicsRecovered atomic.Int64
	degraded        atomic.Bool
	degradedEvals   atomic.Int64
}

// Description implements ConstraintChecker.
func (c *ResilientChecker) Description() string {
	return c.Inner.Description() + "+Resilient"
}

// Evaluations implements ConstraintChecker: inner checks plus
// degraded-mode decisions that never reached the inner checker.
func (c *ResilientChecker) Evaluations() int64 {
	return c.Inner.Evaluations() + c.degradedEvals.Load()
}

// OptimizerCalls implements ConstraintChecker.
func (c *ResilientChecker) OptimizerCalls() int64 { return c.Inner.OptimizerCalls() }

// Retries counts transient attempt failures that were retried.
func (c *ResilientChecker) Retries() int64 { return c.retries.Load() }

// DegradedChecks counts constraint decisions served by the external
// model instead of the optimizer.
func (c *ResilientChecker) DegradedChecks() int64 { return c.degradedChecks.Load() }

// PanicsRecovered counts costing panics converted to errors.
func (c *ResilientChecker) PanicsRecovered() int64 { return c.panicsRecovered.Load() }

// Degraded reports whether any decision so far was degraded; a search
// result built over a degraded checker carries no optimizer-backed
// cost guarantee.
func (c *ResilientChecker) Degraded() bool { return c.degraded.Load() }

// SetBase implements ConstraintChecker: the inner checker prices
// candidates against the search's current configuration.
func (c *ResilientChecker) SetBase(cfg *Configuration) { c.Inner.SetBase(cfg) }

// Accepts implements ConstraintChecker.
func (c *ResilientChecker) Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	probe := false
	if c.Breaker != nil {
		allow, p := c.Breaker.Allow()
		if !allow {
			return c.degradedDecision(cfg, ErrCircuitOpen)
		}
		probe = p
	}
	var ok bool
	err := c.Retry(ctx, func(actx context.Context) (err error) {
		ok, err = c.Inner.Accepts(actx, cfg, m, a, b)
		return err
	})
	if err == nil {
		if c.Breaker != nil {
			c.Breaker.Success(probe)
		}
		return ok, nil
	}
	if ctx.Err() != nil {
		// The caller is gone — not a costing failure; don't judge the
		// breaker on it.
		if c.Breaker != nil {
			c.Breaker.Release(probe)
		}
		return false, ctx.Err()
	}
	if c.Breaker != nil {
		c.Breaker.Failure(probe)
	}
	return c.degradedDecision(cfg, err)
}

// Retry runs fn under the checker's retry policy. It is the one retry
// loop of the costing paths: every constraint check runs through it,
// and so does the costing a caller does around a search (the facade's
// baseline, Seek-Cost and final costing), on the same budget and the
// same Retries and PanicsRecovered counters. Each attempt gets the
// per-attempt deadline and a panic boundary; transient failures and
// attempt-deadline overruns are retried after an exponential backoff
// that a canceled ctx cuts short. A failure that is not ctx's own comes
// back as a *CostingError; the breaker and the degraded fallback are
// not consulted, what a final error means is the caller's decision.
func (c *ResilientChecker) Retry(ctx context.Context, fn func(ctx context.Context) error) error {
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 2
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 2 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		err := c.attempt(ctx, fn)
		if err == nil {
			return nil
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			c.panicsRecovered.Add(1)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt >= maxRetries || !retryable(err) {
			return &CostingError{Attempts: attempt + 1, Err: err}
		}
		c.retries.Add(1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
}

// retryable classifies one attempt's error: transient faults and
// per-attempt deadline overruns are retried, everything else is
// permanent. The caller has already excluded parent-context errors.
func retryable(err error) bool {
	return IsTransient(err) || errors.Is(err, context.DeadlineExceeded)
}

// attempt runs fn once under the per-attempt deadline, converting a
// panic on this goroutine into a *PanicError. Panics on the costing
// worker goroutines are converted at the worker boundary (EvalEach), so
// no injected panic can escape a constraint check.
func (c *ResilientChecker) attempt(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	actx := ctx
	if c.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.AttemptTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(actx)
}

// degradedDecision serves a constraint decision from the external
// model, or returns cause when no calibrated fallback exists.
func (c *ResilientChecker) degradedDecision(cfg *Configuration, cause error) (bool, error) {
	if c.External == nil || c.External.BaselineCost() <= 0 {
		return false, cause
	}
	c.degraded.Store(true)
	c.degradedChecks.Add(1)
	c.degradedEvals.Add(1)
	ext := c.External.WorkloadCost(cfg)
	return ext <= c.External.BaselineCost()*(1+c.SlackPct), nil
}
