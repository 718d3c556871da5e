package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// PanicError is a panic recovered from the costing path, converted to
// an error so a crashing cost evaluation fails one constraint check
// instead of the process.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: costing panicked: %v", e.Value)
}

// ResilientChecker is the one failure policy of in-process costing:
// every check runs once behind the panic boundary, and a check that
// fails for any reason but the caller's own context is answered by the
// coarse §3.5.2 external model instead of failing the search. Results
// produced with any degraded decision carry the Degraded flag, so
// callers can tell a cost-guaranteed configuration from a best-effort
// one. Without a calibrated External the failure comes back as is.
//
// Safe for concurrent Accepts calls (the wrapped checkers and the
// external model are, and the counters are atomic).
type ResilientChecker struct {
	// Inner is the optimizer-backed checker being protected.
	Inner ConstraintChecker
	// External, when non-nil and calibrated with the constraint used to
	// build Inner (NewExternalCostModel), supplies degraded-mode
	// decisions: a candidate is accepted iff External.Within(cfg, 1) —
	// the same constraint translation the §3.5.3 prefilter uses, with
	// margin 1.
	External *ExternalCostModel

	degradedChecks  atomic.Int64
	panicsRecovered atomic.Int64
}

// OptimizerCalls implements ConstraintChecker.
func (c *ResilientChecker) OptimizerCalls() int64 { return c.Inner.OptimizerCalls() }

// DegradedChecks counts constraint decisions served by the external
// model instead of the optimizer.
func (c *ResilientChecker) DegradedChecks() int64 { return c.degradedChecks.Load() }

// PanicsRecovered counts costing panics converted to errors.
func (c *ResilientChecker) PanicsRecovered() int64 { return c.panicsRecovered.Load() }

// Degraded reports whether any decision so far was degraded; a search
// result built over a degraded checker carries no optimizer-backed
// cost guarantee.
func (c *ResilientChecker) Degraded() bool { return c.degradedChecks.Load() > 0 }

// SetBase implements ConstraintChecker: the inner checker prices
// candidates against the search's current configuration.
func (c *ResilientChecker) SetBase(cfg *Configuration) { c.Inner.SetBase(cfg) }

// Accepts implements ConstraintChecker.
func (c *ResilientChecker) Accepts(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	var ok bool
	err := c.Run(ctx, func(ctx context.Context) (err error) {
		ok, err = c.Inner.Accepts(ctx, cfg, m, a, b)
		return err
	})
	if err == nil {
		return ok, nil
	}
	if ctx.Err() != nil || c.External == nil || c.External.BaselineCost() <= 0 {
		return false, err
	}
	c.degradedChecks.Add(1)
	return c.External.Within(cfg, 1), nil
}

// Run runs fn once behind the panic boundary: a panic on this goroutine
// becomes a *PanicError, and so does one on a costing worker goroutine
// (EvalEach converts it there); either counts in PanicsRecovered. Every
// constraint check runs through it, and so does the costing a caller
// does around a search (the facade's baseline, Seek-Cost and final
// costing). Once ctx is done, any failure is ctx.Err(). The degraded
// fallback is not consulted: what a failure means is the caller's
// decision.
func (c *ResilientChecker) Run(ctx context.Context, fn func(ctx context.Context) error) error {
	err := safeEval(func(int) error { return fn(ctx) }, 0)
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
	return err
}
