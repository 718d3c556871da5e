package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/optimizer"
)

// Edge cases for the §3.5.3 prefilter: calibration corner cases,
// external-model/optimizer disagreement near the bound, and heavy
// concurrent contention.

// TestPrefilterZeroSlack: with a 0% cost constraint only the baseline
// configuration itself (and genuinely cost-free merges) can pass; the
// prefilter must not veto the baseline (its external cost equals the
// calibrated bound exactly — the comparison is strict '>'), and any
// accepted result must hold Cost(W, C') <= Cost(W, C).
func TestPrefilterZeroSlack(t *testing.T) {
	f := newSearchFixture(t)
	ext := &ExternalCostModel{Meta: f.db, W: f.w}
	ext.SetBaseline(f.initial)

	pre := &PrefilteredChecker{External: ext, Inner: f.checker(0), SlackPct: 0}
	// The baseline configuration: external cost == baseline, the zero
	// slack window is [0, baseline]. Strictly-greater comparison must
	// let it through to the optimizer, which accepts (cost unchanged).
	ok, err := pre.Accepts(context.Background(), f.initial, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("zero-slack prefilter rejected the baseline configuration")
	}
	if pre.PrefilterRejections() != 0 {
		t.Errorf("baseline was vetoed by the prefilter (%d rejections)", pre.PrefilterRejections())
	}

	// A full zero-slack search still satisfies the (tight) bound.
	res, err := Greedy(f.initial, &MergePairCost{Seek: f.seek}, pre, f.db)
	if err != nil {
		t.Fatal(err)
	}
	final, err := f.opt.WorkloadCost(f.w, optimizer.Configuration(res.Final.Defs()))
	if err != nil {
		t.Fatal(err)
	}
	if final > pre.Inner.U*(1+1e-9) {
		t.Errorf("zero-slack run broke the bound: %v > %v", final, pre.Inner.U)
	}
}

// TestPrefilterUncalibratedPassesThrough: before SetBaseline the
// external bound is unknown (baseline 0) and the prefilter must not
// veto anything — every decision goes to the optimizer.
func TestPrefilterUncalibratedPassesThrough(t *testing.T) {
	f := newSearchFixture(t)
	ext := &ExternalCostModel{Meta: f.db, W: f.w} // no SetBaseline
	pre := &PrefilteredChecker{External: ext, Inner: f.checker(0.10), SlackPct: 0.10}

	// The index-free configuration is the worst case the external model
	// can see; uncalibrated, it must still reach the optimizer.
	empty := NewConfiguration(nil)
	if _, err := pre.Accepts(context.Background(), empty, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if pre.PrefilterRejections() != 0 {
		t.Errorf("uncalibrated prefilter vetoed %d candidates", pre.PrefilterRejections())
	}
	if pre.OptimizerCalls() == 0 {
		t.Error("uncalibrated check never reached the optimizer")
	}
}

// TestPrefilterDisagreementNearBound places candidates near the
// constraint boundary where the coarse external model and the real
// optimizer disagree, and verifies the contract: the prefilter may
// only veto (never accept) on its own, so every configuration it
// passes is still optimizer-verified, and a veto requires the external
// estimate to clear the margin-widened bound.
func TestPrefilterDisagreementNearBound(t *testing.T) {
	f := newSearchFixture(t)
	ext := &ExternalCostModel{Meta: f.db, W: f.w}
	ext.SetBaseline(f.initial)
	inner := f.checker(0.10)
	pre := &PrefilteredChecker{External: ext, Inner: inner, SlackPct: 0.10}

	// Candidate set: drop each index in turn (cost strictly grows, by a
	// different amount per index), a near-boundary family the two models
	// rank differently.
	defs := f.initial.Defs()
	for drop := range defs {
		cand := make([]catalog.IndexDef, 0, len(defs)-1)
		for i, d := range defs {
			if i != drop {
				cand = append(cand, d)
			}
		}
		cfg := NewConfiguration(cand)
		before := pre.PrefilterRejections()
		ok, err := pre.Accepts(context.Background(), cfg, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		vetoed := pre.PrefilterRejections() > before

		optCost, err := f.opt.WorkloadCost(f.w, optimizer.Configuration(cand))
		if err != nil {
			t.Fatal(err)
		}
		optAccepts := optCost <= inner.U
		extCost := ext.WorkloadCost(cfg)
		extBound := ext.BaselineCost() * (1 + 0.10*2.0) // default margin 2

		if vetoed && extCost <= extBound {
			t.Errorf("drop %d: vetoed although external cost %v within bound %v", drop, extCost, extBound)
		}
		if !vetoed && ok != optAccepts {
			// Not vetoed means the decision IS the optimizer's decision.
			t.Errorf("drop %d: passed-through decision %v disagrees with optimizer %v", drop, ok, optAccepts)
		}
		if vetoed && optAccepts {
			// A veto of an optimizer-acceptable configuration is the
			// known §3.5.3 false-negative risk; the margin exists to make
			// it rare. It must at least be a near-bound case, not a clear
			// accept.
			if optCost < inner.U*0.9 {
				t.Errorf("drop %d: prefilter vetoed a clearly acceptable configuration (%v << %v)",
					drop, optCost, inner.U)
			}
		}
	}
}

// TestPrefilterMarginWidensWindow: a larger margin must never veto
// more than a smaller one.
func TestPrefilterMarginWidensWindow(t *testing.T) {
	f := newSearchFixture(t)
	ext := &ExternalCostModel{Meta: f.db, W: f.w}
	ext.SetBaseline(f.initial)

	count := func(margin float64) int64 {
		pre := &PrefilteredChecker{External: ext, Inner: f.checker(0.10), SlackPct: 0.10, Margin: margin}
		// Probe with configurations of increasing external cost:
		// successive prefix subsets of the initial defs.
		defs := f.initial.Defs()
		for n := len(defs); n >= 0; n-- {
			if _, err := pre.Accepts(context.Background(), NewConfiguration(defs[:n]), nil, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		return pre.PrefilterRejections()
	}
	tight, loose := count(1.0), count(4.0)
	if loose > tight {
		t.Errorf("margin 4 vetoed more (%d) than margin 1 (%d)", loose, tight)
	}
	if tight == 0 {
		t.Skip("fixture produced no vetoes; disagreement probe not exercised")
	}
}

// TestPrefilterConcurrentAccepts hammers one checker from many
// goroutines over a mix of pass-through and veto candidates; under
// -race this validates the locking story, and the counters must add
// up exactly.
func TestPrefilterConcurrentAccepts(t *testing.T) {
	f := newSearchFixture(t)
	ext := &ExternalCostModel{Meta: f.db, W: f.w}
	ext.SetBaseline(f.initial)
	inner := f.checker(0.10)
	inner.Parallelism = 2
	pre := &PrefilteredChecker{External: ext, Inner: inner, SlackPct: 0.10}

	// Two candidate classes: the baseline (always passes through) and
	// the empty configuration (externally hopeless — vetoed).
	empty := NewConfiguration(nil)
	const workers = 16
	const perWorker = 8
	var wg sync.WaitGroup
	var firstErr atomic.Value
	var accepts, vetoCalls atomic.Int64
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cfg := f.initial
				veto := (w+i)%2 == 1
				if veto {
					cfg = empty
					vetoCalls.Add(1)
				}
				ok, err := pre.Accepts(context.Background(), cfg, nil, nil, nil)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if veto && ok {
					firstErr.CompareAndSwap(nil, errors.New("hopeless configuration accepted"))
					return
				}
				if !veto {
					if !ok {
						firstErr.CompareAndSwap(nil, errors.New("baseline rejected"))
						return
					}
					accepts.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}
	if got := pre.PrefilterRejections(); got != vetoCalls.Load() {
		t.Errorf("prefilter rejections = %d, want %d", got, vetoCalls.Load())
	}
	if got := accepts.Load(); got != workers*perWorker/2 {
		t.Errorf("accepted pass-throughs = %d, want %d", got, workers*perWorker/2)
	}
}
