package core

import (
	"context"
	"errors"
	"math/rand"
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
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0)

	pre := &PrefilteredChecker{External: ext, Inner: f.checker(0)}
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
	res, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, pre, f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := f.opt.WorkloadCostPrepared(f.pw, optimizer.Configuration(res.Final.Defs()))
	if err != nil {
		t.Fatal(err)
	}
	if final > pre.Inner.U*(1+1e-9) {
		t.Errorf("zero-slack run broke the bound: %v > %v", final, pre.Inner.U)
	}
}

// TestPrefilterUncalibratedPassesThrough: on an uncalibrated model the
// external bound is unknown (baseline 0) and the prefilter must not
// veto anything — every decision goes to the optimizer.
func TestPrefilterUncalibratedPassesThrough(t *testing.T) {
	f := newSearchFixture(t)
	ext := &ExternalCostModel{Meta: f.db, W: f.w} // uncalibrated: a bare struct
	pre := &PrefilteredChecker{External: ext, Inner: f.checker(0.10)}

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
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0.10)
	inner := f.checker(0.10)
	pre := &PrefilteredChecker{External: ext, Inner: inner}

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

		optCost, err := f.opt.WorkloadCostPrepared(f.pw, optimizer.Configuration(cand))
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
// more than a smaller one, and the prefilter vetoes what its constant
// margin does.
func TestPrefilterMarginWidensWindow(t *testing.T) {
	f := newSearchFixture(t)
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0.10)

	// Probe with configurations of increasing external cost: successive
	// prefix subsets of the initial defs.
	var probes []*Configuration
	defs := f.initial.Defs()
	for n := len(defs); n >= 0; n-- {
		probes = append(probes, NewConfiguration(defs[:n]))
	}
	count := func(margin float64) int64 {
		var vetoes int64
		for _, cfg := range probes {
			if !ext.Within(cfg, margin) {
				vetoes++
			}
		}
		return vetoes
	}
	tight, mid, loose := count(1.0), count(prefilterMargin), count(4.0)
	if loose > mid || mid > tight {
		t.Errorf("vetoes at margins 1, %v, 4 = %d, %d, %d; a larger margin vetoed more", prefilterMargin, tight, mid, loose)
	}
	pre := &PrefilteredChecker{External: ext, Inner: f.checker(0.10)}
	for _, cfg := range probes {
		if _, err := pre.Accepts(context.Background(), cfg, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := pre.PrefilterRejections(); got != mid {
		t.Errorf("prefilter vetoed %d probes, Within at margin %v vetoes %d", got, prefilterMargin, mid)
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
	ext := NewExternalCostModel(f.db, f.w, f.initial, 0.10)
	inner := f.checker(0.10)
	inner.Parallelism = 2
	pre := &PrefilteredChecker{External: ext, Inner: inner}

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

// TestPrefilterVetoIsDegradedReject: the prefilter and degraded mode
// ask the one question, External.Within. Over random merge candidates —
// random walks of pairwise merges, some with an index dropped so that
// the external cost climbs past the bound — the prefilter vetoes exactly
// the configurations Within at its margin rejects, a failed check's
// degraded decision is Within at margin 1, and both decide as the
// separate formulas each carried before did: veto iff
// ext > base·(1+slack·margin), degraded accept iff ext ≤ base·(1+slack).
func TestPrefilterVetoIsDegradedReject(t *testing.T) {
	f := newSearchFixture(t)
	rng := rand.New(rand.NewSource(7))
	mp := &MergePairCost{Seek: f.seek}
	var cands []*Configuration
	for walk := 0; walk < 30; walk++ {
		cur := f.initial
		for step := 0; step < 4; step++ {
			pairs := cur.PairsByTable()
			if len(pairs) == 0 {
				break
			}
			p := pairs[rng.Intn(len(pairs))]
			m, err := mp.Merge(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			cur = cur.ReplacePair(p[0], p[1], m)
			cands = append(cands, cur)
			if defs := cur.Defs(); len(defs) > 1 && rng.Intn(3) == 0 {
				drop := rng.Intn(len(defs))
				cands = append(cands, NewConfiguration(append(defs[:drop:drop], defs[drop+1:]...)))
			}
		}
	}
	var vetoes, accepts int
	for _, slack := range []float64{0, 0.05, 0.10, 0.30} {
		ext := NewExternalCostModel(f.db, f.w, f.initial, slack)
		pre := &PrefilteredChecker{External: ext, Inner: f.checker(slack)}
		degraded := &ResilientChecker{Inner: &scriptedChecker{steady: errors.New("optimizer down")}, External: ext}
		base := ext.BaselineCost()
		for i, cfg := range cands {
			before := pre.PrefilterRejections()
			if _, err := pre.Accepts(context.Background(), cfg, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			vetoed := pre.PrefilterRejections() > before
			ok, err := degraded.Accepts(context.Background(), cfg, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if vetoed == ext.Within(cfg, prefilterMargin) || ok != ext.Within(cfg, 1) {
				t.Errorf("slack %v, candidate %d: prefilter veto %v, degraded accept %v disagree with Within", slack, i, vetoed, ok)
			}
			c := ext.WorkloadCost(cfg)
			if ok != (c <= base*(1+slack)) {
				t.Errorf("slack %v, candidate %d: degraded accept %v, external %v against bound %v", slack, i, ok, c, base*(1+slack))
			}
			if vetoed != (c > base*(1+slack*prefilterMargin)) {
				t.Errorf("slack %v, candidate %d: prefilter veto %v, external %v against bound %v", slack, i, vetoed, c, base*(1+slack*prefilterMargin))
			}
			if vetoed {
				vetoes++
			} else {
				accepts++
			}
		}
	}
	if vetoes == 0 || accepts == 0 {
		t.Fatalf("candidates exercise one side only: %d vetoes, %d pass-throughs", vetoes, accepts)
	}
	t.Logf("%d candidates × 4 constraints: %d vetoes, %d pass-throughs", len(cands), vetoes, accepts)
}
