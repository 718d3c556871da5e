package faults

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountWindow(t *testing.T) {
	defer Reset()
	rs := Install(Rule{Point: OptimizerCost, Mode: ModeError, After: 2, Count: 3})
	id := rs[0].ID

	var errsSeen int
	for i := 0; i < 10; i++ {
		if err := Inject(OptimizerCost); err != nil {
			errsSeen++
			var fe *Error
			if !errors.As(err, &fe) || fe.RuleID != id || fe.Point != OptimizerCost {
				t.Fatalf("injected error is not this rule's *Error: %v", err)
			}
			if i < 2 || i > 4 {
				t.Fatalf("fault fired on call %d, want window [2,5)", i)
			}
		}
	}
	if errsSeen != 3 {
		t.Fatalf("fired %d times, want 3", errsSeen)
	}
	if got := Fired(id); got != 3 {
		t.Fatalf("Fired(%s) = %d, want 3", id, got)
	}
}

func TestPointAddressing(t *testing.T) {
	defer Reset()
	Install(Rule{Point: StorageHeapGet, Mode: ModeError})
	if err := Inject(OptimizerCost); err != nil {
		t.Fatalf("rule on %s fired at %s", StorageHeapGet, OptimizerCost)
	}
	if err := Inject(StorageHeapGet); err == nil {
		t.Fatalf("rule did not fire at its own point")
	}
}

func TestHitSkipsErrorRules(t *testing.T) {
	defer Reset()
	rs := Install(Rule{Point: StatsSample, Mode: ModeError})
	Hit(StatsSample) // must not panic, must not consume the window
	if got := Fired(rs[0].ID); got != 0 {
		t.Fatalf("error rule fired %d times at a Hit-only site", got)
	}
	if err := Inject(StatsSample); err == nil {
		t.Fatalf("window consumed by Hit")
	}
}

func TestPanicMode(t *testing.T) {
	defer Reset()
	Install(Rule{Point: CostCacheDo, Mode: ModePanic, Msg: "boom"})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic")
		}
		fe, ok := r.(*Error)
		if !ok || !fe.Panicked {
			t.Fatalf("panic value %v, want *Error with Panicked", r)
		}
	}()
	_ = Inject(CostCacheDo)
}

func TestLatencyMode(t *testing.T) {
	defer Reset()
	Install(Rule{Point: OptimizerCost, Mode: ModeLatency, Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := Inject(OptimizerCost); err != nil {
		t.Fatalf("latency rule returned error: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("no latency injected (took %v)", d)
	}
}

func TestConcurrentInject(t *testing.T) {
	defer Reset()
	rs := Install(Rule{Point: OptimizerCost, Mode: ModeError, After: 50, Count: 25})
	var wg sync.WaitGroup
	var fired sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := Inject(OptimizerCost); err != nil {
					fired.Store([2]int{g, i}, true)
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	fired.Range(func(_, _ any) bool { n++; return true })
	if n != 25 {
		t.Fatalf("fired %d times under concurrency, want exactly 25", n)
	}
	if got := Fired(rs[0].ID); got != 25 {
		t.Fatalf("Fired = %d, want 25", got)
	}
}

func TestParseRules(t *testing.T) {
	rs, err := ParseRules("point=optimizer.cost,mode=error,after=3,count=2 ; mode=latency,latency=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rs))
	}
	r := rs[0]
	if r.Point != OptimizerCost || r.Mode != ModeError || r.After != 3 || r.Count != 2 {
		t.Fatalf("rule 0 parsed wrong: %+v", r)
	}
	r = rs[1]
	if r.Point != "" || r.Mode != ModeLatency || r.Latency != 5*time.Millisecond {
		t.Fatalf("rule 1 parsed wrong: %+v", r)
	}
	for _, bad := range []string{"", "mode=nope", "after=x", "wat=1", "latency=zzz"} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) accepted", bad)
		}
	}
	// Rules fire on count windows only: the probabilistic keys are gone
	// and refused like any unknown field.
	for spec, key := range map[string]string{
		"mode=panic,prob=0.01":                      "prob",
		"point=optimizer.cost,mode=error,seed=7":    "seed",
		"mode=latency,latency=5ms,prob=0.25,seed=7": "prob",
	} {
		if _, err := ParseRules(spec); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown rule field %q", key)) {
			t.Errorf("ParseRules(%q) = %v, want the unknown field %q refused", spec, err, key)
		}
	}
	// A point no site declares would never fire: a deleted point, a
	// misspelled one, an explicit empty one.
	for _, point := range []string{"quota.admit", "quota.memory", "optimizer.costs", ""} {
		spec := "point=" + point + ",mode=error"
		if _, err := ParseRules(spec); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown point %q", point)) {
			t.Errorf("ParseRules(%q) = %v, want the point refused", spec, err)
		}
	}
	for _, p := range points {
		if rs, err := ParseRules("point=" + string(p)); err != nil || rs[0].Point != p {
			t.Errorf("ParseRules(point=%s) = %+v, %v", p, rs, err)
		}
	}
}

// TestParseRulesRefusesTransient: every injected fault is permanent to
// the costing path, which runs each costing once; a spec that asks for
// a retryable fault is refused, not silently read as a permanent one.
func TestParseRulesRefusesTransient(t *testing.T) {
	for _, spec := range []string{
		"point=optimizer.cost,mode=error,transient,after=40,count=2",
		"point=optimizer.cost,mode=error,transient=true",
		"point=optimizer.cost,mode=panic,transient=false",
	} {
		if _, err := ParseRules(spec); err == nil || !strings.Contains(err.Error(), `"transient"`) {
			t.Errorf("ParseRules(%q) = %v, want the unknown field \"transient\" refused", spec, err)
		}
	}
}

// TestScaleMode: Factor multiplies the firing scale rules' factors,
// respects count windows, and defaults to 1; Inject ignores scale
// rules entirely — they neither fire nor consume their windows there.
func TestScaleMode(t *testing.T) {
	defer Reset()
	if got := Factor(ContinuousObserve); got != 1 {
		t.Fatalf("Factor with no rules = %v, want 1", got)
	}
	rs := Install(
		Rule{ID: "s2", Point: ContinuousObserve, Mode: ModeScale, Scale: 2, Count: 2},
		Rule{ID: "s3", Point: ContinuousObserve, Mode: ModeScale, Scale: 3, Count: 1},
		Rule{ID: "other", Point: OptimizerCost, Mode: ModeScale, Scale: 100},
	)

	// Error-capable injection at the same point must not consume the
	// scale windows (and must not inject anything).
	for i := 0; i < 5; i++ {
		if err := Inject(ContinuousObserve); err != nil {
			t.Fatalf("Inject fired a scale rule: %v", err)
		}
	}
	for _, id := range []string{"s2", "s3"} {
		if n := Fired(id); n != 0 {
			t.Fatalf("Inject consumed scale rule %s's window (%d fires)", id, n)
		}
	}

	// Call 1: both in-window rules fire and multiply; the other-point
	// rule never matches.
	if got := Factor(ContinuousObserve); got != 6 {
		t.Fatalf("Factor call 1 = %v, want 2*3 = 6", got)
	}
	// Call 2: s3's window (count 1) is spent.
	if got := Factor(ContinuousObserve); got != 2 {
		t.Fatalf("Factor call 2 = %v, want 2", got)
	}
	// Call 3: both spent.
	if got := Factor(ContinuousObserve); got != 1 {
		t.Fatalf("Factor call 3 = %v, want 1", got)
	}
	if Fired("s2") != 2 || Fired("s3") != 1 {
		t.Fatalf("fired counts = %d/%d, want 2/1", Fired("s2"), Fired("s3"))
	}
	if rs[2].ID != "other" || Fired("other") != 0 {
		t.Fatalf("other-point scale rule fired %d times at the wrong point", Fired("other"))
	}

	// A zero/negative scale is inert rather than zeroing measurements.
	Reset()
	Install(Rule{Point: ContinuousObserve, Mode: ModeScale, Scale: 0})
	if got := Factor(ContinuousObserve); got != 1 {
		t.Fatalf("Factor with inert scale = %v, want 1", got)
	}
}

// TestParseRulesScale: the flag syntax round-trips scale rules.
func TestParseRulesScale(t *testing.T) {
	rs, err := ParseRules("point=continuous.observe,mode=scale,scale=25,count=1")
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.Point != ContinuousObserve || r.Mode != ModeScale || r.Scale != 25 || r.Count != 1 {
		t.Fatalf("scale rule parsed wrong: %+v", r)
	}
	if _, err := ParseRules("mode=scale,scale=zzz"); err == nil {
		t.Error("bad scale value accepted")
	}
}
