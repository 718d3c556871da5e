package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"indexmerge/internal/catalog"
)

// countingMeta is an ExternalMeta that counts the reads made through it.
type countingMeta struct {
	ExternalMeta
	reads atomic.Int64
}

func (c *countingMeta) Schema() *catalog.Schema {
	c.reads.Add(1)
	return c.ExternalMeta.Schema()
}

func (c *countingMeta) TableRowCount(table string) int64 {
	c.reads.Add(1)
	return c.ExternalMeta.TableRowCount(table)
}

// pricePass prices cfg once on a meta of its own: the external cost and
// the reads one pass over the workload makes.
func (f *searchFixture) pricePass(t *testing.T, cfg *Configuration) (float64, int64) {
	t.Helper()
	meta := &countingMeta{ExternalMeta: f.db}
	cost := (&ExternalCostModel{Meta: meta, W: f.w}).WorkloadCost(cfg)
	if meta.reads.Load() == 0 {
		t.Fatal("pricing a configuration read no metadata")
	}
	return cost, meta.reads.Load()
}

// TestExternalModelCalibratesOnFirstUse: NewExternalCostModel reads
// nothing; the first BaselineCost or Within prices the initial
// configuration in one pass, and no later call prices it again; every
// answer is the one an eagerly calibrated model gives, to the bit.
func TestExternalModelCalibratesOnFirstUse(t *testing.T) {
	f := newSearchFixture(t)
	base, pass := f.pricePass(t, f.initial)
	smaller := NewConfiguration(f.initial.Defs()[:2])
	smallCost, smallPass := f.pricePass(t, smaller)
	empty := NewConfiguration(nil)
	emptyCost, emptyPass := f.pricePass(t, empty)
	eager := func(cost, margin float64) bool { return cost <= base*(1+0.10*margin) }

	for _, first := range []string{"BaselineCost", "Within"} {
		t.Run(first, func(t *testing.T) {
			meta := &countingMeta{ExternalMeta: f.db}
			m := NewExternalCostModel(meta, f.w, f.initial, 0.10)
			if n := meta.reads.Load(); n != 0 {
				t.Fatalf("construction made %d reads, want 0", n)
			}
			var want int64
			switch first {
			case "BaselineCost":
				if got := m.BaselineCost(); math.Float64bits(got) != math.Float64bits(base) {
					t.Errorf("BaselineCost = %v, eager %v", got, base)
				}
				want = pass
			case "Within":
				if got := m.Within(smaller, 1); got != eager(smallCost, 1) {
					t.Errorf("Within(smaller, 1) = %v, eager %v", got, !got)
				}
				want = pass + smallPass
			}
			if n := meta.reads.Load(); n != want {
				t.Errorf("first %s made %d reads, want %d: one calibration pass plus the configuration asked about", first, n, want)
			}

			// Later calls price what they are asked about and nothing else.
			if got := m.BaselineCost(); math.Float64bits(got) != math.Float64bits(base) {
				t.Errorf("BaselineCost = %v, eager %v", got, base)
			}
			for _, margin := range []float64{0, 1, 2} {
				if got := m.Within(empty, margin); got != eager(emptyCost, margin) {
					t.Errorf("Within(empty, %v) = %v, eager %v", margin, got, !got)
				}
			}
			if n := meta.reads.Load(); n != want+3*emptyPass {
				t.Errorf("after the first call: %d reads, want %d", n, want+3*emptyPass)
			}
		})
	}
}

// TestExternalModelConcurrentFirstUse: goroutines racing to the first
// BaselineCost or Within calibrate the model once and see one baseline.
// Run under -race this also checks the calibration is published safely.
func TestExternalModelConcurrentFirstUse(t *testing.T) {
	f := newSearchFixture(t)
	base, pass := f.pricePass(t, f.initial)
	meta := &countingMeta{ExternalMeta: f.db}
	m := NewExternalCostModel(meta, f.w, f.initial, 0.10)

	const workers = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		seen  [workers]float64
		ok    [workers]bool
	)
	start.Add(1)
	for i := 0; i < workers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			if i%2 == 0 {
				seen[i] = m.BaselineCost()
			} else {
				ok[i] = m.Within(f.initial, 1)
				seen[i] = m.BaselineCost()
			}
		}(i)
	}
	start.Done()
	done.Wait()

	for i, got := range seen {
		if math.Float64bits(got) != math.Float64bits(base) {
			t.Errorf("worker %d saw baseline %v, eager %v", i, got, base)
		}
		if i%2 == 1 && !ok[i] {
			t.Errorf("worker %d: the initial configuration is not within its own bound", i)
		}
	}
	// One calibration, and one pricing of the initial configuration per
	// Within.
	if n, want := meta.reads.Load(), pass*(1+workers/2); n != want {
		t.Errorf("%d reads, want %d: the model calibrated more than once", n, want)
	}
}

// TestExternalModelBareStructAcceptsEverything: a model built without
// NewExternalCostModel has no initial configuration to calibrate
// against: its baseline is 0, Within accepts every configuration, and
// neither reads anything.
func TestExternalModelBareStructAcceptsEverything(t *testing.T) {
	f := newSearchFixture(t)
	meta := &countingMeta{ExternalMeta: f.db}
	m := &ExternalCostModel{Meta: meta, W: f.w}
	if got := m.BaselineCost(); got != 0 {
		t.Errorf("bare model's baseline = %v, want 0", got)
	}
	for _, cfg := range []*Configuration{NewConfiguration(nil), f.initial} {
		for _, margin := range []float64{0, 1} {
			if !m.Within(cfg, margin) {
				t.Errorf("bare model refused a %d-index configuration at margin %v", cfg.Len(), margin)
			}
		}
	}
	if n := meta.reads.Load(); n != 0 {
		t.Errorf("bare model made %d reads, want 0", n)
	}
}
