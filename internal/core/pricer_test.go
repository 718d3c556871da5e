package core

import (
	"context"
	"testing"
)

func TestIsSubset(t *testing.T) {
	cases := []struct {
		sub, super []string
		want       bool
	}{
		{nil, nil, true},
		{nil, []string{"a"}, true},
		{[]string{"a"}, nil, false},
		{[]string{"a", "c"}, []string{"a", "b", "c"}, true},
		{[]string{"a", "d"}, []string{"a", "b", "c"}, false},
		{[]string{"a", "a"}, []string{"a", "b"}, false}, // sorted-unique input assumed
		{[]string{"b"}, []string{"a", "b", "c"}, true},
		{[]string{"a", "b", "c"}, []string{"a", "b", "c"}, true},
	}
	for _, c := range cases {
		if got := isSubset(c.sub, c.super); got != c.want {
			t.Errorf("isSubset(%v, %v) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

// TestLowerBoundAdmissible: after exact costing of a configuration and
// its sub-configurations, the recorded bound for any smaller cell never
// exceeds that cell's exact cost (cost is monotone non-increasing in
// the index set) — under registration and under window keys.
func TestLowerBoundAdmissible(t *testing.T) {
	rig := tpcdRig(t)
	ctx := context.Background()
	for _, scale := range []float64{0, 0.5} {
		p := rig.doubledUnits(scale)
		// Cost the full configuration first so its cells are recorded as
		// bound entries (supersets of every later cell).
		if _, err := p.WorkloadCostContext(ctx, rig.initial); err != nil {
			t.Fatal(err)
		}
		check := p.NewChecker(0, 0)
		if err := check.lazyInit(); err != nil {
			t.Fatal(err)
		}
		bounded := 0
		for cut := 0; cut <= rig.initial.Len(); cut++ {
			cfg := &Configuration{Indexes: rig.initial.Indexes[:cut]}
			sc := new(priceScratch)
			ixs, rels := p.relevance(sc, cfg)
			lbs := make([]float64, len(p.units))
			for ui := range p.units {
				var keys []string
				for i, ix := range ixs {
					if rels[i].Has(ui) {
						keys = append(keys, ix.Key())
					}
				}
				lbs[ui] = p.lowerBound(ui, keys)
			}
			if _, err := check.price(ctx, sc, cfg, nil, p.all); err != nil {
				t.Fatal(err)
			}
			for ui, lb := range lbs {
				if exact := sc.cells[ui] * p.units[ui].Scale; lb > exact {
					t.Errorf("scale %v cut %d unit %d: lower bound %v exceeds exact cost %v", scale, cut, ui, lb, exact)
				}
				if lb > 0 {
					bounded++
				}
			}
		}
		if bounded == 0 {
			t.Errorf("scale %v: no cell had a bound: nothing was exercised", scale)
		}
	}
}
