package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/optimizer"
)

// TestPricesWideConfigurations: a configuration of more than 64
// indexes, whose relevance no longer fits one word a unit, prices to the
// bit what the optimizer sums over it in sorted-key order, in full and
// as a delta one merge away; a second pass is all hits, and so is none
// of the configurations that differ from it only past its 64th index.
func TestPricesWideConfigurations(t *testing.T) {
	f := newSearchFixture(t)
	cols := []string{"d", "k", "m1", "m2", "m3", "tag", "pad"}
	var defs []catalog.IndexDef
	for _, a := range cols {
		defs = append(defs, def("fact", a))
		for _, b := range cols {
			if a == b {
				continue
			}
			defs = append(defs, def("fact", a, b))
			for _, c := range cols[:2] {
				if c != a && c != b {
					defs = append(defs, def("fact", a, b, c))
				}
			}
		}
	}
	defs = append(defs, def("dim", "k"), def("dim", "name", "k"))
	wide := NewConfiguration(defs)
	if wide.Len() <= 64 {
		t.Fatalf("%d indexes: not wider than a word", wide.Len())
	}
	ctx := context.Background()
	check := f.checker(0)
	check.Prepared = f.pw
	priced := func(what string, cfg *Configuration) {
		t.Helper()
		sorted := cfg.Defs()
		slices.SortFunc(sorted, func(a, b catalog.IndexDef) int { return strings.Compare(a.Key(), b.Key()) })
		want, err := f.opt.WorkloadCostPrepared(f.pw, optimizer.Configuration(sorted))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := check.WorkloadCostContext(ctx, cfg); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: priced %v (error %v), the optimizer sums %v", what, got, err, want)
		}
	}
	priced("first pass", wide)
	priced("second pass", wide)
	if hits, misses, _ := check.CacheStats(); hits != int64(len(f.w.Queries)) || misses != int64(len(f.w.Queries)) {
		t.Errorf("two passes: %d hits, %d misses; want %d each", hits, misses, len(f.w.Queries))
	}
	bykey := slices.Clone(wide.Indexes)
	slices.SortFunc(bykey, func(a, b *Index) int { return strings.Compare(a.Key(), b.Key()) })
	for _, ix := range bykey[64:] {
		priced("without "+ix.Key(), &Configuration{Indexes: slices.DeleteFunc(slices.Clone(wide.Indexes), func(x *Index) bool { return x == ix })})
	}

	a, b := wide.Indexes[1], wide.Indexes[2] // fact(d,k), fact(d,m1)
	m, err := MergeOrdered(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cand := wide.ReplacePair(a, b, m)
	full, err := f.checker(0).WorkloadCostContext(ctx, cand)
	if err != nil {
		t.Fatal(err)
	}
	check.SetBase(wide)
	for _, tc := range []struct {
		u  float64
		ok bool
	}{{full, true}, {math.Nextafter(full, 0), false}} {
		check.U = tc.u
		if ok, err := check.Accepts(ctx, cand, m, a, b); err != nil || ok != tc.ok {
			t.Errorf("delta check at U = %v: %v, %v; want %v (full evaluation %v)", tc.u, ok, err, tc.ok, full)
		}
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		sub, super []uint32
		want       bool
	}{
		{nil, nil, true},
		{nil, []uint32{1}, true},
		{[]uint32{1}, nil, false},
		{[]uint32{1, 3}, []uint32{1, 2, 3}, true},
		{[]uint32{1, 4}, []uint32{1, 2, 3}, false},
		{[]uint32{1, 1}, []uint32{1, 2}, false}, // sorted-unique input assumed
		{[]uint32{2}, []uint32{1, 2, 3}, true},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, true},
		{[]uint32{0, 7}, []uint32{7}, false},
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
			p.relevance(sc, cfg, p.all)
			pis := sc.pis
			lbs := make([]float64, len(p.units))
			for ui := range p.units {
				var ids []uint32
				for _, pi := range pis {
					if pi.rel.Has(ui) {
						ids = append(ids, pi.id)
					}
				}
				lbs[ui] = p.lowerBound(ui, ids)
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
