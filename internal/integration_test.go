// Package internal_test exercises the full pipeline end to end: data
// generation → optimizer → executor → advisor → index merging.
package internal_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"indexmerge/internal/advisor"
	"indexmerge/internal/core"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/exec"
	"indexmerge/internal/optimizer"
	sqlpkg "indexmerge/internal/sql"
	"indexmerge/internal/value"
	"indexmerge/internal/workload"
)

func buildTinyTPCD(t testing.TB) *engine.Database {
	t.Helper()
	db, err := datagen.BuildTPCD(datagen.ScaledTPCD(0.25), 42)
	if err != nil {
		t.Fatalf("BuildTPCD: %v", err)
	}
	return db
}

func TestEndToEndTPCD(t *testing.T) {
	db := buildTinyTPCD(t)
	w, err := datagen.TPCDWorkload(db.Schema())
	if err != nil {
		t.Fatalf("TPCDWorkload: %v", err)
	}
	if w.Len() != datagen.TPCDQueryCount {
		t.Fatalf("expected %d queries, got %d", datagen.TPCDQueryCount, w.Len())
	}
	opt := optimizer.New(db)

	// Every query must plan and execute with no indexes.
	for i, q := range w.Queries {
		plan, err := opt.Optimize(q.Stmt, nil)
		if err != nil {
			t.Fatalf("q%d optimize: %v", i+1, err)
		}
		if plan.Cost <= 0 {
			t.Errorf("q%d: non-positive cost %v", i+1, plan.Cost)
		}
		if _, err := exec.Run(db, plan); err != nil {
			t.Fatalf("q%d execute: %v\nplan:\n%s", i+1, err, plan.Explain())
		}
	}

	// Per-query tuning must strictly improve some queries.
	adv := advisor.New(db, opt)
	defs, err := adv.TuneWorkload(w)
	if err != nil {
		t.Fatalf("TuneWorkload: %v", err)
	}
	if len(defs) == 0 {
		t.Fatal("advisor recommended no indexes for the TPC-D workload")
	}

	baseCost, err := opt.WorkloadCost(w, nil)
	if err != nil {
		t.Fatalf("WorkloadCost(no indexes): %v", err)
	}
	tunedCost, err := opt.WorkloadCost(w, optimizer.Configuration(defs))
	if err != nil {
		t.Fatalf("WorkloadCost(tuned): %v", err)
	}
	if tunedCost >= baseCost {
		t.Fatalf("tuned cost %v not below base cost %v", tunedCost, baseCost)
	}

	// Greedy merging must reduce storage while respecting the bound.
	initial := core.NewConfiguration(defs)
	pw, err := opt.PrepareWorkload(w)
	if err != nil {
		t.Fatalf("PrepareWorkload: %v", err)
	}
	seek, err := core.ComputeSeekCostsPrepared(opt, pw, initial)
	if err != nil {
		t.Fatalf("ComputeSeekCostsPrepared: %v", err)
	}
	check := core.NewOptimizerChecker(opt, w, tunedCost, 0.10)
	check.Prepared = pw
	res, err := core.Greedy(initial, &core.MergePairCost{Seek: seek}, check, db)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if res.FinalBytes > res.InitialBytes {
		t.Errorf("merged configuration grew: %d -> %d", res.InitialBytes, res.FinalBytes)
	}
	if err := core.ValidateMinimalMerged(initial, res.Final); err != nil {
		t.Errorf("result not a minimal merged configuration: %v", err)
	}
	finalCost, err := opt.WorkloadCost(w, optimizer.Configuration(res.Final.Defs()))
	if err != nil {
		t.Fatalf("WorkloadCost(final): %v", err)
	}
	if finalCost > check.U*1.0000001 {
		t.Errorf("final cost %v exceeds bound %v", finalCost, check.U)
	}
	t.Logf("initial: %d indexes, %d bytes; final: %d indexes, %d bytes (%.1f%% saved); cost %.1f -> %.1f (bound %.1f)",
		initial.Len(), res.InitialBytes, res.Final.Len(), res.FinalBytes, 100*res.StorageReduction(), tunedCost, finalCost, check.U)
}

func TestEndToEndSyntheticComplexWorkload(t *testing.T) {
	spec := datagen.Synthetic1Spec()
	spec.RowsPer = 1500
	db, err := datagen.BuildSynthetic(spec)
	if err != nil {
		t.Fatalf("BuildSynthetic: %v", err)
	}
	w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Queries: 15, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opt := optimizer.New(db)
	for i, q := range w.Queries {
		plan, err := opt.Optimize(q.Stmt, nil)
		if err != nil {
			t.Fatalf("q%d optimize: %v\nsql: %s", i, err, q.Stmt)
		}
		if _, err := exec.Run(db, plan); err != nil {
			t.Fatalf("q%d execute: %v\nsql: %s\nplan:\n%s", i, err, q.Stmt, plan.Explain())
		}
	}
}

// TestPlanMatchesNaiveEvaluation cross-checks optimizer plans (with
// indexes materialized) against the no-index table-scan plan: same
// query, same rows.
func TestPlanMatchesNaiveEvaluation(t *testing.T) {
	db := buildTinyTPCD(t)
	w, err := datagen.TPCDWorkload(db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(db)
	adv := advisor.New(db, opt)
	defs, err := adv.TuneWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(defs); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	cfg := optimizer.Configuration(defs)
	for i, q := range w.Queries {
		fancy, err := opt.Optimize(q.Stmt, cfg)
		if err != nil {
			t.Fatalf("q%d optimize: %v", i+1, err)
		}
		naive, err := opt.Optimize(q.Stmt, nil)
		if err != nil {
			t.Fatalf("q%d naive optimize: %v", i+1, err)
		}
		got, err := exec.Run(db, fancy)
		if err != nil {
			t.Fatalf("q%d run indexed plan: %v\nplan:\n%s", i+1, err, fancy.Explain())
		}
		want, err := exec.Run(db, naive)
		if err != nil {
			t.Fatalf("q%d run naive plan: %v", i+1, err)
		}
		// Multiset comparison: ties under ORDER BY may legally appear in
		// any relative order, so sortedness is verified separately.
		if !sameResults(got, want, false) {
			t.Errorf("q%d: indexed plan returned %d rows, naive %d rows\nsql: %s\nindexed plan:\n%s",
				i+1, len(got.Rows), len(want.Rows), q.Stmt, fancy.Explain())
		}
		if err := checkOrdered(got, q.Stmt.OrderBy); err != nil {
			t.Errorf("q%d: %v\nsql: %s", i+1, err, q.Stmt)
		}
	}
}

// checkOrdered verifies a result respects its ORDER BY keys.
func checkOrdered(res *exec.Result, order []sqlpkg.OrderItem) error {
	if len(order) == 0 {
		return nil
	}
	idx := make([]int, 0, len(order))
	desc := make([]bool, 0, len(order))
	for _, o := range order {
		found := -1
		for i, c := range res.Columns {
			if c == o.Col.String() || strings.HasSuffix(c, "."+o.Col.Column) || c == o.Col.Column {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("order column %s missing from result columns %v", o.Col, res.Columns)
		}
		idx = append(idx, found)
		desc = append(desc, o.Desc)
	}
	for r := 1; r < len(res.Rows); r++ {
		for k, ci := range idx {
			c := res.Rows[r-1][ci].Compare(res.Rows[r][ci])
			if desc[k] {
				c = -c
			}
			if c < 0 {
				break // strictly ordered on this key
			}
			if c > 0 {
				return fmt.Errorf("rows %d and %d out of order on key %d", r-1, r, k)
			}
		}
	}
	return nil
}

// sameResults compares result sets; when ordered is false the rows are
// compared as multisets.
func sameResults(a, b *exec.Result, ordered bool) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	toStrings := func(res *exec.Result) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			s := ""
			for _, v := range r {
				// Round floats: different plans sum in different orders
				// and float addition is not associative.
				if v.Kind() == value.Float {
					s += fmt.Sprintf("%.3f|", v.Float())
				} else {
					s += v.String() + "|"
				}
			}
			out[i] = s
		}
		return out
	}
	as, bs := toStrings(a), toStrings(b)
	if !ordered {
		sort.Strings(as)
		sort.Strings(bs)
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
