package indexmerge

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"indexmerge/internal/core"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/datagen"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/workload"
	"indexmerge/internal/wscale"
)

// mergerFixture builds a TPC-D database, the 17-query workload, and a
// per-query-tuned initial configuration.
func mergerFixture(t testing.TB) (*Database, *Workload, *Merger, []IndexDef) {
	t.Helper()
	db, err := datagen.BuildTPCD(datagen.ScaledTPCD(0.12), 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := datagen.TPCDWorkload(db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(db, w)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := m.InitialConfiguration(context.Background(), 0, 0, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) < 4 {
		t.Fatalf("tuning produced only %d indexes", len(defs))
	}
	return db, w, m, defs
}

// mergeKey collapses every payload-visible field of a result into one
// comparable string. Float fields compare by bit pattern.
func mergeKey(r *MergeResult) string {
	return fmt.Sprintf("init=%s final=%s steps=%v ib=%d fb=%d ce=%d oc=%d cx=%d ic=%016x fc=%016x bound=%016x tmpl=%d th=%d tm=%d pruned=%d deg=%v",
		r.Initial.Signature(), r.Final.Signature(), r.Steps,
		r.InitialBytes, r.FinalBytes,
		r.CostEvaluations, r.OptimizerCalls, r.ConfigsExplored,
		math.Float64bits(r.InitialCost), math.Float64bits(r.FinalCost), math.Float64bits(r.Bound),
		r.Templates, r.CostTableHits, r.CostTableMisses, r.PrunedChecks, r.Degraded)
}

func TestNewMergerValidation(t *testing.T) {
	db := NewDatabase()
	if _, err := NewMerger(db, &Workload{}); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := NewMerger(db, nil); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestMergeDefsDefaultOptions(t *testing.T) {
	db, _, m, defs := mergerFixture(t)
	res, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalBytes > res.InitialBytes {
		t.Error("default merge grew storage")
	}
	if res.CostIncrease() > 0.10+1e-9 {
		t.Errorf("default 10%% constraint violated: %v", res.CostIncrease())
	}
	if res.Bound <= 0 {
		t.Error("bound not recorded")
	}
	report := res.Report()
	for _, want := range []string{"indexes:", "storage:", "cost:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	_ = db
}

func TestMergeRequiresIndexes(t *testing.T) {
	db, w, _, _ := mergerFixture(t)
	db.DropAllIndexes()
	m, err := NewMerger(db, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MergeContext(context.Background(), MergeOptions{}); err == nil {
		t.Error("Merge with no materialized indexes should error")
	}
}

func TestMergeUsesMaterializedIndexes(t *testing.T) {
	db, _, m, defs := mergerFixture(t)
	if err := db.Materialize(defs[:4]); err != nil {
		t.Fatal(err)
	}
	res, err := m.MergeContext(context.Background(), MergeOptions{CostConstraint: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Initial.Len() != 4 {
		t.Errorf("initial from materialized = %d indexes, want 4", res.Initial.Len())
	}
}

func TestMergeOptionVariants(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	small := defs
	if len(small) > 6 {
		small = small[:6]
	}
	variants := []MergeOptions{
		{MergePair: MergePairSyntactic, CostConstraint: 0.10},
		{CostModel: NoCost},
		{CostModel: PrefilteredOptimizerCost, CostConstraint: 0.10},
		{Search: ExhaustiveSearch, CostConstraint: 0.10},
		{MergePair: MergePairExhaustive, CostConstraint: 0.10},
	}
	for i, opts := range variants {
		res, err := m.MergeDefsContext(context.Background(), small, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if res.FinalBytes > res.InitialBytes {
			t.Errorf("variant %d grew storage", i)
		}
		// Optimizer-bounded variants must honor the bound.
		if opts.CostModel != NoCost && res.Bound > 0 && res.FinalCost > res.Bound*(1+1e-9) {
			t.Errorf("variant %d: cost %v > bound %v", i, res.FinalCost, res.Bound)
		}
	}
}

func TestWorkloadCostMonotoneInIndexes(t *testing.T) {
	_, _, m, defs := mergerFixture(t)
	none, err := m.WorkloadCost(nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := m.WorkloadCost(defs)
	if err != nil {
		t.Fatal(err)
	}
	if all >= none {
		t.Errorf("indexes did not reduce workload cost: %v vs %v", all, none)
	}
}

// TestMergerRefusesDefsTheSchemaLacks: a definition naming a column or
// a table the database does not have is an error from every entry point
// that takes definitions, naming the index and what it lacks — not a
// price for the index without the column, or for no index at all.
func TestMergerRefusesDefsTheSchemaLacks(t *testing.T) {
	db, err := datagen.BuildNamed("tpcd", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Queries: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(db, w)
	if err != nil {
		t.Fatal(err)
	}
	good := IndexDef{Name: "ok", Table: "lineitem", Columns: []string{"l_shipdate"}}
	if _, err := m.WorkloadCost([]IndexDef{good}); err != nil {
		t.Fatalf("a definition the schema has: %v", err)
	}
	for _, c := range []struct {
		def  IndexDef
		what string
	}{
		{IndexDef{Name: "trailing", Table: "lineitem", Columns: []string{"l_shipdate", "l_nosuchcol"}}, "lineitem.l_nosuchcol"},
		{IndexDef{Name: "leading", Table: "lineitem", Columns: []string{"l_nosuchcol", "l_shipdate"}}, "lineitem.l_nosuchcol"},
		{IndexDef{Name: "notable", Table: "nosuchtable", Columns: []string{"x"}}, `"nosuchtable"`},
	} {
		defs := []IndexDef{good, c.def}
		calls := map[string]func() error{
			"WorkloadCost": func() error { _, err := m.WorkloadCost(defs); return err },
			"MergeDefsContext": func() error {
				_, err := m.MergeDefsContext(context.Background(), defs, MergeOptions{})
				return err
			},
			"MergeDualContext": func() error {
				_, err := m.MergeDualContext(context.Background(), defs, 1<<30)
				return err
			},
		}
		for name, call := range calls {
			err := call()
			if err == nil || !strings.Contains(err.Error(), `"`+c.def.Name+`"`) || !strings.Contains(err.Error(), c.what) {
				t.Errorf("%s with %s: error %v, want one naming %q and %s", name, c.def, err, c.def.Name, c.what)
			}
		}
	}
}

// TestMergeDualSpendsWhatItReports: a dual run reports its costings and
// the optimizer calls they took, and calls the optimizer for nothing
// else but the Seek-Cost statistics MergePair-Cost reads — no baseline
// pass over the workload, which the dual never reads.
func TestMergeDualSpendsWhatItReports(t *testing.T) {
	db, _, m, defs := mergerFixture(t)
	ctx := context.Background()
	pw, err := m.PreparedWorkload()
	if err != nil {
		t.Fatal(err)
	}
	opt := m.Optimizer()
	before := opt.InvocationCount()
	if _, err := core.ComputeSeekCostsPrepared(opt, pw, core.NewConfiguration(defs)); err != nil {
		t.Fatal(err)
	}
	seek := opt.InvocationCount() - before

	before = opt.InvocationCount()
	res, err := m.MergeDualContext(ctx, defs, db.ConfigurationBytes(defs)/2)
	if err != nil {
		t.Fatal(err)
	}
	spent := opt.InvocationCount() - before
	if res.ConfigsExplored == 0 || res.CostEvaluations != res.ConfigsExplored+1 {
		t.Errorf("cost evaluations %d, configs explored %d: want explored + 1 (the initial costing)", res.CostEvaluations, res.ConfigsExplored)
	}
	if res.OptimizerCalls == 0 || spent != seek+res.OptimizerCalls {
		t.Errorf("the run called the optimizer %d times, Seek-Cost takes %d and the search reports %d", spent, seek, res.OptimizerCalls)
	}
}

func TestPublicSchemaConstruction(t *testing.T) {
	db := NewDatabase()
	tab, err := NewTable("x", []Column{
		{Name: "a", Type: IntKind},
		{Name: "s", Type: StringKind, Width: 5},
		{Name: "f", Type: FloatKind},
		{Name: "d", Type: DateKind},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("x", Row{NewInt(1), NewString("ab"), NewFloat(1.5), NewDate(7)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("x", Row{NewNull(), NewNull(), NewNull(), NewNull()}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndexDef(db, "", "x", []string{"a", "d"}); err != nil {
		t.Fatal(err)
	}
	stmt, err := ParseSelect("SELECT a FROM x WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Resolve(db.Schema()); err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkload(strings.NewReader("SELECT a, f FROM x WHERE d >= DATE(1)\n"), db)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Errorf("workload len %d", w.Len())
	}
}

// TestMergerOverSuppliedForm: a Merger built over a form someone else
// compressed serves that form itself, decides what a cold Merger over
// the same workload decides, refuses a form whose pieces belong to
// different workloads, and — unlike a Merger that can rebuild its forms
// from the workload — answers a statistics rebuild with ErrStaleForm at
// every entry point.
func TestMergerOverSuppliedForm(t *testing.T) {
	lab, err := experiments.NewSynthetic1Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := lab.DB
	w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Queries: 8, Duplication: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// form compresses a workload the way a service registration does.
	form := func(w *Workload) *CompressedWorkload {
		t.Helper()
		pw, err := optimizer.PrepareWorkload(w, db)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := wscale.Prepare(wscale.Compress(w), pw, optimizer.New(db), 0)
		if err != nil {
			t.Fatal(err)
		}
		return cw
	}
	ctx := context.Background()

	cw := form(w)
	over, err := NewMergerOver(db, cw)
	if err != nil {
		t.Fatal(err)
	}
	if pw, err := over.PreparedWorkload(); err != nil || pw != cw.PW {
		t.Errorf("PreparedWorkload = %p, %v; want the form's own %p", pw, err, cw.PW)
	}
	if got, err := over.CompressedWorkload(); err != nil || got != cw {
		t.Errorf("CompressedWorkload = %p, %v; want the form itself %p", got, err, cw)
	}

	// Same decisions as a cold Merger, under either unit list. Each side
	// starts from an empty cost table, so the counters match too.
	var defs []IndexDef
	for _, model := range []CostModelKind{OptimizerCost, CompressedOptimizerCost} {
		opts := MergeOptions{CostConstraint: 0.10, CostModel: model}
		cold, err := NewMerger(db, w)
		if err != nil {
			t.Fatal(err)
		}
		supplied, err := NewMergerOver(db, form(w))
		if err != nil {
			t.Fatal(err)
		}
		wantDefs, err := cold.InitialConfiguration(ctx, 0, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		defs, err = supplied.InitialConfiguration(ctx, 0, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := core.NewConfiguration(defs).Signature(), core.NewConfiguration(wantDefs).Signature(); got != want {
			t.Errorf("model %d: initial configuration %s, cold Merger's %s", model, got, want)
		}
		want, err := cold.MergeDefsContext(ctx, wantDefs, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := supplied.MergeDefsContext(ctx, defs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if mergeKey(got) != mergeKey(want) {
			t.Errorf("model %d: merge diverged from a cold Merger's:\n got: %s\nwant: %s", model, mergeKey(got), mergeKey(want))
		}
		if len(want.Steps) == 0 {
			t.Errorf("model %d: merge accepted no steps; the comparison has no teeth", model)
		}
	}

	// Descriptors of another workload — here one of the same length, which
	// a length check alone would wave through — are refused.
	reversed := &Workload{}
	for i := w.Len() - 1; i >= 0; i-- {
		reversed.Queries = append(reversed.Queries, w.Queries[i])
	}
	if _, err := NewMergerOver(db, &CompressedWorkload{C: cw.C, PW: form(reversed).PW}); err == nil {
		t.Error("a form whose descriptors belong to another workload was accepted")
	}
	if _, err := NewMergerOver(db, nil); err == nil {
		t.Error("a nil form was accepted")
	}

	if err := db.Materialize(defs[:2]); err != nil {
		t.Fatal(err)
	}
	cold, err := NewMerger(db, w)
	if err != nil {
		t.Fatal(err)
	}
	coldBefore, err := cold.CompressedWorkload()
	if err != nil {
		t.Fatal(err)
	}
	db.AnalyzeAll()

	compressed := MergeOptions{CostModel: CompressedOptimizerCost}
	for name, call := range map[string]func() error{
		"PreparedWorkload":             func() error { _, err := over.PreparedWorkload(); return err },
		"CompressedWorkload":           func() error { _, err := over.CompressedWorkload(); return err },
		"MergeContext":                 func() error { _, err := over.MergeContext(ctx, MergeOptions{}); return err },
		"MergeDefsContext":             func() error { _, err := over.MergeDefsContext(ctx, defs, MergeOptions{}); return err },
		"MergeDefsContext/compressed":  func() error { _, err := over.MergeDefsContext(ctx, defs, compressed); return err },
		"MergeDualContext":             func() error { _, err := over.MergeDualContext(ctx, defs, 1<<20); return err },
		"InitialConfiguration/n":       func() error { _, err := over.InitialConfiguration(ctx, 4, 1, MergeOptions{}); return err },
		"InitialConfiguration/0":       func() error { _, err := over.InitialConfiguration(ctx, 0, 0, MergeOptions{}); return err },
		"InitialConfiguration/0/compr": func() error { _, err := over.InitialConfiguration(ctx, 0, 0, compressed); return err },
		"WorkloadCost":                 func() error { _, err := over.WorkloadCost(defs); return err },
	} {
		if err := call(); !errors.Is(err, ErrStaleForm) {
			t.Errorf("%s after Analyze: err = %v, want ErrStaleForm", name, err)
		}
	}

	// A Merger that made its own forms makes them again.
	coldAfter, err := cold.CompressedWorkload()
	if err != nil {
		t.Fatalf("cold Merger after Analyze: %v", err)
	}
	pw, err := cold.PreparedWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if coldAfter == coldBefore || coldAfter.PW != pw || pw == coldBefore.PW {
		t.Error("cold Merger served a form built against superseded statistics")
	}
	if _, err := cold.MergeDefsContext(ctx, defs, compressed); err != nil {
		t.Errorf("cold Merger's merge after Analyze: %v", err)
	}
}

// TestWindowFormPricesTemplateCells: every cost model prices a window
// form through the window's template cells. Over two successive
// snapshots whose member positions differ, a plain-model Merger over a
// snapshot's form fills the window's table and decides what a cold
// Merger over the snapshot's workload decides; a compressed run over the
// same form then decides the same from the cells the plain run left,
// with no optimizer call; and the dual over the form reads the window's
// cells and decides what the cold Merger's dual decides.
func TestWindowFormPricesTemplateCells(t *testing.T) {
	lab, err := experiments.NewSynthetic1Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := lab.DB
	w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Queries: 8, Duplication: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := optimizer.PrepareWorkload(w, db)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]wscale.IngestItem, w.Len())
	for i, q := range w.Queries {
		items[i] = wscale.IngestItem{Stmt: q.Stmt, PQ: pw.Queries[i], Freq: q.Freq, Text: q.Text, Fingerprint: q.Fingerprint}
	}
	ctx := context.Background()
	opts := MergeOptions{CostConstraint: 0.10}
	compressed := MergeOptions{CostConstraint: 0.10, CostModel: CompressedOptimizerCost}
	win := wscale.NewWindow(wscale.WindowConfig{Seed: 1})
	table := costcache.New()
	var texts []string // the first snapshot's statement at each position
	// Half the statements, then the rest: the second half adds members to
	// templates the first half opened, which moves every later template's.
	for _, batch := range [][]wscale.IngestItem{items[:len(items)/2], items[len(items)/2:]} {
		win.Ingest(batch)
		snap := win.Snapshot()
		form, err := wscale.PrepareWindowed(snap, optimizer.New(db), table)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewMerger(db, snap.W)
		if err != nil {
			t.Fatal(err)
		}
		defs, err := cold.InitialConfiguration(ctx, 0, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.MergeDefsContext(ctx, defs, opts)
		if err != nil {
			t.Fatal(err)
		}
		over, err := NewMergerOver(db, form)
		if err != nil {
			t.Fatal(err)
		}
		cells := table.Len()
		got, err := over.MergeDefsContext(ctx, defs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if table.Len() == cells {
			t.Errorf("snapshot of %d members: the plain-model run wrote no cell to the window's table", snap.W.Len())
		}
		if len(want.Steps) == 0 || want.OptimizerCalls == 0 {
			t.Errorf("snapshot of %d members: %d steps, %d optimizer calls; the comparison has no teeth", snap.W.Len(), len(want.Steps), want.OptimizerCalls)
		}
		comp, err := over.MergeDefsContext(ctx, defs, compressed)
		if err != nil {
			t.Fatal(err)
		}
		if comp.OptimizerCalls != 0 || comp.CostTableMisses != 0 {
			t.Errorf("snapshot of %d members: the compressed run after the plain one made %d optimizer calls, %d table misses; want 0",
				snap.W.Len(), comp.OptimizerCalls, comp.CostTableMisses)
		}
		if g, c := fmt.Sprint(got.Final.Signature(), got.Steps), fmt.Sprint(comp.Final.Signature(), comp.Steps); g != c {
			t.Errorf("snapshot of %d members: the compressed run decided\n%s\nthe plain run\n%s", snap.W.Len(), c, g)
		}
		// The window's table persists, so the second snapshot's plain run
		// finds the cells of the templates the first left alone.
		got.OptimizerCalls, want.OptimizerCalls = 0, 0
		if mergeKey(got) != mergeKey(want) {
			t.Errorf("snapshot of %d members: merge diverged from a cold Merger's:\n got: %s\nwant: %s", snap.W.Len(), mergeKey(got), mergeKey(want))
		}
		budget := db.ConfigurationBytes(defs) / 2
		wantDual, err := cold.MergeDualContext(ctx, defs, budget)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses, _ := form.TableStats()
		gotDual, err := over.MergeDualContext(ctx, defs, budget)
		if err != nil {
			t.Fatal(err)
		}
		if h, m, _ := form.TableStats(); h+m == hits+misses {
			t.Errorf("snapshot of %d members: the dual over the form read no cell of the window's table", snap.W.Len())
		}
		if g, c := gotDual.Final.Signature(), wantDual.Final.Signature(); g != c {
			t.Errorf("snapshot of %d members: the dual over the form chose %s, a cold Merger's %s", snap.W.Len(), g, c)
		}
		if texts == nil {
			for _, q := range snap.W.Queries {
				texts = append(texts, q.Text)
			}
			continue
		}
		moved := 0
		for i, text := range texts {
			if snap.W.Queries[i].Text != text {
				moved++
			}
		}
		if moved == 0 {
			t.Error("every position of the first snapshot holds the same statement in the second; the test has no teeth")
		}
	}
}
