package oracle

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"unicode/utf8"

	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/exec"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// fuzzDBCount bounds how many distinct fuzz databases are built per
// process; each is a few hundred KB and building dominates iteration
// time, so seeds map onto a small cached pool.
const fuzzDBCount = 4

// fuzzRefBudget caps row combinations per reference evaluation inside
// the fuzz targets. Generated queries are occasionally unselective
// cross joins whose naive evaluation is cubic in the table size and
// whose results run to millions of rows; those are correct but slow
// enough (in both evaluators and in the differ) to trip the fuzz
// worker's hang timeout, so they are skipped rather than evaluated.
// The budget also bounds the executed plan's work: a result can have
// at most as many rows as the reference visits combinations.
const fuzzRefBudget = 200_000

var (
	fuzzDBMu    sync.Mutex
	fuzzDBCache = map[int64]*engine.Database{}
)

// fuzzDB builds (or reuses) a small synthetic database derived from
// the seed. Databases are shared across fuzz iterations; iterations
// re-materialize whatever configuration they need, so sharing is safe
// as long as the target itself runs serially (fuzz workers are
// separate processes, each calling the target sequentially).
func fuzzDB(t *testing.T, seed int64) *engine.Database {
	t.Helper()
	key := ((seed % fuzzDBCount) + fuzzDBCount) % fuzzDBCount
	fuzzDBMu.Lock()
	defer fuzzDBMu.Unlock()
	if db, ok := fuzzDBCache[key]; ok {
		return db
	}
	spec := datagen.SyntheticSpec{
		Name:       fmt.Sprintf("fuzz%d", key),
		Tables:     4,
		MinCols:    4,
		MaxCols:    10,
		RowsPer:    250,
		Seed:       300 + key,
		ZipfLevels: []float64{0, 1, 2},
	}
	db, err := datagen.BuildSynthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	fuzzDBCache[key] = db
	return db
}

// reportFuzzViolation fails the fuzz target with a replayable repro
// attached, so any finding can be minimized and checked in under
// testdata/repro.
func reportFuzzViolation(t *testing.T, dbKey int64, v Violation) {
	t.Helper()
	r := NewRepro(fmt.Sprintf("fuzz-synthetic-%d", dbKey), 1, dbKey, v)
	t.Errorf("%s\nreplayable repro (rebuild via fuzzDB(%d)):\n%s", v, dbKey, r.Marshal())
}

// FuzzParseOptimizeExec drives the full front-to-back pipeline with
// generated queries: canonical-SQL parse round-trip, optimization
// under the empty and an advisor-recommended configuration, execution,
// and a differential diff against the reference evaluator.
//
// A non-empty raw replaces the generated query with SQL text as a
// client would send it, which need not be valid; see checkRawSQL.
func FuzzParseOptimizeExec(f *testing.F) {
	f.Add(int64(0), int64(1), "")
	f.Add(int64(1), int64(7), "")
	f.Add(int64(2), int64(23), "")
	f.Add(int64(3), int64(101), "")
	// Non-ASCII outside a string literal: the lexer once took the first
	// for an identifier and quoted half a character of the second.
	f.Add(int64(0), int64(0), "SELECT ê FROM t")
	f.Add(int64(0), int64(0), "SELECT ñ FROM t")
	f.Add(int64(0), int64(0), "SELECT a FROM t WHERE s = 'ñ''ê' AND (a IN (1, 2.5) OR b <> DATE(3)) ORDER BY a DESC")
	f.Fuzz(func(t *testing.T, dbSeed, querySeed int64, raw string) {
		if raw != "" {
			checkRawSQL(t, raw)
			return
		}
		db := fuzzDB(t, dbSeed)
		w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 1, Seed: querySeed})
		if err != nil {
			t.Skip() // generator could not produce a query for this seed
		}
		stmt := w.Queries[0].Stmt

		// Parse round-trip: the canonical rendering must re-parse and
		// re-render to the same text.
		text := stmt.String()
		stmt2, err := sql.ParseSelect(text)
		if err != nil {
			t.Fatalf("canonical SQL does not re-parse: %q: %v", text, err)
		}
		if err := stmt2.Resolve(db.Schema()); err != nil {
			t.Fatalf("canonical SQL does not re-resolve: %q: %v", text, err)
		}
		if got := stmt2.String(); got != text {
			t.Fatalf("parse round trip changed the query:\n in: %s\nout: %s", text, got)
		}

		ref, err := ReferenceBudget(db, stmt, fuzzRefBudget)
		if errors.Is(err, ErrBudget) {
			t.Skip() // unselective cross join: correct but too slow to evaluate
		}
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		opz := optimizer.New(db)
		adv := advisor.New(db, opz)
		recs, err := adv.TuneQuery(stmt)
		if err != nil {
			t.Fatalf("tune: %v", err)
		}
		checkBoundDescriptor(t, db, stmt, stmt2, recs)
		for _, defs := range [][]catalog.IndexDef{nil, recs} {
			if err := db.Materialize(defs); err != nil {
				t.Fatal(err)
			}
			cfg := optimizer.Configuration(defs)
			plan, err := opz.Optimize(stmt, cfg)
			if err != nil {
				t.Fatalf("optimize under %v: %v", configKeys(defs), err)
			}
			for _, u := range plan.Uses {
				if !defsContain(defs, u.Index) {
					reportFuzzViolation(t, dbSeed, Violation{Kind: "explain-unknown", Query: text,
						Config: configKeys(defs), Detail: "plan uses " + u.Index.Key()})
				}
			}
			got, err := exec.Run(db, plan)
			if err != nil {
				t.Fatalf("exec under %v: %v\nplan:\n%s", configKeys(defs), err, plan.Explain())
			}
			if diff := DiffResults(ref, got); diff != "" {
				reportFuzzViolation(t, dbSeed, Violation{Kind: "result-diff", Query: text,
					Config: configKeys(defs), Detail: diff + "\nplan:\n" + plan.Explain()})
			}
			if msg := checkOrdered(got, stmt.OrderBy); msg != "" {
				reportFuzzViolation(t, dbSeed, Violation{Kind: "order", Query: text,
					Config: configKeys(defs), Detail: msg + "\nplan:\n" + plan.Explain()})
			}
		}
	})
}

// checkBoundDescriptor prepares the statement and its re-parsed twin
// as one workload, so that the twin is bound to the statement's shape,
// and holds the bound descriptor to a fresh PrepareQuery of the twin:
// the same fields (floats by their bits) and the same CostPrepared bits
// under the empty and the recommended configuration, with the
// relevant-index prefilter on and off.
func checkBoundDescriptor(t *testing.T, db *engine.Database, stmt, twin *sql.SelectStmt, recs []catalog.IndexDef) {
	t.Helper()
	w := &sql.Workload{}
	for _, s := range []*sql.SelectStmt{stmt, twin} {
		text, fp := s.Canonical()
		w.Queries = append(w.Queries, sql.WorkloadQuery{Stmt: s, Freq: 1, Text: text, Fingerprint: fp})
	}
	pw, err := optimizer.PrepareWorkload(w, db)
	if err != nil {
		t.Fatalf("prepare workload: %v", err)
	}
	if pw.Shapes != 1 {
		t.Fatalf("%d shapes built for a statement and its re-parsed twin", pw.Shapes)
	}
	fresh, err := optimizer.PrepareQuery(twin, db)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if d := BitDiff(pw.Queries[1], fresh); d != "" {
		t.Fatalf("%s: the bound descriptor differs from PrepareQuery's at %s", twin, d)
	}
	filtered, unfiltered := optimizer.New(db), optimizer.New(db)
	unfiltered.DisableRelevantIndexFilter = true
	for _, cfg := range []optimizer.Configuration{nil, recs} {
		for _, o := range []*optimizer.Optimizer{filtered, unfiltered} {
			got, err := o.CostPrepared(pw.Queries[1], cfg)
			if err != nil {
				t.Fatalf("cost under %v: %v", configKeys(cfg), err)
			}
			want, err := o.CostPrepared(fresh, cfg)
			if err != nil {
				t.Fatalf("cost under %v: %v", configKeys(cfg), err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s under %v: cost %v from the bound descriptor, %v from PrepareQuery's", twin, configKeys(cfg), got, want)
			}
		}
	}
}

// checkRawSQL parses arbitrary text. Rejecting it is fine; what must
// hold is that the parser returns instead of panicking, that an error
// about valid UTF-8 input is itself valid UTF-8 (no character cut in
// half), and that a statement it accepts renders its text and its
// fingerprint the same in one pass as in two.
func checkRawSQL(t *testing.T, raw string) {
	stmt, err := sql.ParseSelect(raw)
	if err != nil {
		if utf8.ValidString(raw) && !utf8.ValidString(err.Error()) {
			t.Fatalf("error for %q is not valid UTF-8: %q", raw, err.Error())
		}
		return
	}
	text, fp := stmt.Canonical()
	if text != stmt.String() || fp != stmt.Fingerprint() {
		t.Fatalf("%q renders %q / %q in one pass, %q / %q in two", raw, text, fp, stmt.String(), stmt.Fingerprint())
	}
}

// FuzzMergeSearch drives the merge search with generated workloads and
// initial configurations, then checks the metamorphic invariants: the
// final configuration is a minimal merged configuration of the initial
// one (Definitions 1–3), and every query still computes its reference
// answer under it.
func FuzzMergeSearch(f *testing.F) {
	f.Add(int64(0), int64(5), byte(3))
	f.Add(int64(1), int64(11), byte(4))
	f.Add(int64(2), int64(17), byte(6))
	f.Fuzz(func(t *testing.T, dbSeed, wSeed int64, n byte) {
		db := fuzzDB(t, dbSeed)
		w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Disjunctions: true, Queries: 5, Seed: wSeed})
		if err != nil {
			t.Skip()
		}
		opz := optimizer.New(db)
		adv := advisor.New(db, opz)
		size := int(n%6) + 2
		initialDefs, err := advisor.BuildInitialConfiguration(adv, w, size, wSeed)
		if err != nil {
			t.Fatalf("initial configuration: %v", err)
		}
		if len(initialDefs) == 0 {
			t.Skip() // nothing recommended, nothing to merge
		}
		initial := core.NewConfiguration(initialDefs)
		pw, err := opz.PrepareWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		res, visited, diff, err := mergeSearch(db, opz, pw, initial, 0.10)
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		if diff != "" {
			t.Errorf("delta pricing changed the search: %s", diff)
		}
		if err := core.ValidateMinimalMerged(initial, res.Final); err != nil {
			t.Errorf("final configuration violates Definitions 1-3: %v", err)
		}
		for _, cfg := range visited {
			if err := core.ValidateMinimalMerged(initial, cfg); err != nil {
				t.Errorf("visited configuration violates Definitions 1-3: %v", err)
			}
		}

		refs := make([]*Result, w.Len())
		for i, q := range w.Queries {
			refs[i], err = ReferenceBudget(db, q.Stmt, fuzzRefBudget)
			if errors.Is(err, ErrBudget) {
				t.Skip() // unselective cross join: correct but too slow to evaluate
			}
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
		}
		vs, _, err := CheckConfig(db, opz, w, refs, res.Final.Defs())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			reportFuzzViolation(t, dbSeed, v)
		}
	})
}
