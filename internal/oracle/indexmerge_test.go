package oracle

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/exec"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// restrictionIndexes builds one single-column index per restricted
// column in the workload — simple predicates and the members of OR/IN
// disjunctions alike — so the optimizer has the narrow indexes that
// RID-intersection and RID-union paths are made of.
func restrictionIndexes(t *testing.T, db *engine.Database, w *sql.Workload) []catalog.IndexDef {
	t.Helper()
	seen := map[string]bool{}
	var defs []catalog.IndexDef
	add := func(c sql.ColumnRef) {
		if c.Column == "" || seen[c.Table+"."+c.Column] {
			return
		}
		seen[c.Table+"."+c.Column] = true
		def, err := catalog.NewIndexDef(db.Schema(), "", c.Table, []string{c.Column})
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, def)
	}
	for _, q := range w.Queries {
		for _, p := range q.Stmt.Where {
			if ds := p.Disjuncts(); ds != nil {
				for _, d := range ds {
					add(d.Col)
				}
				continue
			}
			add(p.Col)
		}
	}
	return defs
}

// targetedMergeQueries crafts one union-shaped and one
// intersection-shaped query against the database's largest table, from
// its own statistics: equality predicates on the two most selective
// restrictable columns, projecting a third column so no narrow index
// covers the query. These are the shapes where RID merging beats both
// the heap scan and any single-index seek, guaranteeing the sweep
// exercises both IndexMerge operators on every database.
func targetedMergeQueries(t *testing.T, db *engine.Database) []*sql.SelectStmt {
	t.Helper()
	var big *catalog.Table
	var bigW int64
	for _, tb := range db.Schema().Tables() {
		w := db.TableRowCount(tb.Name) * int64(tb.RowWidth())
		if w > bigW {
			big, bigW = tb, w
		}
	}
	if big == nil {
		t.Fatal("no tables")
	}
	ts := db.TableStats(big.Name)
	if ts == nil {
		t.Fatalf("no stats for %s", big.Name)
	}
	// Rank columns by distinct count, descending.
	type ranked struct {
		name     string
		distinct float64
	}
	var cols []ranked
	for _, c := range big.Columns {
		if cs := ts.Column(c.Name); cs != nil && cs.Distinct > 1 {
			cols = append(cols, ranked{c.Name, cs.Distinct})
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].distinct > cols[j].distinct })
	if len(cols) < 3 {
		t.Fatalf("table %s too narrow for merge queries", big.Name)
	}
	proj := cols[len(cols)-1].name
	h, err := db.Heap(big.Name)
	if err != nil {
		t.Fatal(err)
	}
	row, err := h.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	eqPred := func(col string) sql.Predicate {
		v := row[big.ColumnIndex(col)]
		if v.IsNull() {
			t.Fatalf("sampled NULL key value in %s.%s", big.Name, col)
		}
		return sql.Predicate{Col: sql.ColumnRef{Table: big.Name, Column: col}, Op: sql.OpEq, Val: v}
	}

	// Union wants highly selective arms: each disjunct fetches a few
	// rows, so two probes plus the lookups undercut a heap scan.
	union := &sql.SelectStmt{
		From:   []string{big.Name},
		Select: []sql.SelectItem{{Col: sql.ColumnRef{Table: big.Name, Column: proj}}},
		Where: []sql.Predicate{{Op: sql.OpOr, Or: []sql.Predicate{
			eqPred(cols[0].name), eqPred(cols[1].name),
		}}},
	}

	// Intersection wants moderately selective arms — each matching many
	// rows (so a single seek pays a RID lookup per match) while the
	// conjunction matches almost none. Which column pair lands in that
	// regime depends on the data distribution, so search: try pairs in
	// ranked order and keep the first conjunction the optimizer answers
	// with an IndexIntersect plan. Finding none is a genuine failure —
	// the access path would be dead on this database.
	o := optimizer.New(db)
	var intersect *sql.SelectStmt
search:
	for i := 0; i < len(cols) && intersect == nil; i++ {
		for j := i + 1; j < len(cols); j++ {
			cand := &sql.SelectStmt{
				From:   []string{big.Name},
				Select: []sql.SelectItem{{Col: sql.ColumnRef{Table: big.Name, Column: proj}}},
				Where: []sql.Predicate{
					eqPred(cols[i].name), eqPred(cols[j].name),
				},
			}
			if err := cand.Resolve(db.Schema()); err != nil {
				t.Fatal(err)
			}
			ia, err := catalog.NewIndexDef(db.Schema(), "", big.Name, []string{cols[i].name})
			if err != nil {
				t.Fatal(err)
			}
			ib, err := catalog.NewIndexDef(db.Schema(), "", big.Name, []string{cols[j].name})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := o.Optimize(cand, optimizer.Configuration{ia, ib})
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(plan.Explain(), "IndexIntersect(") {
				intersect = cand
				break search
			}
		}
	}
	if intersect == nil {
		t.Fatalf("no column pair on %s yields an IndexIntersect plan", big.Name)
	}
	for _, s := range []*sql.SelectStmt{union, intersect} {
		if err := s.Resolve(db.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	return []*sql.SelectStmt{union, intersect}
}

// TestIndexMergePlansMatchNoMergePlans is the differential check for
// the IndexMerge access paths on all three experimental databases:
// wherever the optimizer picks a RID-union or RID-intersection plan,
// that plan's rows must be multiset-identical to the rows of the plan
// chosen with both IndexMerge paths disabled, and to the reference
// evaluator's answer. The sweep mixes generated disjunction-bearing
// queries with targeted union- and intersection-shaped ones, and
// insists it is not vacuous — each database must surface at least one
// union plan and at least one intersection plan. Every plan's usage
// report must also be its tree's seek and scan leaves (LeafUses), the
// explain invariant the sweep holds each plan to.
func TestIndexMergePlansMatchNoMergePlans(t *testing.T) {
	for _, name := range []string{"tpcd", "synthetic1", "synthetic2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			scale := 0.2
			if strings.HasPrefix(name, "synthetic") {
				scale = 0.5
			}
			db, err := datagen.BuildNamed(name, scale, 42)
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.Generate(db, workload.Options{
				Class: workload.Complex, Disjunctions: true, Queries: 40, Seed: 321,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, stmt := range targetedMergeQueries(t, db) {
				w.Add(stmt, 1)
			}
			defs := restrictionIndexes(t, db, w)
			if err := db.Materialize(defs); err != nil {
				t.Fatal(err)
			}
			cfg := optimizer.Configuration(defs)

			merged := optimizer.New(db)
			noMerge := optimizer.New(db)
			noMerge.DisableIndexUnion = true
			noMerge.DisableIndexIntersection = true

			unions, intersections := 0, 0
			for i, q := range w.Queries {
				plan, err := merged.Optimize(q.Stmt, cfg)
				if err != nil {
					t.Fatalf("q%d optimize: %v\nsql: %s", i, err, q.Stmt)
				}
				if msg := usesMismatch(plan); msg != "" {
					t.Errorf("q%d: explain-uses: %s", i, msg)
				}
				explain := plan.Explain()
				hasUnion := strings.Contains(explain, "IndexUnion(")
				hasIntersect := strings.Contains(explain, "IndexIntersect(")
				if hasUnion {
					unions++
				}
				if hasIntersect {
					intersections++
				}
				if !hasUnion && !hasIntersect {
					continue // identical plans; nothing to differentiate
				}
				got, err := exec.Run(db, plan)
				if err != nil {
					t.Fatalf("q%d exec: %v\nsql: %s\nplan:\n%s", i, err, q.Stmt, explain)
				}
				base, err := noMerge.Optimize(q.Stmt, cfg)
				if err != nil {
					t.Fatalf("q%d no-merge optimize: %v", i, err)
				}
				if be := base.Explain(); strings.Contains(be, "IndexUnion(") || strings.Contains(be, "IndexIntersect(") {
					t.Fatalf("q%d: disabled optimizer still emitted an IndexMerge plan:\n%s", i, be)
				}
				want, err := exec.Run(db, base)
				if err != nil {
					t.Fatalf("q%d no-merge exec: %v\nplan:\n%s", i, err, base.Explain())
				}
				if diff := DiffResults(&Result{Columns: want.Columns, Rows: want.Rows}, got); diff != "" {
					t.Errorf("q%d: IndexMerge plan diverges from no-merge plan: %s\nsql: %s\nplan:\n%s",
						i, diff, q.Stmt, explain)
				}
				ref, err := ReferenceBudget(db, q.Stmt, fuzzRefBudget)
				if errors.Is(err, ErrBudget) {
					continue
				}
				if err != nil {
					t.Fatalf("q%d reference: %v", i, err)
				}
				if diff := DiffResults(ref, got); diff != "" {
					t.Errorf("q%d: IndexMerge plan diverges from reference: %s\nsql: %s\nplan:\n%s",
						i, diff, q.Stmt, explain)
				}
			}
			if unions == 0 {
				t.Errorf("sweep vacuous: no IndexUnion plan chosen across %d queries", w.Len())
			}
			if intersections == 0 {
				t.Errorf("sweep vacuous: no IndexIntersect plan chosen across %d queries", w.Len())
			}
			t.Logf("%s: %d union plans, %d intersection plans over %d queries", name, unions, intersections, w.Len())
		})
	}
}
