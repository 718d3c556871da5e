package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/oracle"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// randomConfigs draws configurations over the tables the workload
// reads: the empty one, then sets of up to 16 indexes of one to four
// columns, wide enough to cover and narrow enough to seek, intersect
// and union.
func randomConfigs(t testing.TB, rng *rand.Rand, db *engine.Database, w *sql.Workload, n int) []optimizer.Configuration {
	t.Helper()
	tables := w.TablesReferenced()
	cfgs := []optimizer.Configuration{nil}
	for c := 0; c < n; c++ {
		var cfg optimizer.Configuration
		for i, size := 0, 1+rng.Intn(16); i < size; i++ {
			tab, _ := db.Schema().Table(tables[rng.Intn(len(tables))])
			cols := tab.ColumnNames()
			rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
			def, err := catalog.NewIndexDef(db.Schema(), fmt.Sprintf("r%d_%d", c, i), tab.Name, cols[:1+rng.Intn(min(4, len(cols)))])
			if err != nil {
				t.Fatal(err)
			}
			cfg = append(cfg, def)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// checkBound holds every descriptor PrepareWorkload returns — built in
// full or bound to an earlier entry's shape — to a fresh PrepareQuery
// of the same statement: the same fields, floats by their bits, and the
// same CostPrepared bits under random configurations with the
// relevant-index prefilter on and off. It returns the prepared workload.
func checkBound(t *testing.T, name string, db *engine.Database, w *sql.Workload) *optimizer.PreparedWorkload {
	t.Helper()
	pw, err := optimizer.PrepareWorkload(w, db)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if pw.Len() != w.Len() {
		t.Fatalf("%s: %d descriptors for %d entries", name, pw.Len(), w.Len())
	}
	filtered, unfiltered := optimizer.New(db), optimizer.New(db)
	unfiltered.DisableRelevantIndexFilter = true
	cfgs := randomConfigs(t, rand.New(rand.NewSource(int64(len(name)))), db, w, 4)
	for i, q := range w.Queries {
		fresh, err := optimizer.PrepareQuery(q.Stmt, db)
		if err != nil {
			t.Fatalf("%s q%d: %v", name, i+1, err)
		}
		if d := oracle.BitDiff(pw.Queries[i], fresh); d != "" {
			t.Fatalf("%s q%d %s:\nPrepareWorkload's descriptor differs from PrepareQuery's at %s", name, i+1, q.Stmt, d)
		}
		for ci, cfg := range cfgs {
			for _, o := range []*optimizer.Optimizer{filtered, unfiltered} {
				got, err := o.CostPrepared(pw.Queries[i], cfg)
				if err != nil {
					t.Fatalf("%s q%d cfg %d: %v", name, i+1, ci, err)
				}
				want, err := o.CostPrepared(fresh, cfg)
				if err != nil {
					t.Fatalf("%s q%d cfg %d: %v", name, i+1, ci, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s q%d cfg %d (prefilter off: %v): cost %v from PrepareWorkload's descriptor, %v from PrepareQuery's",
						name, i+1, ci, o.DisableRelevantIndexFilter, got, want)
				}
			}
		}
	}
	return pw
}

func fingerprints(w *sql.Workload) int {
	seen := make(map[string]bool)
	for _, q := range w.Queries {
		_, fp := q.Canonical()
		seen[fp] = true
	}
	return len(seen)
}

// TestPrepareWorkloadMatchesPrepareQuery: preparing a workload once per
// template changes nothing a descriptor holds. Covers the three
// standard databases with their distinct workloads (one shape per
// entry), logs that repeat shapes with fresh constants — OR and IN
// among them — and the TPC-D variant log.
func TestPrepareWorkloadMatchesPrepareQuery(t *testing.T) {
	labs, err := experiments.StandardLabs(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lab := range labs {
		for wname, w := range map[string]*sql.Workload{"complex": lab.Complex, "projection": lab.Projection} {
			pw := checkBound(t, lab.Name+"/"+wname, lab.DB, w)
			if pw.Shapes != fingerprints(w) {
				t.Errorf("%s/%s: %d shapes built for %d fingerprints", lab.Name, wname, pw.Shapes, fingerprints(w))
			}
		}
		if n := fingerprints(lab.Complex); n != lab.Complex.Len() {
			t.Fatalf("%s: the complex workload has %d shapes in %d entries; it is the all-distinct case", lab.Name, n, lab.Complex.Len())
		}
		log, err := workload.Generate(lab.DB, workload.Options{
			Class: workload.Complex, Disjunctions: true, Queries: 20, Duplication: 300, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		pw := checkBound(t, lab.Name+"/log", lab.DB, log)
		if pw.Shapes != fingerprints(log) || pw.Shapes >= log.Len()/4 {
			t.Errorf("%s/log: %d shapes built for %d fingerprints in %d entries", lab.Name, pw.Shapes, fingerprints(log), log.Len())
		}
		if strings.HasPrefix(strings.ToLower(lab.Name), "tpc") {
			variants, err := datagen.TPCDWorkloadVariants(lab.DB.Schema(), 150, 9)
			if err != nil {
				t.Fatal(err)
			}
			if pw := checkBound(t, lab.Name+"/variants", lab.DB, variants); pw.Shapes != fingerprints(variants) || pw.Shapes > 17 {
				t.Errorf("%s/variants: %d shapes built for %d fingerprints of 17 templates", lab.Name, pw.Shapes, fingerprints(variants))
			}
		}
	}
}

// TestPrepareWorkloadShapesOfBenchmarkLog prepares a log of the
// benchmark's make — the 60 Synthetic2 shapes of its template seed,
// OR and IN included, repeated with fresh constants — and counts the
// shapes built: one per template, whatever the number of statements.
func TestPrepareWorkloadShapesOfBenchmarkLog(t *testing.T) {
	db, err := datagen.BuildNamed("synthetic2", 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	log, err := workload.Generate(db, workload.Options{
		Class: workload.Complex, Disjunctions: true, Queries: 60, Duplication: 1500, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() < 1000 {
		t.Fatalf("the log folded to %d entries; want a log, not a workload", log.Len())
	}
	if pw := checkBound(t, "benchmark log", db, log); pw.Shapes != 60 {
		t.Errorf("%d shapes built for a log of 60 templates (%d entries)", pw.Shapes, log.Len())
	}
}

func parseWorkload(t testing.TB, db *engine.Database, lines ...string) *sql.Workload {
	t.Helper()
	w, err := sql.ParseWorkload(strings.NewReader(strings.Join(lines, "\n")), db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBindOnlyWhatMatches: an entry is bound only to a shape its
// statement really has. IN lists of any length belong to one template
// and bind; a same-text pair (`a = 1 AND a = 1`) gets its own classes
// whether it is the shape or a member; an entry whose fingerprint is
// missing or names another statement's template is prepared in full.
func TestBindOnlyWhatMatches(t *testing.T) {
	db, err := datagen.BuildNamed("synthetic1", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Schema().Tables()[0]
	cols := tab.ColumnNames()
	a, b := cols[0], cols[1]
	sel := "SELECT " + a + " FROM " + tab.Name + " WHERE "

	in := parseWorkload(t, db,
		sel+a+" IN (1, 2) AND "+b+" < 7",
		sel+a+" IN (3, 4, 5, 6, 7) AND "+b+" < 9",
		sel+a+" IN (8) AND "+b+" < 2",
		sel+"("+a+" = 1 OR "+b+" IN (1, 2)) AND "+b+" < 7",
		sel+"("+a+" = 2 OR "+b+" IN (3, 4, 5)) AND "+b+" < 5",
	)
	if pw := checkBound(t, "in-lists", db, in); in.Len() != 5 || pw.Shapes != 2 {
		t.Errorf("IN lists of different length: %d shapes built for %d entries of 2 templates", pw.Shapes, in.Len())
	}

	same := parseWorkload(t, db,
		sel+a+" = 1 AND "+a+" = 1 AND "+b+" >= 3",
		sel+a+" = 2 AND "+a+" = 3 AND "+b+" >= 3",
		sel+a+" = 4 AND "+a+" = 4 AND "+b+" >= 5",
		// The other way round: the shape has two texts, a member one.
		sel+a+" <= 1 AND "+a+" <= 2",
		sel+a+" <= 3 AND "+a+" <= 3",
		// Equal text across kinds: 5 and 5.0 both render "5".
		sel+b+" = 5 AND "+b+" = 6",
		sel+b+" = 5 AND "+b+" = 5.0",
	)
	if pw := checkBound(t, "same-text", db, same); same.Len() != 7 || pw.Shapes != 3 {
		t.Errorf("same-text predicates: %d shapes built for %d entries of 3 templates", pw.Shapes, same.Len())
	}

	// Hand-made entries: nothing holds their fingerprint to their statement.
	q := parseWorkload(t, db,
		sel+a+" = 1 AND "+b+" < 7",
		sel+a+" = 2 AND "+b+" < 8",
		sel+a+" < 3 AND "+b+" = 4", // other operators
		sel+a+" = 5",               // fewer predicates
		sel+b+" = 6 AND "+a+" < 7", // other columns
		"SELECT "+b+" FROM "+tab.Name+" WHERE "+a+" = 1 AND "+b+" < 7", // other select list
	).Queries
	fp := q[0].Fingerprint
	wrong := &sql.Workload{Queries: []sql.WorkloadQuery{
		q[0],
		{Stmt: q[1].Stmt, Freq: 1, Text: q[1].Text, Fingerprint: fp}, // honest: binds
		{Stmt: q[2].Stmt, Freq: 1, Text: q[2].Text, Fingerprint: fp},
		{Stmt: q[3].Stmt, Freq: 1, Text: q[3].Text, Fingerprint: fp},
		{Stmt: q[4].Stmt, Freq: 1, Text: q[4].Text, Fingerprint: fp},
		{Stmt: q[5].Stmt, Freq: 1, Text: q[5].Text, Fingerprint: fp},
		{Stmt: q[1].Stmt, Freq: 1}, // no fingerprint
		{Stmt: q[1].Stmt, Freq: 1}, // nor here: no shape was kept for the one above
	}}
	if pw := checkBound(t, "hand-made", db, wrong); pw.Shapes != 7 {
		t.Errorf("hand-made entries: %d descriptors built in full, want 7 of 8 (only the honest one binds)", pw.Shapes)
	}
}

var bindSink *optimizer.PreparedQuery

// TestBindAllocations: binding a two-predicate single-table member
// allocates four objects — the descriptor, its table entry, the table
// list and the scored predicates — however many members were bound
// before it. Everything else is the shape's.
func TestBindAllocations(t *testing.T) {
	db, err := datagen.BuildNamed("synthetic1", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Schema().Tables()[0]
	cols := tab.ColumnNames()
	w := parseWorkload(t, db,
		"SELECT "+cols[0]+" FROM "+tab.Name+" WHERE "+cols[0]+" = 1 AND "+cols[1]+" < 7 ORDER BY "+cols[0],
		"SELECT "+cols[0]+" FROM "+tab.Name+" WHERE "+cols[0]+" = 2 AND "+cols[1]+" < 9 ORDER BY "+cols[0],
	)
	shape, err := optimizer.PrepareQuery(w.Queries[0].Stmt, db)
	if err != nil {
		t.Fatal(err)
	}
	member := w.Queries[1].Stmt
	for _, before := range []int{0, 1000} {
		for i := 0; i < before; i++ {
			bindSink = shape.Bind(member)
		}
		if allocs := testing.AllocsPerRun(200, func() { bindSink = shape.Bind(member) }); allocs != 4 {
			t.Errorf("after %d members: binding one allocates %v objects, want 4", before, allocs)
		}
	}
	fresh, err := optimizer.PrepareQuery(member, db)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.BitDiff(bindSink, fresh); d != "" {
		t.Errorf("the bound descriptor differs from PrepareQuery's at %s", d)
	}
}

// TestPrepareWorkloadErrorNamesPosition: a statement that cannot be
// prepared fails the whole call with its position, also when the
// entries before it were bound.
func TestPrepareWorkloadErrorNamesPosition(t *testing.T) {
	db, err := datagen.BuildNamed("synthetic1", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Schema().Tables()[0]
	col := tab.ColumnNames()[0]
	w := parseWorkload(t, db,
		"SELECT "+col+" FROM "+tab.Name+" WHERE "+col+" = 1",
		"SELECT "+col+" FROM "+tab.Name+" WHERE "+col+" = 2",
	)
	gone := &sql.SelectStmt{Select: []sql.SelectItem{{Col: sql.ColumnRef{Table: "nowhere", Column: "c"}}}, From: []string{"nowhere"}}
	w.Queries = append(w.Queries, sql.WorkloadQuery{Stmt: gone, Freq: 1}, w.Queries[0])
	pw, err := optimizer.PrepareWorkload(w, db)
	if pw != nil || err == nil || !strings.Contains(err.Error(), "query 3") || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("PrepareWorkload = %v, %v; want an error naming query 3 and its table", pw, err)
	}
}
