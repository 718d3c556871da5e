package sql_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// The parser fills storage it reuses from one statement to the next;
// what leaves it must share none of that storage, with the parser or
// with any other statement. The tests here overwrite what a parse
// returned and look for the damage elsewhere.

// smallSchema is two tables, t(a, b, shared) and u(c, shared).
func smallSchema(tb testing.TB) *catalog.Schema {
	tb.Helper()
	s := catalog.NewSchema()
	for _, t := range []*catalog.Table{
		catalog.MustNewTable("t", []catalog.Column{
			{Name: "a", Type: value.Int}, {Name: "b", Type: value.String, Width: 8}, {Name: "shared", Type: value.Int},
		}),
		catalog.MustNewTable("u", []catalog.Column{{Name: "c", Type: value.Int}, {Name: "shared", Type: value.Int}}),
	} {
		if err := s.AddTable(t); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// growingLog writes n distinct statements over smallSchema, each with a
// longer IN list and more disjuncts than the one before, and after each
// one repeats the statement before it, so that every line is parsed
// into storage the lines before it have grown and a hit follows every
// miss. Every third statement is a bare OR chain.
func growingLog(n int) string {
	list := func(k, base int) string {
		vals := make([]string, k)
		for i := range vals {
			vals[i] = fmt.Sprint(base + i)
		}
		return strings.Join(vals, ", ")
	}
	lines := make([]string, n)
	for k := 1; k <= n; k++ {
		disj := make([]string, k+1)
		for i := range disj {
			if i%2 == 0 {
				disj[i] = fmt.Sprintf("t.b = 'x%d'", i)
			} else {
				disj[i] = fmt.Sprintf("t.a IN (%s)", list(i, k))
			}
		}
		if k%3 == 0 {
			lines[k-1] = fmt.Sprintf("SELECT a, b FROM t WHERE %s ORDER BY a", strings.Join(disj, " OR "))
		} else {
			lines[k-1] = fmt.Sprintf("SELECT t.a, COUNT(*), MAX(u.c) FROM t, u WHERE t.a = u.c AND t.a IN (%s) AND (%s) AND u.shared < %d "+
				"GROUP BY t.a, u.c ORDER BY t.a DESC, u.c", list(k, 0), strings.Join(disj, " OR "), k)
		}
	}
	var b strings.Builder
	for k, line := range lines {
		b.WriteString(line + "\n")
		if k > 0 {
			fmt.Fprintf(&b, "2|%s\n", lines[k-1])
		}
	}
	return b.String()
}

// smash overwrites every element of *s with junk and appends junk once
// more through it — which writes into whatever follows the elements in
// their array unless the slice is capped. It returns the function that
// puts *s back.
func smash[T any](s *[]T, junk T) (restore func()) {
	orig, saved := *s, slices.Clone(*s)
	for i := range orig {
		orig[i] = junk
	}
	*s = append(orig, junk)
	return func() { copy(orig, saved); *s = orig }
}

var (
	junkCol  = sql.ColumnRef{Table: "junk", Column: "junk"}
	junkVal  = value.NewString("junk")
	junkPred = sql.Predicate{Col: junkCol, Op: sql.OpIn, Vals: []value.Value{junkVal}}
)

// predicateSmashes lists a smash of each slice a conjunction holds: the
// conjunction, and every IN list, disjunct list and disjunct's IN list.
func predicateSmashes(where *[]sql.Predicate) []func() func() {
	out := []func() func(){func() func() { return smash(where, junkPred) }}
	for i := range *where {
		p := &(*where)[i]
		out = append(out, func() func() { return smash(&p.Vals, junkVal) }, func() func() { return smash(&p.Or, junkPred) })
		for j := range p.Or {
			d := &p.Or[j]
			out = append(out, func() func() { return smash(&d.Vals, junkVal) })
		}
	}
	return out
}

// selectSmashes lists a smash of each slice a SELECT holds.
func selectSmashes(s *sql.SelectStmt) []func() func() {
	return append([]func() func(){
		func() func() { return smash(&s.Select, sql.SelectItem{Col: junkCol}) },
		func() func() { return smash(&s.From, "junk") },
		func() func() { return smash(&s.Joins, sql.JoinPred{Left: junkCol, Right: junkCol}) },
		func() func() { return smash(&s.GroupBy, junkCol) },
		func() func() { return smash(&s.OrderBy, sql.OrderItem{Col: junkCol}) },
	}, predicateSmashes(&s.Where)...)
}

// TestParseWorkloadEntriesShareNoStorage: overwriting any slice of one
// entry's statement leaves every other entry rendering the text it
// carries, and once put back the entry renders its own again — so no
// slice reaches into another entry's storage, nor into a neighbour in
// its own statement.
func TestParseWorkloadEntriesShareNoStorage(t *testing.T) {
	type log struct {
		name, text string
		sc         *catalog.Schema
	}
	logs := []log{{"growing", growingLog(24), smallSchema(t)}}
	for _, r := range referenceDBs(t) {
		logs = append(logs, log{r.name, spelledLog(r.w, 200, 5), r.db.Schema()})
	}
	for _, l := range logs {
		w, err := sql.ParseWorkload(strings.NewReader(l.text), l.sc)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		checkCarried(t, l.name, w)
		smashes := 0
		for e := range w.Queries {
			for _, s := range selectSmashes(w.Queries[e].Stmt) {
				restore := s()
				smashes++
				for o, q := range w.Queries {
					if o != e && q.Stmt.String() != q.Text {
						t.Fatalf("%s: overwriting a slice of entry %d changed entry %d to\n  %s\nfrom\n  %s", l.name, e, o, q.Stmt, q.Text)
					}
				}
				restore()
				if q := w.Queries[e]; q.Stmt.String() != q.Text {
					t.Fatalf("%s: overwriting one slice of entry %d changed another:\n  %s\nfrom\n  %s", l.name, e, q.Stmt, q.Text)
				}
			}
		}
		t.Logf("%s: %d entries, %d slices overwritten", l.name, w.Len(), smashes)
	}
}

// TestParseStatementsShareNoStorage holds INSERT, DELETE and SELECT
// statements from Parse to the same: overwriting a slice of one leaves
// every other equal to a second parse of its text, and itself too once
// put back.
func TestParseStatementsShareNoStorage(t *testing.T) {
	srcs := []string{
		"INSERT INTO t VALUES (1, 'a', 2), (2, 'b', 3, 4), (3)",
		"DELETE FROM t WHERE a IN (1, 2) AND (a = 1 OR b IN ('x', 'y', 'z')) AND b = 'w'",
		"INSERT INTO u VALUES (5, 6), (7, 8, 9, 10, 11)",
		"SELECT a FROM t WHERE a IN (1) OR b IN ('p', 'q') OR a = 4",
		"DELETE FROM t WHERE (b = 'q' OR a IN (4, 5, 6, 7) OR a < 0) AND a IN (9, 8, 7, 6, 5)",
		"DELETE FROM u",
	}
	parseAll := func() []sql.Statement {
		out := make([]sql.Statement, len(srcs))
		for i, src := range srcs {
			stmt, err := sql.Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			out[i] = stmt
		}
		return out
	}
	stmts, twins := parseAll(), parseAll()
	for e, stmt := range stmts {
		var smashes []func() func()
		switch s := stmt.(type) {
		case *sql.SelectStmt:
			smashes = selectSmashes(s)
		case *sql.DeleteStmt:
			smashes = predicateSmashes(&s.Where)
		case *sql.InsertStmt:
			smashes = []func() func(){func() func() { return smash(&s.Rows, value.Row{junkVal}) }}
			for i := range s.Rows {
				row := (*[]value.Value)(&s.Rows[i])
				smashes = append(smashes, func() func() { return smash(row, junkVal) })
			}
		}
		for _, s := range smashes {
			restore := s()
			for o := range stmts {
				if o != e && !reflect.DeepEqual(stmts[o], twins[o]) {
					t.Fatalf("overwriting a slice of %q changed %q", srcs[e], srcs[o])
				}
			}
			restore()
			if !reflect.DeepEqual(stmt, twins[e]) {
				t.Fatalf("overwriting one slice of %q changed another: %+v", srcs[e], stmt)
			}
		}
	}
}

// TestParseWorkloadRepeatedLineAllocs: a line that folds into an
// existing entry allocates its own text and nothing more, so a log of
// one statement repeated costs under 1.5 allocations a line with the
// first parse, the entry and the scanner's buffer spread over it.
func TestParseWorkloadRepeatedLineAllocs(t *testing.T) {
	sc := smallSchema(t)
	lines := strings.Split(strings.TrimSpace(growingLog(8)), "\n")
	log := strings.Repeat(lines[len(lines)-1]+"\n", 1000)
	allocs := testing.AllocsPerRun(10, func() {
		w, err := sql.ParseWorkload(strings.NewReader(log), sc)
		if err != nil || w.Len() != 1 || w.Queries[0].Freq != 2000 {
			t.Fatalf("ParseWorkload: %v", err)
		}
	})
	perLine := allocs / 1000
	if perLine > 1.5 {
		t.Fatalf("%.3f allocations per line (%v per log), want at most 1.5", perLine, allocs)
	}
	t.Logf("%.3f allocations per line (%v per log)", perLine, allocs)
}

// FuzzParseWorkload: on any log, ParseWorkload makes what parsing,
// resolving and adding every line on its own makes — the same entries
// with the same statements, frequencies to the bit — or fails with the
// same error. The seeds are testdata/fuzz/FuzzParseWorkload and a
// growing log.
func FuzzParseWorkload(f *testing.F) {
	sc := smallSchema(f)
	f.Add(growingLog(4))
	f.Fuzz(func(t *testing.T, log string) {
		want, wantErr := parsePerLine(log, sc)
		got, gotErr := sql.ParseWorkload(strings.NewReader(log), sc)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %v, reference %v", gotErr, wantErr)
			}
			return
		}
		if got.Len() != want.Len() {
			t.Fatalf("%d entries, reference %d", got.Len(), want.Len())
		}
		for i, g := range got.Queries {
			w := want.Queries[i]
			if g.Text != w.Text || g.Fingerprint != w.Fingerprint || math.Float64bits(g.Freq) != math.Float64bits(w.Freq) {
				t.Fatalf("entry %d is %q (%q) × %v, reference %q (%q) × %v", i, g.Text, g.Fingerprint, g.Freq, w.Text, w.Fingerprint, w.Freq)
			}
			if !reflect.DeepEqual(g.Stmt, w.Stmt) {
				t.Fatalf("entry %d holds %+v, reference %+v", i, g.Stmt, w.Stmt)
			}
		}
		checkCarried(t, "parsed", got)
	})
}
