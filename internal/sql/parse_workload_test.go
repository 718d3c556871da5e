package sql_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// parsePerLine is the reference ParseWorkload is held to: every line
// parsed, resolved and added through the public API.
func parsePerLine(text string, sc *catalog.Schema) (*sql.Workload, error) {
	w := &sql.Workload{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		freq := 1.0
		if prefix, rest, ok := strings.Cut(line, "|"); ok && prefix != "" {
			if f, err := strconv.ParseFloat(strings.TrimSpace(prefix), 64); err == nil && f > 0 && !math.IsInf(f, 1) {
				freq, line = f, strings.TrimSpace(rest)
			}
		}
		stmt, err := sql.ParseSelect(line)
		if err != nil {
			return nil, fmt.Errorf("workload line %d: %w", i+1, err)
		}
		if err := stmt.Resolve(sc); err != nil {
			return nil, fmt.Errorf("workload line %d: %w", i+1, err)
		}
		w.Add(stmt, freq)
	}
	return w, nil
}

var respell = strings.NewReplacer(
	"SELECT ", "select  ", " FROM ", "\tfrom ", " WHERE ", " where ", " AND ", "  AnD ",
	" GROUP BY ", " group   by ", " ORDER BY ", " Order By ", " OR ", " or ", " = ", "=")

// spelledLog writes every statement of w once and then `repeats` more
// lines that each repeat a drawn statement in one of the ways a log
// spells the same query: as written, with a frequency prefix (tight,
// padded, fractional, exponent form), and with other keyword case and
// whitespace. Comment and blank lines are interleaved.
func spelledLog(w *sql.Workload, repeats int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for _, q := range w.Queries {
		fmt.Fprintf(&b, "%s\n", q.Stmt)
	}
	for i := 0; i < repeats; i++ {
		text := w.Queries[rng.Intn(len(w.Queries))].Stmt.String()
		switch rng.Intn(8) {
		case 0:
			fmt.Fprintf(&b, "3|%s\n", text)
		case 1:
			fmt.Fprintf(&b, "  3 |  %s  \n", text)
		case 2:
			fmt.Fprintf(&b, "0.1|%s\n", text)
		case 3:
			fmt.Fprintf(&b, "1e1|%s\r\n", text)
		case 4:
			fmt.Fprintf(&b, "%s\n", respell.Replace(text))
		case 5:
			fmt.Fprintf(&b, "7|%s\n\n-- a comment | with a bar\n", respell.Replace(text))
		default:
			fmt.Fprintf(&b, "%s\n", text)
		}
	}
	return b.String()
}

type referenceDB struct {
	name string
	db   *engine.Database
	w    *sql.Workload
}

// referenceDBs builds the three reference databases small, each with a
// generated workload of disjunctive query shapes and constant-varied
// duplicates.
func referenceDBs(t *testing.T) []referenceDB {
	t.Helper()
	var out []referenceDB
	for _, name := range []string{"tpcd", "synthetic1", "synthetic2"} {
		db, err := datagen.BuildNamed(name, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(db, workload.Options{
			Class: workload.Complex, Queries: 30, Seed: 11, Disjunctions: true, Duplication: 150,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, referenceDB{name, db, w})
	}
	return out
}

// checkCarried fails unless every entry carries exactly what its
// statement renders.
func checkCarried(t *testing.T, what string, w *sql.Workload) {
	t.Helper()
	for i, q := range w.Queries {
		if q.Text == "" || q.Fingerprint == "" {
			t.Fatalf("%s: entry %d carries no text or fingerprint", what, i)
		}
		if q.Text != q.Stmt.String() || q.Fingerprint != q.Stmt.Fingerprint() {
			t.Fatalf("%s: entry %d carries\n  %q\n  %q\nits statement renders\n  %q\n  %q",
				what, i, q.Text, q.Fingerprint, q.Stmt.String(), q.Stmt.Fingerprint())
		}
	}
}

// TestParseWorkloadMatchesPerLineReference: however a log spells its
// repeats, ParseWorkload makes the reference's entries — canonical
// text, frequency to the bit, order.
func TestParseWorkloadMatchesPerLineReference(t *testing.T) {
	for _, r := range referenceDBs(t) {
		text := spelledLog(r.w, 2000, 3)
		want, err := parsePerLine(text, r.db.Schema())
		if err != nil {
			t.Fatalf("%s: reference: %v", r.name, err)
		}
		got, err := sql.ParseWorkload(strings.NewReader(text), r.db.Schema())
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got.Len() != want.Len() || got.Len() != r.w.Len() {
			t.Fatalf("%s: %d entries, reference %d, generated %d", r.name, got.Len(), want.Len(), r.w.Len())
		}
		for i := range want.Queries {
			g, w := got.Queries[i], want.Queries[i]
			if g.Stmt.String() != w.Stmt.String() {
				t.Fatalf("%s: entry %d is %q, reference %q", r.name, i, g.Stmt, w.Stmt)
			}
			if !reflect.DeepEqual(g.Stmt, w.Stmt) {
				t.Fatalf("%s: entry %d holds %+v, reference %+v", r.name, i, g.Stmt, w.Stmt)
			}
			if math.Float64bits(g.Freq) != math.Float64bits(w.Freq) {
				t.Fatalf("%s: entry %d has frequency %v, reference %v", r.name, i, g.Freq, w.Freq)
			}
		}
		checkCarried(t, r.name+" parsed", got)
		checkCarried(t, r.name+" generated", r.w)

		// An invalid statement on a line that repeats: same error, same
		// line number, whichever occurrence a parser reaches first.
		lines := strings.SplitAfter(text, "\n")
		bad := "2|SELECT no_such_column FROM " + r.w.Queries[0].Stmt.From[0] + "\n"
		broken := strings.Join(lines[:40], "") + bad + strings.Join(lines[40:60], "") + bad + strings.Join(lines[60:], "")
		_, wantErr := parsePerLine(broken, r.db.Schema())
		_, gotErr := sql.ParseWorkload(strings.NewReader(broken), r.db.Schema())
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, reference %v", r.name, gotErr, wantErr)
		}
		if !strings.Contains(gotErr.Error(), "workload line 41:") {
			t.Fatalf("%s: error %v does not name line 41", r.name, gotErr)
		}
	}
}

// TestVariantEntriesCarryTheirRender covers the generator that appends
// entries without Add.
func TestVariantEntriesCarryTheirRender(t *testing.T) {
	db, err := datagen.BuildNamed("tpcd", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := datagen.TPCDWorkloadVariants(db.Schema(), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkCarried(t, "tpcd variants", w)
	checkCarried(t, "tpcd variants compressed", w.Compress())
}

func TestParseWorkloadFrequencyPrefix(t *testing.T) {
	db, err := datagen.BuildNamed("synthetic1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.Schema().Tables()[0]
	q := "SELECT " + tbl.Columns[0].Name + " FROM " + tbl.Name
	parse := func(text string) (*sql.Workload, error) {
		return sql.ParseWorkload(strings.NewReader(text), db.Schema())
	}

	w, err := parse("12|" + q + "\n 0.5 |" + q + "\n1e2|" + q + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 || w.Queries[0].Freq != 112.5 {
		t.Errorf("prefixed lines gave %d entries, frequency %v; want 1, 112.5", w.Len(), w.Queries[0].Freq)
	}

	// A prefix with anything after the number, or a number that is not
	// finite and positive, is not a frequency: the whole line goes to the
	// parser, which rejects it.
	for _, prefix := range []string{"12abc", "12 3", "0", "-4", "abc", "inf", "Infinity", "-inf", "1e309", "nan"} {
		if _, err := parse(prefix + "|" + q + "\n"); err == nil || !strings.Contains(err.Error(), "workload line 1:") {
			t.Errorf("prefix %q: error %v, want a parse error on line 1", prefix, err)
		}
	}

	// A bar inside a string literal is part of the statement.
	lit := q + " WHERE " + tbl.Columns[0].Name + " = 'a|b'"
	w, err = parse(lit + "\n4|" + lit + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 || w.Queries[0].Freq != 5 || !strings.Contains(w.Queries[0].Text, "'a|b'") {
		t.Errorf("literal with a bar: %d entries, frequency %v, text %q", w.Len(), w.Queries[0].Freq, w.Queries[0].Text)
	}

	// A line over the scanner's limit is an error that names its line.
	long := q + "\n" + q + " WHERE " + tbl.Columns[0].Name + " IN (" + strings.Repeat("1, ", 400000) + "1)\n"
	if _, err := parse(long); err == nil || !strings.Contains(err.Error(), "workload line 2:") {
		t.Errorf("over-long line: error %v, want one naming line 2", err)
	}
}
