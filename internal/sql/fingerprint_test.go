package sql

import (
	"strings"
	"testing"

	"indexmerge/internal/value"
)

// TestFingerprintAbstractsConstants: queries differing only in literal
// constants share a fingerprint; queries differing in structure don't.
func TestFingerprintAbstractsConstants(t *testing.T) {
	same := [][2]string{
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 99"},
		{"SELECT a FROM t WHERE a BETWEEN 1 AND 5", "SELECT a FROM t WHERE a BETWEEN 7 AND 9"},
		{"SELECT a FROM t WHERE a IN (1, 2)", "SELECT a FROM t WHERE a IN (3, 4, 5)"},
		{"SELECT a FROM t WHERE (a = 1 OR b = 2)", "SELECT a FROM t WHERE (a = 7 OR b = 8)"},
		{
			"SELECT t.a, u.c FROM t, u WHERE t.a = u.c AND t.b < 3",
			"SELECT t.a, u.c FROM t, u WHERE t.a = u.c AND t.b < 42",
		},
	}
	for _, pair := range same {
		a, b := parseOK(t, pair[0]), parseOK(t, pair[1])
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("fingerprints differ:\n  %s -> %s\n  %s -> %s",
				pair[0], a.Fingerprint(), pair[1], b.Fingerprint())
		}
	}
	diff := [][2]string{
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE b = 1"},
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a < 1"},
		{"SELECT a FROM t WHERE a = 1", "SELECT b FROM t WHERE a = 1"},
		{"SELECT a FROM t WHERE (a = 1 OR b = 2)", "SELECT a FROM t WHERE (a = 1 OR a = 2)"},
	}
	for _, pair := range diff {
		a, b := parseOK(t, pair[0]), parseOK(t, pair[1])
		if a.Fingerprint() == b.Fingerprint() {
			t.Errorf("structurally different queries share fingerprint %q:\n  %s\n  %s",
				a.Fingerprint(), pair[0], pair[1])
		}
	}
}

// TestFingerprintINArity: IN lists collapse to a single '?' regardless
// of arity — index relevance depends only on the column.
func TestFingerprintINArity(t *testing.T) {
	a := parseOK(t, "SELECT a FROM t WHERE a IN (1, 2)")
	b := parseOK(t, "SELECT a FROM t WHERE a IN (1, 2, 3, 4)")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("IN arity leaked into fingerprint: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if !strings.Contains(a.Fingerprint(), "IN (?)") {
		t.Errorf("IN fingerprint = %q, want collapsed IN (?)", a.Fingerprint())
	}
}

// TestFingerprintRoundTrip: the fingerprint is stable under a
// parse(String()) round trip, so reloading a workload from its
// canonical text never re-clusters templates.
func TestFingerprintRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT a FROM t WHERE a = 1",
		"SELECT a, b FROM t WHERE a BETWEEN 2 AND 9 ORDER BY a",
		"SELECT a FROM t WHERE a IN (1, 2, 3)",
		"SELECT a FROM t WHERE (a = 1 OR b < 2) GROUP BY a",
		"SELECT t.a, u.c FROM t, u WHERE t.a = u.c AND t.b >= 5",
	}
	for _, src := range srcs {
		stmt := parseOK(t, src)
		again, err := ParseSelect(stmt.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", stmt.String(), err)
		}
		if got, want := again.Fingerprint(), stmt.Fingerprint(); got != want {
			t.Errorf("round-trip fingerprint drifted:\n  %q\n  %q", want, got)
		}
	}
}

// TestFingerprintUnresolvedVsResolved: resolution qualifies column
// references, so fingerprints are computed on resolved statements;
// two resolved copies of the same text always agree.
func TestFingerprintResolvedStable(t *testing.T) {
	sc := resolveSchema(t)
	a, err := ParseSelect("SELECT a FROM t WHERE b = 3")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Resolve(sc); err != nil {
		t.Fatal(err)
	}
	b, err := ParseSelect(a.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Resolve(sc); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("resolved fingerprints differ: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
}

// TestCanonicalIsOneRenderOfBoth: Canonical returns exactly String and
// Fingerprint, on every predicate form.
func TestCanonicalIsOneRenderOfBoth(t *testing.T) {
	for _, src := range []string{
		"SELECT a FROM t",
		"SELECT COUNT(*), SUM(b), a FROM t WHERE a BETWEEN 2 AND 9 AND b <> 'it''s' GROUP BY a ORDER BY a DESC, b",
		"SELECT a FROM t WHERE a IN (1, 2.5, NULL, DATE(7)) AND (a = 1 OR b IN ('x', 'y') OR a >= -3)",
		"SELECT t.a, u.c FROM t, u WHERE t.a = u.c AND t.b >= 5",
	} {
		stmt := parseOK(t, src)
		text, fp := stmt.Canonical()
		if text != stmt.String() || fp != stmt.Fingerprint() {
			t.Errorf("Canonical() = %q, %q; String() = %q, Fingerprint() = %q", text, fp, stmt.String(), stmt.Fingerprint())
		}
		if strings.Count(text, "'")%2 != 0 || strings.Contains(fp, "'") {
			t.Errorf("literal quoting leaked: %q, %q", text, fp)
		}
	}
}

// TestCopiedStatementRendersItsOwnConstants: the generators copy a
// statement by value, edit its constants and render the copy. Nothing
// about a render may be remembered on the statement, or the copy would
// come back as the template's text.
func TestCopiedStatementRendersItsOwnConstants(t *testing.T) {
	tmpl := parseOK(t, "SELECT a FROM t WHERE a = 1 AND b IN (2, 3)")
	tmplText, tmplFp := tmpl.Canonical()
	_ = tmpl.String()

	cp := *tmpl
	cp.Where = append([]Predicate(nil), tmpl.Where...)
	cp.Where[0].Val = value.NewInt(42)
	cp.Where[1].Vals = []value.Value{value.NewInt(7)}
	text, fp := cp.Canonical()
	if want := "SELECT a FROM t WHERE a = 42 AND b IN (7)"; text != want || cp.String() != want {
		t.Errorf("copy renders %q / %q, want %q", text, cp.String(), want)
	}
	if fp != tmplFp || cp.Fingerprint() != tmplFp {
		t.Errorf("copy's fingerprint %q, template's %q", fp, tmplFp)
	}
	if tmpl.String() != tmplText {
		t.Errorf("template now renders %q, was %q", tmpl.String(), tmplText)
	}

	// The same holds for a workload entry: what it carries is the
	// statement it was given, as it stood then.
	w := &Workload{}
	w.Add(tmpl, 1)
	w.Add(&cp, 1)
	if w.Len() != 2 || w.Queries[1].Text != text || w.Queries[0].Text != tmplText {
		t.Errorf("entries carry %q and %q", w.Queries[0].Text, w.Queries[1].Text)
	}
	if w.Queries[0].Fingerprint != w.Queries[1].Fingerprint {
		t.Errorf("entries of one template carry fingerprints %q and %q", w.Queries[0].Fingerprint, w.Queries[1].Fingerprint)
	}
}

// TestSameShapeIsFingerprintEquality: SameShape decides on the
// statements what equal fingerprints say on their renderings, for every
// pair of a list that varies one clause at a time.
func TestSameShapeIsFingerprintEquality(t *testing.T) {
	texts := []string{
		"SELECT a FROM t WHERE a = 1",
		"SELECT a FROM t WHERE a = 99",
		"SELECT a FROM t WHERE a < 1",
		"SELECT a FROM t WHERE b = 1",
		"SELECT b FROM t WHERE a = 1",
		"SELECT a, b FROM t WHERE a = 1",
		"SELECT COUNT(*) FROM t WHERE a = 1",
		"SELECT MAX(a) FROM t WHERE a = 1",
		"SELECT a FROM t WHERE a = 1 AND b = 2",
		"SELECT a FROM t WHERE b = 2 AND a = 1",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 5",
		"SELECT a FROM t WHERE a BETWEEN 7 AND 9",
		"SELECT a FROM t WHERE a IN (1, 2)",
		"SELECT a FROM t WHERE a IN (3, 4, 5)",
		"SELECT a FROM t WHERE (a = 1 OR b = 2)",
		"SELECT a FROM t WHERE (a = 7 OR b = 8)",
		"SELECT a FROM t WHERE (a = 1 OR a = 2)",
		"SELECT a FROM t WHERE (a = 1 OR b = 2 OR b = 3)",
		"SELECT a FROM t WHERE (a = 1 OR b IN (2, 3))",
		"SELECT a FROM t WHERE (a = 1 OR b IN (4))",
		"SELECT a FROM t WHERE a = 1 ORDER BY a",
		"SELECT a FROM t WHERE a = 1 ORDER BY a DESC",
		"SELECT a FROM t WHERE a = 1 GROUP BY a",
		"SELECT t.a, u.c FROM t, u WHERE t.a = u.c AND t.b < 3",
		"SELECT t.a, u.c FROM t, u WHERE t.a = u.c AND t.b < 42",
		"SELECT t.a, u.c FROM t, u WHERE t.b = u.c AND t.b < 3",
		"SELECT t.a, u.c FROM u, t WHERE t.a = u.c AND t.b < 3",
	}
	stmts := make([]*SelectStmt, len(texts))
	for i, text := range texts {
		stmts[i] = parseOK(t, text)
	}
	same := 0
	for i, a := range stmts {
		for j, b := range stmts {
			want := a.Fingerprint() == b.Fingerprint()
			if want && i != j {
				same++
			}
			if got := a.SameShape(b); got != want {
				t.Errorf("SameShape = %v, fingerprints equal = %v:\n  %s\n  %s", got, want, texts[i], texts[j])
			}
		}
	}
	if same < 10 {
		t.Fatalf("only %d ordered pairs of distinct statements share a fingerprint", same)
	}
}
