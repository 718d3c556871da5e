package sql

import (
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/value"
)

func parseOK(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("ParseSelect(%q): %v", src, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := parseOK(t, "SELECT a, b FROM t WHERE a = 5")
	if len(stmt.Select) != 2 || stmt.Select[0].Col.Column != "a" {
		t.Errorf("select list: %v", stmt.Select)
	}
	if len(stmt.From) != 1 || stmt.From[0] != "t" {
		t.Errorf("from: %v", stmt.From)
	}
	if len(stmt.Where) != 1 || stmt.Where[0].Op != OpEq || stmt.Where[0].Val.Int() != 5 {
		t.Errorf("where: %v", stmt.Where)
	}
}

func TestParseOperators(t *testing.T) {
	cases := map[string]CompareOp{
		"a = 1": OpEq, "a <> 1": OpNe, "a != 1": OpNe,
		"a < 1": OpLt, "a <= 1": OpLe, "a > 1": OpGt, "a >= 1": OpGe,
	}
	for cond, op := range cases {
		stmt := parseOK(t, "SELECT a FROM t WHERE "+cond)
		if stmt.Where[0].Op != op {
			t.Errorf("%q parsed op %v, want %v", cond, stmt.Where[0].Op, op)
		}
	}
}

func TestParseBetween(t *testing.T) {
	stmt := parseOK(t, "SELECT a FROM t WHERE a BETWEEN 3 AND 7 AND b = 'x'")
	if len(stmt.Where) != 2 {
		t.Fatalf("where: %v", stmt.Where)
	}
	p := stmt.Where[0]
	if p.Op != OpBetween || p.Lo.Int() != 3 || p.Hi.Int() != 7 {
		t.Errorf("between: %+v", p)
	}
	if stmt.Where[1].Val.Str() != "x" {
		t.Errorf("second pred: %+v", stmt.Where[1])
	}
}

func TestParseLiterals(t *testing.T) {
	stmt := parseOK(t, "SELECT a FROM t WHERE a = -3 AND b = 2.75 AND c = 'o''brien' AND d = DATE(123) AND e = NULL")
	vals := []value.Value{
		stmt.Where[0].Val, stmt.Where[1].Val, stmt.Where[2].Val, stmt.Where[3].Val, stmt.Where[4].Val,
	}
	if vals[0].Int() != -3 {
		t.Errorf("int literal: %v", vals[0])
	}
	if vals[1].Float() != 2.75 {
		t.Errorf("float literal: %v", vals[1])
	}
	if vals[2].Str() != "o'brien" {
		t.Errorf("string literal: %v", vals[2])
	}
	if vals[3].Kind() != value.Date || vals[3].Int() != 123 {
		t.Errorf("date literal: %v", vals[3])
	}
	if !vals[4].IsNull() {
		t.Errorf("null literal: %v", vals[4])
	}
}

func TestParseJoins(t *testing.T) {
	stmt := parseOK(t, "SELECT t.a FROM t, u WHERE t.a = u.b AND t.c = 5")
	if len(stmt.Joins) != 1 {
		t.Fatalf("joins: %v", stmt.Joins)
	}
	j := stmt.Joins[0]
	if j.Left.Table != "t" || j.Right.Table != "u" {
		t.Errorf("join: %v", j)
	}
	if len(stmt.Where) != 1 {
		t.Errorf("where: %v", stmt.Where)
	}
}

func TestParseAggregatesAndGrouping(t *testing.T) {
	stmt := parseOK(t, "SELECT a, COUNT(*), SUM(b), AVG(c), MIN(d), MAX(e), COUNT(f) FROM t GROUP BY a ORDER BY a DESC")
	wantAggs := []AggFunc{AggNone, AggCountStar, AggSum, AggAvg, AggMin, AggMax, AggCount}
	for i, want := range wantAggs {
		if stmt.Select[i].Agg != want {
			t.Errorf("item %d agg = %v, want %v", i, stmt.Select[i].Agg, want)
		}
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Column != "a" {
		t.Errorf("group by: %v", stmt.GroupBy)
	}
	if len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc {
		t.Errorf("order by: %v", stmt.OrderBy)
	}
}

func TestParseComments(t *testing.T) {
	stmt := parseOK(t, "SELECT a FROM t -- trailing comment\nWHERE a = 1")
	if len(stmt.Where) != 1 {
		t.Errorf("comment handling broke where: %v", stmt.Where)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"UPDATE t SET a = 1",
		"DELETE t",
		"DELETE FROM t WHERE",
		"DELETE FROM t WHERE a = b AND c = 1", // join predicate in DELETE
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a",
		"SELECT a FROM t WHERE a = ",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT a FROM t WHERE a < b AND 1 = 1", // non-equality join
		"SELECT a FROM t GROUP",
		"SELECT a FROM t ORDER a",
		"SELECT a FROM t trailing",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT a FROM t WHERE a = DATE(x)",
		"SELECT SUM( FROM t",
		"SELECT a FROM t WHERE a ! 1",
		"SELECT a FROM t WHERE a = 1 ;",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestLexNonASCII: identifiers are ASCII. A byte above 0x7F outside a
// string literal or comment is one error that quotes the whole
// character at the offset it starts at — the lexer used to read bytes
// as Latin-1, taking \xC3\xAA (ê) for an identifier and failing on the
// second byte of \xC3\xB1 (ñ) with a mangled character.
func TestLexNonASCII(t *testing.T) {
	for src, want := range map[string]string{
		"SELECT ê FROM t":             `non-ASCII character 'ê' at offset 7`,
		"SELECT ñ FROM t":             `non-ASCII character 'ñ' at offset 7`,
		"SELECT a FROM tñ":            `non-ASCII character 'ñ' at offset 15`,
		"SELECT a FROM t WHERE 日 = 1": `non-ASCII character '日' at offset 22`,
		"SELECT a\xff FROM t":         `non-ASCII character '�' at offset 8`,
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q): error %v, want %q", src, err, want)
		}
	}
	stmt := parseOK(t, "SELECT a FROM t WHERE a = 'ñ日''ê' -- ünïcode in a comment")
	if got := stmt.Where[0].Val.Str(); got != "ñ日'ê" {
		t.Errorf("string literal came back as %q", got)
	}
	if got := stmt.String(); got != "SELECT a FROM t WHERE a = 'ñ日''ê'" {
		t.Errorf("rendered %q", got)
	}
}

// TestLexStringLiterals: a literal without a doubled quote is a slice
// of the source; one with it is unescaped.
func TestLexStringLiterals(t *testing.T) {
	for src, want := range map[string]string{
		"''":         "",
		"'abc'":      "abc",
		"'it''s'":    "it's",
		"''''":       "'",
		"'a''''b'":   "a''b",
		"'-- no'":    "-- no",
		"'a|b, (c)'": "a|b, (c)",
	} {
		stmt := parseOK(t, "SELECT a FROM t WHERE a = "+src)
		if got := stmt.Where[0].Val.Str(); got != want {
			t.Errorf("literal %s lexed as %q, want %q", src, got, want)
		}
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b', NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins, ok := stmt.(*InsertStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Errorf("insert: %+v", ins)
	}
	if !ins.Rows[1][2].IsNull() {
		t.Errorf("null value: %v", ins.Rows[1][2])
	}
}

func TestParseDelete(t *testing.T) {
	stmt, err := Parse("DELETE FROM t WHERE a = 1 AND b BETWEEN 2 AND 3")
	if err != nil {
		t.Fatal(err)
	}
	del, ok := stmt.(*DeleteStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if del.Table != "t" || len(del.Where) != 2 {
		t.Errorf("delete: %+v", del)
	}
	// No WHERE deletes everything.
	stmt, err = Parse("DELETE FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if del := stmt.(*DeleteStmt); len(del.Where) != 0 {
		t.Errorf("where: %v", del.Where)
	}
}

func TestDeleteResolve(t *testing.T) {
	s := resolveSchema(t)
	del := &DeleteStmt{Table: "t", Where: []Predicate{{Col: ColumnRef{Column: "a"}, Op: OpEq}}}
	if err := del.Resolve(s); err != nil {
		t.Fatal(err)
	}
	if del.Where[0].Col.Table != "t" {
		t.Error("column not qualified")
	}
	bad := &DeleteStmt{Table: "missing"}
	if err := bad.Resolve(s); err == nil {
		t.Error("unknown table accepted")
	}
	bad2 := &DeleteStmt{Table: "t", Where: []Predicate{{Col: ColumnRef{Table: "u", Column: "c"}, Op: OpEq}}}
	if err := bad2.Resolve(s); err == nil {
		t.Error("cross-table predicate accepted")
	}
	bad3 := &DeleteStmt{Table: "t", Where: []Predicate{{Col: ColumnRef{Column: "zz"}, Op: OpEq}}}
	if err := bad3.Resolve(s); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestParseRoundTrip(t *testing.T) {
	// String() must render canonical SQL that reparses to the same text.
	srcs := []string{
		"SELECT a, b FROM t WHERE a = 5",
		"SELECT t.a, SUM(u.b) FROM t, u WHERE t.a = u.a AND t.c BETWEEN 1 AND 2 GROUP BY t.a ORDER BY t.a",
		"SELECT COUNT(*) FROM t",
		"SELECT a FROM t WHERE b = 'x''y' ORDER BY a DESC",
		"SELECT a FROM t WHERE d >= DATE(8401)",
	}
	for _, src := range srcs {
		s1 := parseOK(t, src)
		text1 := s1.String()
		s2 := parseOK(t, text1)
		if text2 := s2.String(); text2 != text1 {
			t.Errorf("round trip diverged:\n  1: %s\n  2: %s", text1, text2)
		}
	}
}

func resolveSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema()
	if err := s.AddTable(catalog.MustNewTable("t", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.String, Width: 8},
		{Name: "shared", Type: value.Int},
	})); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(catalog.MustNewTable("u", []catalog.Column{
		{Name: "c", Type: value.Int},
		{Name: "shared", Type: value.Int},
	})); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResolveQualifiesColumns(t *testing.T) {
	s := resolveSchema(t)
	stmt := parseOK(t, "SELECT a, c FROM t, u WHERE a = c")
	if err := stmt.Resolve(s); err != nil {
		t.Fatal(err)
	}
	if stmt.Select[0].Col.Table != "t" || stmt.Select[1].Col.Table != "u" {
		t.Errorf("resolution: %v", stmt.Select)
	}
	if len(stmt.Joins) != 1 || stmt.Joins[0].Left.Table != "t" || stmt.Joins[0].Right.Table != "u" {
		t.Errorf("join resolution: %v", stmt.Joins)
	}
}

func TestResolveErrors(t *testing.T) {
	s := resolveSchema(t)
	cases := []struct {
		src  string
		want string
	}{
		{"SELECT a FROM missing", "unknown table"},
		{"SELECT zz FROM t", "unknown column"},
		{"SELECT shared FROM t, u", "ambiguous"},
		{"SELECT u.c FROM t", "not in FROM"},
		{"SELECT t.zz FROM t", "unknown column"},
		{"SELECT t.a FROM t, u WHERE t.a = t.shared", "self-join"},
	}
	for _, c := range cases {
		stmt := parseOK(t, c.src)
		err := stmt.Resolve(s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Resolve(%q) = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestColumnsOfAndPredicatesOn(t *testing.T) {
	s := resolveSchema(t)
	stmt := parseOK(t, "SELECT t.a, COUNT(*) FROM t, u WHERE t.a = u.c AND t.b = 'x' GROUP BY t.a ORDER BY t.a")
	if err := stmt.Resolve(s); err != nil {
		t.Fatal(err)
	}
	cols := stmt.ColumnsOf("t")
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("ColumnsOf(t) = %v", cols)
	}
	if got := stmt.ColumnsOf("u"); len(got) != 1 || got[0] != "c" {
		t.Errorf("ColumnsOf(u) = %v", got)
	}
	preds := stmt.PredicatesOn("t")
	if len(preds) != 1 || preds[0].Col.Column != "b" {
		t.Errorf("PredicatesOn(t) = %v", preds)
	}
	if got := stmt.JoinColumnsOf("u"); len(got) != 1 || got[0] != "c" {
		t.Errorf("JoinColumnsOf(u) = %v", got)
	}
	if got := stmt.TablesReferenced(); len(got) != 2 {
		t.Errorf("TablesReferenced = %v", got)
	}
}
