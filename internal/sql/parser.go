package sql

import (
	"fmt"
	"strconv"
	"strings"

	"indexmerge/internal/value"
)

// Parse parses one statement (SELECT, INSERT or DELETE).
func Parse(src string) (Statement, error) {
	var p parser
	stmt, err := p.parse(src)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *InsertStmt:
		return s.clone(), nil
	case *DeleteStmt:
		return s.clone(), nil
	}
	return stmt.(*SelectStmt).clone(), nil
}

// ParseSelect parses a single SELECT statement.
func ParseSelect(src string) (*SelectStmt, error) {
	var p parser
	sel, err := p.parseSelectStmt(src)
	if err != nil {
		return nil, err
	}
	return sel.clone(), nil
}

// parser turns one statement at a time into storage it owns and
// reuses: the token buffer, one SelectStmt whose slices are truncated
// and refilled (a DELETE's WHERE is parsed into it too), and arenas
// that IN lists and INSERT rows (vals) and OR disjuncts (ors) are
// carved from. A statement it returns is valid until the next parse;
// Parse and ParseSelect hand out a clone, ParseWorkload clones only a
// statement that makes a new entry.
type parser struct {
	toks []token
	pos  int
	sel  SelectStmt
	vals []value.Value
	ors  []Predicate
	rows []value.Row // an INSERT's rows
}

// parse lexes src into the parser's storage, empties what the last
// statement left there and parses one statement.
func (p *parser) parse(src string) (Statement, error) {
	toks, err := lex(src, p.toks)
	if err != nil {
		return nil, err
	}
	p.toks, p.pos = toks, 0
	s := &p.sel
	s.Select, s.From, s.Joins, s.Where = s.Select[:0], s.From[:0], s.Joins[:0], s.Where[:0]
	s.GroupBy, s.OrderBy = s.GroupBy[:0], s.OrderBy[:0]
	p.vals, p.ors, p.rows = p.vals[:0], p.ors[:0], p.rows[:0]
	var stmt Statement
	switch {
	case p.peekKeyword("SELECT"):
		stmt, err = p.parseSelect()
	case p.peekKeyword("INSERT"):
		stmt, err = p.parseInsert()
	case p.peekKeyword("DELETE"):
		stmt, err = p.parseDelete()
	default:
		return nil, fmt.Errorf("sql: expected SELECT, INSERT or DELETE, got %q", p.peek().text)
	}
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sql: trailing input %q at offset %d", p.peek().text, p.peek().pos)
	}
	return stmt, nil
}

// parseSelectStmt parses src, which must be a SELECT, into the
// parser's storage.
func (p *parser) parseSelectStmt(src string) (*SelectStmt, error) {
	stmt, err := p.parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return sel, nil
}

// capped returns s[from:], nil when that is empty, with its capacity
// cut to its length: an append to it reallocates instead of writing
// over whatever the backing array holds next.
func capped[T any](s []T, from int) []T {
	if len(s) == from {
		return nil
	}
	return s[from:len(s):len(s)]
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, got %q at offset %d", kw, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *parser) peekSymbol(sym string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == sym
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peekSymbol(sym) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("sql: expected %q, got %q at offset %d", sym, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q at offset %d", t.text, t.pos)
	}
	p.pos++
	return t.text, nil
}

// parseColumnRef parses ident [ '.' ident ].
func (p *parser) parseColumnRef() (ColumnRef, error) {
	first, err := p.expectIdent()
	if err != nil {
		return ColumnRef{}, err
	}
	if p.acceptSymbol(".") {
		second, err := p.expectIdent()
		if err != nil {
			return ColumnRef{}, err
		}
		return ColumnRef{Table: first, Column: second}, nil
	}
	return ColumnRef{Column: first}, nil
}

var aggKeywords = map[string]AggFunc{
	"COUNT": AggCount,
	"SUM":   AggSum,
	"AVG":   AggAvg,
	"MIN":   AggMin,
	"MAX":   AggMax,
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &p.sel
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Select = append(stmt.Select, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, t)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		if err := p.parseConjunction(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	// The parenthesis is tested first: upper-casing a column name to
	// look it up would allocate on every plain select item.
	if t.kind == tokIdent && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
		if agg, ok := aggKeywords[strings.ToUpper(t.text)]; ok {
			p.pos += 2 // agg name and '('
			if agg == AggCount && p.acceptSymbol("*") {
				if err := p.expectSymbol(")"); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Agg: AggCountStar}, nil
			}
			col, err := p.parseColumnRef()
			if err != nil {
				return SelectItem{}, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: agg, Col: col}, nil
		}
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

// parseConjunction parses term (AND term)*, where a term is either a
// predicate (column=column comparisons classify as joins), a
// parenthesized OR disjunction, or — when the whole clause is one
// disjunction — a bare pred OR pred chain. OR mixed with AND must be
// parenthesized; there is no operator-precedence climbing. Predicates
// and joins go into the parser's statement.
func (p *parser) parseConjunction() error {
	stmt := &p.sel
	for first := true; ; first = false {
		if p.peekSymbol("(") {
			pred, err := p.parseDisjunctionGroup()
			if err != nil {
				return err
			}
			stmt.Where = append(stmt.Where, pred)
		} else {
			nWhere := len(stmt.Where)
			if err := p.parsePredicate(); err != nil {
				return err
			}
			if p.peekKeyword("OR") {
				if !first || len(stmt.Where) != nWhere+1 {
					return fmt.Errorf("sql: parenthesize OR disjunctions mixed with AND or joins at offset %d", p.peek().pos)
				}
				start := len(p.ors)
				p.ors = append(p.ors, stmt.Where[nWhere])
				stmt.Where = stmt.Where[:nWhere]
				for p.acceptKeyword("OR") {
					d, err := p.parseSimplePredicate()
					if err != nil {
						return err
					}
					p.ors = append(p.ors, d)
				}
				stmt.Where = append(stmt.Where, Predicate{Op: OpOr, Or: capped(p.ors, start)})
				if p.peekKeyword("AND") {
					return fmt.Errorf("sql: parenthesize OR disjunctions mixed with AND at offset %d", p.peek().pos)
				}
			}
		}
		if !p.acceptKeyword("AND") {
			return nil
		}
	}
}

// parseDisjunctionGroup parses '(' pred (OR pred)* ')'. A single
// parenthesized predicate collapses to the predicate itself, so the
// canonical printer (which parenthesizes only true disjunctions)
// round-trips.
func (p *parser) parseDisjunctionGroup() (Predicate, error) {
	if err := p.expectSymbol("("); err != nil {
		return Predicate{}, err
	}
	start := len(p.ors)
	for {
		d, err := p.parseSimplePredicate()
		if err != nil {
			return Predicate{}, err
		}
		p.ors = append(p.ors, d)
		if !p.acceptKeyword("OR") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return Predicate{}, err
	}
	if len(p.ors) == start+1 {
		return p.ors[start], nil
	}
	return Predicate{Op: OpOr, Or: capped(p.ors, start)}, nil
}

// parseSimplePredicate parses one column-vs-literal restriction
// (comparison, BETWEEN, or IN). Join predicates are rejected — the
// callers use it inside OR disjunctions, which restrict one table.
func (p *parser) parseSimplePredicate() (Predicate, error) {
	col, err := p.parseColumnRef()
	if err != nil {
		return Predicate{}, err
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseLiteral()
		if err != nil {
			return Predicate{}, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return Predicate{}, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Col: col, Op: OpBetween, Lo: lo, Hi: hi}, nil
	}
	if p.acceptKeyword("IN") {
		vals, err := p.parseInList()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Col: col, Op: OpIn, Vals: vals}, nil
	}
	op, err := p.parseCompareOp()
	if err != nil {
		return Predicate{}, err
	}
	if p.peek().kind == tokIdent && !p.peekLiteralKeyword() {
		return Predicate{}, fmt.Errorf("sql: join predicates cannot appear in OR disjunctions (offset %d)", p.peek().pos)
	}
	val, err := p.parseLiteral()
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Col: col, Op: op, Val: val}, nil
}

// parseInList parses '(' literal (',' literal)* ')' — an IN list or an
// INSERT row — into the parser's value arena.
func (p *parser) parseInList() ([]value.Value, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	start := len(p.vals)
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		p.vals = append(p.vals, v)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return capped(p.vals, start), nil
}

func (p *parser) parsePredicate() error {
	stmt := &p.sel
	col, err := p.parseColumnRef()
	if err != nil {
		return err
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseLiteral()
		if err != nil {
			return err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return err
		}
		stmt.Where = append(stmt.Where, Predicate{Col: col, Op: OpBetween, Lo: lo, Hi: hi})
		return nil
	}
	if p.acceptKeyword("IN") {
		vals, err := p.parseInList()
		if err != nil {
			return err
		}
		stmt.Where = append(stmt.Where, Predicate{Col: col, Op: OpIn, Vals: vals})
		return nil
	}
	op, err := p.parseCompareOp()
	if err != nil {
		return err
	}
	// Column on the right side means a join predicate.
	if p.peek().kind == tokIdent && !p.peekLiteralKeyword() {
		right, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		if op != OpEq {
			return fmt.Errorf("sql: only equality joins are supported, got %s", op)
		}
		stmt.Joins = append(stmt.Joins, JoinPred{Left: col, Right: right})
		return nil
	}
	val, err := p.parseLiteral()
	if err != nil {
		return err
	}
	stmt.Where = append(stmt.Where, Predicate{Col: col, Op: op, Val: val})
	return nil
}

// peekLiteralKeyword reports whether the next identifier token is a
// literal-introducing keyword (DATE or NULL) rather than a column name.
func (p *parser) peekLiteralKeyword() bool {
	t := p.peek()
	return t.kind == tokIdent && (strings.EqualFold(t.text, "DATE") || strings.EqualFold(t.text, "NULL"))
}

func (p *parser) parseCompareOp() (CompareOp, error) {
	t := p.peek()
	if t.kind != tokSymbol {
		return 0, fmt.Errorf("sql: expected comparison operator, got %q at offset %d", t.text, t.pos)
	}
	var op CompareOp
	switch t.text {
	case "=":
		op = OpEq
	case "<>":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return 0, fmt.Errorf("sql: unknown operator %q at offset %d", t.text, t.pos)
	}
	p.pos++
	return op, nil
}

// parseLiteral parses a number, string, NULL, or DATE(n).
func (p *parser) parseLiteral() (value.Value, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return value.Value{}, fmt.Errorf("sql: bad number %q: %v", t.text, err)
			}
			return value.NewFloat(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("sql: bad number %q: %v", t.text, err)
		}
		return value.NewInt(i), nil
	case t.kind == tokString:
		p.pos++
		return value.NewString(t.text), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "NULL"):
		p.pos++
		return value.NewNull(), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "DATE"):
		p.pos++
		if err := p.expectSymbol("("); err != nil {
			return value.Value{}, err
		}
		n := p.peek()
		if n.kind != tokNumber {
			return value.Value{}, fmt.Errorf("sql: DATE() needs a day number at offset %d", n.pos)
		}
		p.pos++
		day, err := strconv.ParseInt(n.text, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("sql: bad day number %q: %v", n.text, err)
		}
		if err := p.expectSymbol(")"); err != nil {
			return value.Value{}, err
		}
		return value.NewDate(day), nil
	}
	return value.Value{}, fmt.Errorf("sql: expected literal, got %q at offset %d", t.text, t.pos)
}

// parseDelete parses DELETE FROM table [WHERE conj]. Join predicates
// are rejected — deletes target one table.
func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		// The SELECT predicate machinery parses into the parser's
		// statement, which a DELETE leaves otherwise empty.
		if err := p.parseConjunction(); err != nil {
			return nil, err
		}
		if len(p.sel.Joins) > 0 {
			return nil, fmt.Errorf("sql: DELETE cannot contain join predicates")
		}
		stmt.Where = p.sel.Where
	}
	return stmt, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		row, err := p.parseInList()
		if err != nil {
			return nil, err
		}
		p.rows = append(p.rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return &InsertStmt{Table: table, Rows: p.rows}, nil
}

// clone copies a statement out of the parser's storage: the statement
// and every slice it holds are new, and an empty slice is nil, so that
// a clone is reflect.DeepEqual to the statement appends to nil slices
// would build.
func (s *SelectStmt) clone() *SelectStmt {
	return &SelectStmt{
		Select: fresh(s.Select), From: fresh(s.From), Joins: fresh(s.Joins), Where: clonePredicates(s.Where),
		GroupBy: fresh(s.GroupBy), OrderBy: fresh(s.OrderBy),
	}
}

func (s *DeleteStmt) clone() *DeleteStmt {
	return &DeleteStmt{Table: s.Table, Where: clonePredicates(s.Where)}
}

func (s *InsertStmt) clone() *InsertStmt {
	n := 0
	for _, r := range s.Rows {
		n += len(r)
	}
	vals := make([]value.Value, 0, n)
	rows := make([]value.Row, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = carve(&vals, r)
	}
	return &InsertStmt{Table: s.Table, Rows: rows}
}

// clonePredicates copies a conjunction; its IN lists and OR disjuncts
// are carved, capped, from one new array each.
func clonePredicates(ps []Predicate) []Predicate {
	if len(ps) == 0 {
		return nil
	}
	nVals, nOr := 0, 0
	for i := range ps {
		nVals += len(ps[i].Vals)
		nOr += len(ps[i].Or)
		for _, d := range ps[i].Or {
			nVals += len(d.Vals)
		}
	}
	vals := make([]value.Value, 0, nVals)
	ors := make([]Predicate, 0, nOr)
	out := make([]Predicate, len(ps))
	for i, p := range ps {
		p.Vals = carve(&vals, p.Vals)
		start := len(ors)
		for _, d := range p.Or {
			d.Vals = carve(&vals, d.Vals)
			ors = append(ors, d)
		}
		p.Or = capped(ors, start)
		out[i] = p
	}
	return out
}

// fresh returns a copy of s in an array of its own, nil when s is empty.
func fresh[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// carve appends src to *arena and returns the copy, capped.
func carve[T any](arena *[]T, src []T) []T {
	start := len(*arena)
	*arena = append(*arena, src...)
	return capped(*arena, start)
}
