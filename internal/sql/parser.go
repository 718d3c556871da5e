package sql

import (
	"fmt"
	"strconv"
	"strings"

	"indexmerge/internal/value"
)

// Parse parses one statement (SELECT or INSERT).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
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

// ParseSelect parses a single SELECT statement.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return sel, nil
}

type parser struct {
	toks []token
	pos  int
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
	stmt := &SelectStmt{}
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
		if err := p.parseConjunction(stmt); err != nil {
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
// parenthesized; there is no operator-precedence climbing.
func (p *parser) parseConjunction(stmt *SelectStmt) error {
	for first := true; ; first = false {
		if p.peekSymbol("(") {
			pred, err := p.parseDisjunctionGroup()
			if err != nil {
				return err
			}
			stmt.Where = append(stmt.Where, pred)
		} else {
			nWhere := len(stmt.Where)
			if err := p.parsePredicate(stmt); err != nil {
				return err
			}
			if p.peekKeyword("OR") {
				if !first || len(stmt.Where) != nWhere+1 {
					return fmt.Errorf("sql: parenthesize OR disjunctions mixed with AND or joins at offset %d", p.peek().pos)
				}
				disj := []Predicate{stmt.Where[nWhere]}
				stmt.Where = stmt.Where[:nWhere]
				for p.acceptKeyword("OR") {
					d, err := p.parseSimplePredicate()
					if err != nil {
						return err
					}
					disj = append(disj, d)
				}
				stmt.Where = append(stmt.Where, Predicate{Op: OpOr, Or: disj})
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
	var disj []Predicate
	for {
		d, err := p.parseSimplePredicate()
		if err != nil {
			return Predicate{}, err
		}
		disj = append(disj, d)
		if !p.acceptKeyword("OR") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return Predicate{}, err
	}
	if len(disj) == 1 {
		return disj[0], nil
	}
	return Predicate{Op: OpOr, Or: disj}, nil
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

// parseInList parses '(' literal (',' literal)* ')'.
func (p *parser) parseInList() ([]value.Value, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var vals []value.Value
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return vals, nil
}

func (p *parser) parsePredicate(stmt *SelectStmt) error {
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
		// Reuse the SELECT predicate machinery via a scratch statement.
		scratch := &SelectStmt{From: []string{table}}
		if err := p.parseConjunction(scratch); err != nil {
			return nil, err
		}
		if len(scratch.Joins) > 0 {
			return nil, fmt.Errorf("sql: DELETE cannot contain join predicates")
		}
		stmt.Where = scratch.Where
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
	stmt := &InsertStmt{Table: table}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row value.Row
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return stmt, nil
}
