// Package sql defines the query language subset the engine speaks:
// single-block SELECT statements with conjunctive predicates,
// equi-joins, grouping, ordering and aggregation, plus INSERT for the
// maintenance experiments. It includes a lexer, parser, resolver and
// printer so workloads can live in plain-text files the way the
// paper's server-side workload logs do.
package sql

import (
	"fmt"
	"slices"
	"sort"

	"indexmerge/internal/catalog"
	"indexmerge/internal/value"
)

// ColumnRef names a column, optionally qualified by table.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference.
func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// CompareOp enumerates predicate comparison operators.
type CompareOp int

// Comparison operators. Between is represented by its own Predicate
// fields rather than an operator pair.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween
	OpIn // Col IN (Vals...)
	OpOr // disjunction of the Or predicates, all on one table
)

// String renders the operator in SQL syntax.
func (o CompareOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpIn:
		return "IN"
	case OpOr:
		return "OR"
	}
	return "?"
}

// IsEquality reports whether the operator is =.
func (o CompareOp) IsEquality() bool { return o == OpEq }

// IsRange reports whether the operator restricts a contiguous range
// usable by an index seek (<, <=, >, >=, BETWEEN).
func (o CompareOp) IsRange() bool {
	switch o {
	case OpLt, OpLe, OpGt, OpGe, OpBetween:
		return true
	}
	return false
}

// Predicate is a restriction: Col Op Val, Col BETWEEN Lo AND Hi,
// Col IN (Vals...), or — for OpOr — a disjunction of simple predicates
// that must all restrict columns of one table. A disjunction is one
// Predicate so conjunction-shaped plumbing (residual lists, filters,
// selectivity products) treats it as a single opaque condition.
type Predicate struct {
	Col  ColumnRef
	Op   CompareOp
	Val  value.Value   // for non-BETWEEN ops
	Lo   value.Value   // BETWEEN lower bound
	Hi   value.Value   // BETWEEN upper bound
	Vals []value.Value // IN list members
	Or   []Predicate   // OpOr disjuncts (simple or IN, never nested OR)
}

// String renders the predicate.
func (p Predicate) String() string {
	var buf [renderBuf]byte
	c := canon{text: buf[:0], noFp: true}.predicate(&p)
	return string(c.text)
}

// Disjuncts normalizes a disjunctive predicate into its member
// predicates: IN lists expand to one equality per value, and IN
// members inside an OR expand the same way. Simple predicates return
// nil. The result never contains OpIn or OpOr — this is the
// normalization the optimizer's union paths and the reference
// evaluator both consume.
func (p Predicate) Disjuncts() []Predicate {
	switch p.Op {
	case OpIn:
		out := make([]Predicate, len(p.Vals))
		for i, v := range p.Vals {
			out[i] = Predicate{Col: p.Col, Op: OpEq, Val: v}
		}
		return out
	case OpOr:
		var out []Predicate
		for _, d := range p.Or {
			if d.Op == OpIn {
				out = append(out, d.Disjuncts()...)
			} else {
				out = append(out, d)
			}
		}
		return out
	}
	return nil
}

// JoinPred is an equality join between two columns of different tables.
type JoinPred struct {
	Left  ColumnRef
	Right ColumnRef
}

// String renders the join predicate.
func (j JoinPred) String() string { return j.Left.String() + " = " + j.Right.String() }

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions; AggNone marks a plain column reference.
const (
	AggNone AggFunc = iota
	AggCount
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String renders the aggregate keyword.
func (a AggFunc) String() string {
	switch a {
	case AggCount, AggCountStar:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return ""
}

// SelectItem is one output expression: a column or an aggregate.
type SelectItem struct {
	Agg AggFunc
	Col ColumnRef // unused for AggCountStar
}

// String renders the item.
func (s SelectItem) String() string {
	var buf [64]byte
	return string(canon{text: buf[:0], noFp: true}.selectItem(s).text)
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

// String renders the order key.
func (o OrderItem) String() string {
	if o.Desc {
		return o.Col.String() + " DESC"
	}
	return o.Col.String()
}

// SelectStmt is a single-block query:
//
//	SELECT items FROM tables WHERE joins AND predicates
//	GROUP BY cols ORDER BY keys
type SelectStmt struct {
	Select  []SelectItem
	From    []string
	Joins   []JoinPred
	Where   []Predicate
	GroupBy []ColumnRef
	OrderBy []OrderItem
}

// InsertStmt appends literal rows to a table.
type InsertStmt struct {
	Table string
	Rows  []value.Row
}

// DeleteStmt removes the rows of one table matching a conjunction of
// simple predicates (no joins).
type DeleteStmt struct {
	Table string
	Where []Predicate
}

// Resolve validates the delete's table and predicate columns.
func (s *DeleteStmt) Resolve(sc *catalog.Schema) error {
	t, ok := sc.Table(s.Table)
	if !ok {
		return fmt.Errorf("sql: unknown table %q", s.Table)
	}
	check := func(c *ColumnRef) error {
		if c.Table == "" {
			c.Table = s.Table
		}
		if c.Table != s.Table {
			return fmt.Errorf("sql: DELETE predicate references table %q", c.Table)
		}
		if !t.HasColumn(c.Column) {
			return fmt.Errorf("sql: unknown column %s", c)
		}
		return nil
	}
	for i := range s.Where {
		p := &s.Where[i]
		if p.Op == OpOr {
			for j := range p.Or {
				if err := check(&p.Or[j].Col); err != nil {
					return err
				}
			}
			p.Col = ColumnRef{Table: s.Table}
			continue
		}
		if err := check(&p.Col); err != nil {
			return err
		}
	}
	return nil
}

// Statement is any parsed statement.
type Statement interface{ isStatement() }

func (*SelectStmt) isStatement() {}
func (*InsertStmt) isStatement() {}
func (*DeleteStmt) isStatement() {}

// String renders the query as canonical SQL text. Canonical rendering
// makes syntactic workload compression (paper §3.5.3) a string-equality
// test.
func (s *SelectStmt) String() string {
	var buf [renderBuf]byte
	c := canon{text: buf[:0], noFp: true}.statement(s)
	return string(c.text)
}

// Fingerprint returns the canonical rendering with every literal
// constant abstracted to '?'. Two queries share a fingerprint exactly
// when they differ only in predicate constants, so fingerprint-equal
// queries reference the same tables, columns and operators — they
// share candidate indexes, relevant-index sets and access-path shapes,
// which is the equivalence template-level workload compression
// clusters on.
func (s *SelectStmt) Fingerprint() string {
	var buf [renderBuf]byte
	c := canon{fp: buf[:0], noText: true}.statement(s)
	return string(c.fp)
}

// Canonical returns String and Fingerprint from one pass over the
// statement. Neither is remembered on the statement: generators copy
// statements by value and edit their constants, and a copy must render
// what it now holds. Workload entries carry the pair instead.
func (s *SelectStmt) Canonical() (text, fingerprint string) {
	var tb, fb [renderBuf]byte
	c := canon{text: tb[:0], fp: fb[:0]}.statement(s)
	return string(c.text), string(c.fp)
}

// renderBuf is the stack space a render starts in; longer statements
// grow onto the heap.
const renderBuf = 512

// canon renders a statement's canonical text and its fingerprint side
// by side: the two differ only where a literal stands, so everything
// else is written to both buffers and a literal to the text alone,
// the fingerprint taking '?'. noText or noFp switch one side off.
// Methods take and return the value, not a pointer, so buffers that
// start on the caller's stack stay there.
type canon struct {
	text, fp     []byte
	noText, noFp bool
}

func (c canon) str(s string) canon {
	if !c.noText {
		c.text = append(c.text, s...)
	}
	if !c.noFp {
		c.fp = append(c.fp, s...)
	}
	return c
}

func (c canon) literal(v value.Value) canon {
	if !c.noText {
		c.text = v.AppendString(c.text)
	}
	if !c.noFp {
		c.fp = append(c.fp, '?')
	}
	return c
}

func (c canon) column(r ColumnRef) canon {
	if r.Table != "" {
		c = c.str(r.Table).str(".")
	}
	return c.str(r.Column)
}

func (c canon) selectItem(it SelectItem) canon {
	switch it.Agg {
	case AggNone:
		return c.column(it.Col)
	case AggCountStar:
		return c.str("COUNT(*)")
	}
	return c.str(it.Agg.String()).str("(").column(it.Col).str(")")
}

// predicate writes one restriction. An IN list collapses to a single
// '?' in the fingerprint regardless of arity: IN members differ only
// in constants, so which indexes are relevant (and which union arms
// exist) depends only on the column — all arities belong to one
// template.
func (c canon) predicate(p *Predicate) canon {
	switch p.Op {
	case OpBetween:
		return c.column(p.Col).str(" BETWEEN ").literal(p.Lo).str(" AND ").literal(p.Hi)
	case OpIn:
		c = c.column(p.Col).str(" IN (")
		if !c.noText {
			for i, v := range p.Vals {
				if i > 0 {
					c.text = append(c.text, ", "...)
				}
				c.text = v.AppendString(c.text)
			}
		}
		if !c.noFp {
			c.fp = append(c.fp, '?')
		}
		return c.str(")")
	case OpOr:
		c = c.str("(")
		for i := range p.Or {
			if i > 0 {
				c = c.str(" OR ")
			}
			c = c.predicate(&p.Or[i])
		}
		return c.str(")")
	}
	return c.column(p.Col).str(" ").str(p.Op.String()).str(" ").literal(p.Val)
}

func (c canon) statement(s *SelectStmt) canon {
	c = c.str("SELECT ")
	for i, it := range s.Select {
		if i > 0 {
			c = c.str(", ")
		}
		c = c.selectItem(it)
	}
	c = c.str(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			c = c.str(", ")
		}
		c = c.str(t)
	}
	sep := " WHERE "
	for _, j := range s.Joins {
		c = c.str(sep).column(j.Left).str(" = ").column(j.Right)
		sep = " AND "
	}
	for i := range s.Where {
		c = c.str(sep).predicate(&s.Where[i])
		sep = " AND "
	}
	sep = " GROUP BY "
	for _, g := range s.GroupBy {
		c = c.str(sep).column(g)
		sep = ", "
	}
	sep = " ORDER BY "
	for _, k := range s.OrderBy {
		c = c.str(sep).column(k.Col)
		if k.Desc {
			c = c.str(" DESC")
		}
		sep = ", "
	}
	return c
}

// TablesReferenced returns the distinct tables in FROM order.
func (s *SelectStmt) TablesReferenced() []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range s.From {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// ColumnsOf returns the distinct columns of the given table referenced
// anywhere in the query (select list, predicates, joins, grouping,
// ordering), sorted by name. This is the per-table "vertical slice" a
// covering index must contain.
func (s *SelectStmt) ColumnsOf(table string) []string {
	out := make([]string, 0, 8)
	add := func(c ColumnRef) {
		if c.Table == table && c.Column != "" {
			out = appendDistinct(out, c.Column)
		}
	}
	for _, it := range s.Select {
		if it.Agg != AggCountStar {
			add(it.Col)
		}
	}
	for i := range s.Where {
		p := &s.Where[i]
		add(p.Col)
		for j := range p.Or {
			add(p.Or[j].Col)
		}
	}
	for _, j := range s.Joins {
		add(j.Left)
		add(j.Right)
	}
	for _, g := range s.GroupBy {
		add(g)
	}
	for _, o := range s.OrderBy {
		add(o.Col)
	}
	sort.Strings(out)
	return out
}

// appendDistinct appends v unless s holds it; the lists it keeps are a
// handful of column names, where a scan beats a set.
func appendDistinct(s []string, v string) []string {
	for _, have := range s {
		if have == v {
			return s
		}
	}
	return append(s, v)
}

// PredicatesOn returns the restriction predicates on the given table.
func (s *SelectStmt) PredicatesOn(table string) []Predicate {
	var out []Predicate
	for _, p := range s.Where {
		if p.Col.Table == table {
			out = append(out, p)
		}
	}
	return out
}

// JoinColumnsOf returns this table's columns that participate in joins.
func (s *SelectStmt) JoinColumnsOf(table string) []string {
	var out []string
	for _, j := range s.Joins {
		for _, c := range [2]ColumnRef{j.Left, j.Right} {
			if c.Table == table {
				out = appendDistinct(out, c.Column)
			}
		}
	}
	return out
}

// SameShape reports whether the two statements differ in literal
// constants alone — what equal Fingerprints say, decided on the
// statements without rendering either: the same select list, tables,
// joins, grouping and ordering, and restrictions on the same columns
// with the same operators in the same order. An IN list matches one of
// any length, as it does in the fingerprint.
func (s *SelectStmt) SameShape(o *SelectStmt) bool {
	if !slices.Equal(s.Select, o.Select) || !slices.Equal(s.From, o.From) || !slices.Equal(s.Joins, o.Joins) ||
		!slices.Equal(s.GroupBy, o.GroupBy) || !slices.Equal(s.OrderBy, o.OrderBy) || len(s.Where) != len(o.Where) {
		return false
	}
	for i := range s.Where {
		p, q := &s.Where[i], &o.Where[i]
		if p.Col != q.Col || p.Op != q.Op || len(p.Or) != len(q.Or) {
			return false
		}
		for j := range p.Or {
			if p.Or[j].Col != q.Or[j].Col || p.Or[j].Op != q.Or[j].Op {
				return false
			}
		}
	}
	return true
}

// Resolve qualifies unqualified column references against the schema,
// validates every reference, and normalizes join predicates so that
// restriction predicates comparing two columns of different tables are
// classified as joins. It mutates the statement in place.
func (s *SelectStmt) Resolve(sc *catalog.Schema) error {
	if len(s.From) == 0 {
		return fmt.Errorf("sql: query has no FROM tables")
	}
	for _, t := range s.From {
		if _, ok := sc.Table(t); !ok {
			return fmt.Errorf("sql: unknown table %q", t)
		}
	}
	resolve := func(c *ColumnRef) error {
		if c.Table != "" {
			t, ok := sc.Table(c.Table)
			if !ok {
				return fmt.Errorf("sql: unknown table %q in %s", c.Table, c)
			}
			if !t.HasColumn(c.Column) {
				return fmt.Errorf("sql: unknown column %s", c)
			}
			found := false
			for _, ft := range s.From {
				if ft == c.Table {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("sql: column %s references table not in FROM", c)
			}
			return nil
		}
		var owner string
		for _, ft := range s.From {
			t, _ := sc.Table(ft)
			if t != nil && t.HasColumn(c.Column) {
				if owner != "" {
					return fmt.Errorf("sql: ambiguous column %q (in %q and %q)", c.Column, owner, ft)
				}
				owner = ft
			}
		}
		if owner == "" {
			return fmt.Errorf("sql: unknown column %q", c.Column)
		}
		c.Table = owner
		return nil
	}
	for i := range s.Select {
		if s.Select[i].Agg == AggCountStar {
			continue
		}
		if err := resolve(&s.Select[i].Col); err != nil {
			return err
		}
	}
	for i := range s.Where {
		p := &s.Where[i]
		if p.Op == OpOr {
			if len(p.Or) < 2 {
				return fmt.Errorf("sql: OR predicate needs at least two disjuncts")
			}
			for j := range p.Or {
				d := &p.Or[j]
				if d.Op == OpOr {
					return fmt.Errorf("sql: nested OR predicates are not supported")
				}
				if err := resolve(&d.Col); err != nil {
					return err
				}
				if d.Col.Table != p.Or[0].Col.Table {
					return fmt.Errorf("sql: OR disjuncts must restrict one table (%q vs %q)",
						p.Or[0].Col.Table, d.Col.Table)
				}
			}
			// The parent carries the common table so PredicatesOn and
			// per-table planning see the disjunction as one predicate.
			p.Col = ColumnRef{Table: p.Or[0].Col.Table}
			continue
		}
		if err := resolve(&p.Col); err != nil {
			return err
		}
	}
	for i := range s.Joins {
		if err := resolve(&s.Joins[i].Left); err != nil {
			return err
		}
		if err := resolve(&s.Joins[i].Right); err != nil {
			return err
		}
		if s.Joins[i].Left.Table == s.Joins[i].Right.Table {
			return fmt.Errorf("sql: self-join predicate %s not supported", s.Joins[i])
		}
	}
	for i := range s.GroupBy {
		if err := resolve(&s.GroupBy[i]); err != nil {
			return err
		}
	}
	for i := range s.OrderBy {
		if err := resolve(&s.OrderBy[i].Col); err != nil {
			return err
		}
	}
	return nil
}
