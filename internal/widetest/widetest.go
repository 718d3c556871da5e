// Package widetest builds the one fixture two tests share: a 70-column
// table and four statements whose predicate, GROUP BY and index-column
// sets pass 64 members — the width at which a one-word bitmask planner
// silently drops members. TestWidePredicateAndIndexSets
// (internal/optimizer) plans and executes them through every entry
// point; TestPlanGolden (repository root) pins their costs and plans.
package widetest

import (
	"fmt"
	"strconv"
	"strings"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// Columns is the width of table w70.
const Columns = 70

// Case is one wide statement with the configuration it is planned
// under and the operator its cheapest plan must (Want) and must not
// (Avoid) contain.
type Case struct {
	Name   string
	Stmt   *sql.SelectStmt
	Config []catalog.IndexDef
	Want   string
	Avoid  string
}

func colName(i int) string { return fmt.Sprintf("c%02d", i) }

// modulus is the number of distinct values of column i: small cycles
// on c00..c67 so that 70 equalities still select rows, near-unique
// values on the last two for selective seeks and join probes.
func modulus(i int) int64 {
	if i >= Columns-2 {
		return 997
	}
	return int64(i%5 + 2)
}

// padded reports whether column i is one of the two 120-byte strings
// that make a heap row wider than a 65-column index entry; the rest
// are integers.
func padded(i int) bool { return i == 66 || i == 67 }

// cols names columns [lo, hi).
func cols(lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, colName(i))
	}
	return out
}

// conj renders "c = 0" (or "c >= 0") for columns [lo, hi), AND-ed.
func conj(op string, lo, hi int) string {
	parts := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		zero := "0"
		if padded(i) {
			zero = "'0'"
		}
		parts = append(parts, "w70."+colName(i)+" "+op+" "+zero)
	}
	return strings.Join(parts, " AND ")
}

// Build creates and analyzes the database — w70 (6,000 rows, row r
// holds r mod modulus(i) in column i) and probe (40 rows) — and
// returns the four cases.
func Build() (*engine.Database, []Case, error) {
	db := engine.NewDatabase()
	wideCols := make([]catalog.Column, Columns)
	for i := range wideCols {
		wideCols[i] = catalog.Column{Name: colName(i), Type: value.Int}
		if padded(i) {
			wideCols[i] = catalog.Column{Name: colName(i), Type: value.String, Width: 120}
		}
	}
	for _, t := range []*catalog.Table{
		catalog.MustNewTable("w70", wideCols),
		catalog.MustNewTable("probe", []catalog.Column{{Name: "k", Type: value.Int}, {Name: "v", Type: value.Int}}),
	} {
		if err := db.CreateTable(t); err != nil {
			return nil, nil, err
		}
	}
	for r := int64(0); r < 6000; r++ {
		row := make(value.Row, Columns)
		for i := range row {
			row[i] = value.NewInt(r % modulus(i))
			if padded(i) {
				row[i] = value.NewString(strconv.FormatInt(r%modulus(i), 10))
			}
		}
		if err := db.Insert("w70", row); err != nil {
			return nil, nil, err
		}
	}
	for r := int64(0); r < 40; r++ {
		if err := db.Insert("probe", value.Row{value.NewInt(r * 7), value.NewInt(r % 20)}); err != nil {
			return nil, nil, err
		}
	}
	db.AnalyzeAll()

	specs := []struct {
		name, src   string
		indexes     [][]string
		want, avoid string
	}{
		// (a) 70 AND-ed predicates; the two selective ones sit at
		// positions 68 and 69, so the seeks (and their intersection) are
		// only found by a planner that keeps track of predicates past 63.
		{"and70", "SELECT c00, c69 FROM w70 WHERE " + conj("=", 0, Columns),
			[][]string{{"c68"}, {"c69"}, {"c00", "c01"}}, "IndexSeek(", "TableScan("},
		// (b) 65 equality-bound leading columns make the 66th the sort
		// order: the equality prefix itself passes bit 63.
		{"eq65-order66", "SELECT c65 FROM w70 WHERE " + conj("=", 0, 65) + " ORDER BY c65",
			[][]string{cols(0, 66)}, "IndexSeek(", "Sort("},
		// (c) 65 GROUP BY columns clustered by an index on exactly them.
		{"group65", "SELECT " + strings.Join(cols(0, 65), ", ") + ", COUNT(*) FROM w70 GROUP BY " + strings.Join(cols(0, 65), ", "),
			[][]string{cols(0, 65)}, "StreamAggregate", "HashAggregate"},
		// (d) 64 predicates on the inner side: the join probe is the 65th
		// member of the list the inner seek matches against.
		{"join-inner64", "SELECT probe.k, w70.c00 FROM probe, w70 WHERE probe.k = w70.c69 AND probe.v = 3 AND " + conj(">=", 0, 64),
			[][]string{{"c69"}}, "IndexNLJoin", "HashJoin"},
	}
	cases := make([]Case, 0, len(specs))
	for _, s := range specs {
		stmt, err := sql.ParseSelect(s.src)
		if err != nil {
			return nil, nil, fmt.Errorf("widetest: %s: %w", s.name, err)
		}
		if err := stmt.Resolve(db.Schema()); err != nil {
			return nil, nil, fmt.Errorf("widetest: %s: %w", s.name, err)
		}
		c := Case{Name: s.name, Stmt: stmt, Want: s.want, Avoid: s.avoid}
		for _, ic := range s.indexes {
			def, err := catalog.NewIndexDef(db.Schema(), "", "w70", ic)
			if err != nil {
				return nil, nil, fmt.Errorf("widetest: %s: %w", s.name, err)
			}
			c.Config = append(c.Config, def)
		}
		cases = append(cases, c)
	}
	return db, cases, nil
}
