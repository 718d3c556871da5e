// Command imsql is an interactive SQL shell over the indexmerge
// engine: run queries and DML, inspect plans (EXPLAIN), create and
// drop indexes, tune queries with the advisor, and run index merging —
// all against one of the built-in databases or an empty one.
//
// Usage:
//
//	imsql [-db tpcd|synthetic1|synthetic2|empty] [-scale 1.0] [-seed 1] [-q]
//
// Statements end at end of line. Meta commands:
//
//	\d [table]            list tables / describe one
//	\indexes              list materialized indexes
//	\create t(a,b,...)    create an index
//	\drop t(a,b,...)      drop an index
//	\analyze              rebuild statistics
//	\explain SELECT ...   show the plan without running it
//	\cost SELECT ...      optimizer-estimated cost only
//	\tune SELECT ...      advisor recommendations for one query
//	\merge [pct]          merge the materialized indexes (default 10%)
//	\help                 this text
//	\q                    quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"indexmerge"
	"indexmerge/internal/advisor"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/exec"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/storage"
)

func main() {
	dbName := flag.String("db", "tpcd", "database: tpcd | synthetic1 | synthetic2 | empty")
	scale := flag.Float64("scale", 1.0, "database scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	quiet := flag.Bool("q", false, "no prompt (script mode)")
	flag.Parse()

	db, err := buildDatabase(*dbName, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imsql:", err)
		os.Exit(1)
	}
	sh := &shell{db: db, opt: optimizer.New(db), out: os.Stdout, quiet: *quiet}
	sh.adv = advisor.New(db, sh.opt)
	if !*quiet {
		fmt.Printf("imsql — %s at scale %.2f (%.1f MB data). \\help for commands.\n",
			*dbName, *scale, float64(db.DataBytes())/(1<<20))
	}
	sh.repl(bufio.NewScanner(os.Stdin))
}

func buildDatabase(name string, scale float64, seed int64) (*engine.Database, error) {
	if strings.HasPrefix(name, "file:") {
		return engine.LoadSnapshotFile(strings.TrimPrefix(name, "file:"))
	}
	switch name {
	case "empty":
		return engine.NewDatabase(), nil
	case "tpcd":
		return datagen.BuildTPCD(datagen.ScaledTPCD(scale), seed)
	case "synthetic1":
		spec := datagen.Synthetic1Spec()
		spec.RowsPer = int(float64(spec.RowsPer) * scale)
		return datagen.BuildSynthetic(spec)
	case "synthetic2":
		spec := datagen.Synthetic2Spec()
		spec.RowsPer = int(float64(spec.RowsPer) * scale)
		return datagen.BuildSynthetic(spec)
	}
	return nil, fmt.Errorf("unknown database %q", name)
}

type shell struct {
	historyW sql.Workload
	db       *engine.Database
	opt      *optimizer.Optimizer
	adv      *advisor.Advisor
	out      *os.File
	quiet    bool
}

func (sh *shell) repl(in *bufio.Scanner) {
	in.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for {
		if !sh.quiet {
			fmt.Fprint(sh.out, "imsql> ")
		}
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if !sh.meta(line) {
				return
			}
			continue
		}
		sh.statement(line)
	}
}

// meta handles backslash commands; returns false to quit.
func (sh *shell) meta(line string) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "\\q", "\\quit", "\\exit":
		return false
	case "\\help":
		fmt.Fprint(sh.out, helpText)
	case "\\d":
		sh.describe(rest)
	case "\\indexes":
		sh.listIndexes()
	case "\\create":
		sh.createIndex(rest)
	case "\\drop":
		if err := sh.db.DropIndex(rest); err != nil {
			sh.errorf("%v", err)
		} else {
			fmt.Fprintln(sh.out, "dropped", rest)
		}
	case "\\analyze":
		start := time.Now()
		sh.db.AnalyzeAll()
		fmt.Fprintf(sh.out, "analyzed all tables in %v\n", time.Since(start).Round(time.Millisecond))
	case "\\explain":
		sh.explain(rest, false)
	case "\\cost":
		sh.explain(rest, true)
	case "\\tune":
		sh.tune(rest)
	case "\\merge":
		sh.merge(rest)
	default:
		sh.errorf("unknown command %s (\\help for help)", cmd)
	}
	return true
}

const helpText = `  \d [table]            list tables / describe one
  \indexes              list materialized indexes
  \create t(a,b,...)    create an index
  \drop t(a,b,...)      drop an index by its key
  \analyze              rebuild statistics
  \explain SELECT ...   show the plan without running it
  \cost SELECT ...      optimizer-estimated cost only
  \tune SELECT ...      advisor recommendations for one query
  \merge [pct]          merge the materialized indexes (default 10)
  \q                    quit
`

func (sh *shell) errorf(format string, args ...interface{}) {
	fmt.Fprintf(sh.out, "error: "+format+"\n", args...)
}

func (sh *shell) describe(table string) {
	if table == "" {
		fmt.Fprintf(sh.out, "%-14s %8s %6s %10s\n", "table", "rows", "cols", "MB")
		for _, t := range sh.db.Schema().Tables() {
			h, err := sh.db.Heap(t.Name)
			if err != nil {
				continue
			}
			fmt.Fprintf(sh.out, "%-14s %8d %6d %10.2f\n", t.Name, h.RowCount(), len(t.Columns), storage.BytesToMB(h.Bytes()))
		}
		return
	}
	t, ok := sh.db.Schema().Table(table)
	if !ok {
		sh.errorf("unknown table %q", table)
		return
	}
	for _, c := range t.Columns {
		extra := ""
		if ts := sh.db.TableStats(table); ts != nil {
			if cs := ts.Column(c.Name); cs != nil {
				extra = fmt.Sprintf("  ndv≈%.0f", cs.Distinct)
			}
		}
		fmt.Fprintf(sh.out, "  %-20s %-8s width=%d%s\n", c.Name, c.Type, c.Width, extra)
	}
}

func (sh *shell) listIndexes() {
	ixs := sh.db.Indexes()
	if len(ixs) == 0 {
		fmt.Fprintln(sh.out, "no indexes")
		return
	}
	for _, ix := range ixs {
		fmt.Fprintf(sh.out, "  %-60s %8.2f MB  height=%d\n", ix.Def().Key(), storage.BytesToMB(ix.Bytes()), ix.Height())
	}
}

// parseIndexSpec parses "table(col1,col2)".
func parseIndexSpec(spec string) (string, []string, error) {
	open := strings.Index(spec, "(")
	if open <= 0 || !strings.HasSuffix(spec, ")") {
		return "", nil, fmt.Errorf("expected table(col1,col2,...), got %q", spec)
	}
	table := strings.TrimSpace(spec[:open])
	var cols []string
	for _, c := range strings.Split(spec[open+1:len(spec)-1], ",") {
		if c = strings.TrimSpace(c); c != "" {
			cols = append(cols, c)
		}
	}
	return table, cols, nil
}

func (sh *shell) createIndex(spec string) {
	table, cols, err := parseIndexSpec(spec)
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	def, err := indexmerge.NewIndexDef(sh.db, "", table, cols)
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	start := time.Now()
	ix, err := sh.db.CreateIndex(def)
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	fmt.Fprintf(sh.out, "created %s (%.2f MB) in %v\n", def.Key(), storage.BytesToMB(ix.Bytes()), time.Since(start).Round(time.Millisecond))
}

func (sh *shell) currentConfig() optimizer.Configuration {
	var cfg optimizer.Configuration
	for _, ix := range sh.db.Indexes() {
		cfg = append(cfg, ix.Def())
	}
	return cfg
}

func (sh *shell) parseSelect(src string) (*sql.SelectStmt, bool) {
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		sh.errorf("%v", err)
		return nil, false
	}
	if err := stmt.Resolve(sh.db.Schema()); err != nil {
		sh.errorf("%v", err)
		return nil, false
	}
	return stmt, true
}

func (sh *shell) explain(src string, costOnly bool) {
	stmt, ok := sh.parseSelect(src)
	if !ok {
		return
	}
	plan, err := sh.opt.Optimize(stmt, sh.currentConfig())
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	if costOnly {
		fmt.Fprintf(sh.out, "estimated cost: %.2f\n", plan.Cost)
		return
	}
	fmt.Fprint(sh.out, plan.Explain())
}

func (sh *shell) tune(src string) {
	stmt, ok := sh.parseSelect(src)
	if !ok {
		return
	}
	defs, err := sh.adv.TuneQuery(stmt)
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	if len(defs) == 0 {
		fmt.Fprintln(sh.out, "no index improves this query")
		return
	}
	before, _ := sh.opt.Cost(stmt, sh.currentConfig())
	after, _ := sh.opt.Cost(stmt, optimizer.Configuration(defs))
	for _, d := range defs {
		fmt.Fprintf(sh.out, "  recommend %s (%.2f MB est.)\n", d.Key(), storage.BytesToMB(sh.db.EstimateIndexBytes(d)))
	}
	fmt.Fprintf(sh.out, "  estimated cost %.2f -> %.2f\n", before, after)
}

func (sh *shell) merge(arg string) {
	pct := 10.0
	if arg != "" {
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || p <= 0 {
			sh.errorf("bad percentage %q", arg)
			return
		}
		pct = p
	}
	cfg := sh.currentConfig()
	if len(cfg) < 2 {
		sh.errorf("need at least two materialized indexes to merge (\\create some first)")
		return
	}
	// Workload: the advisor needs queries; the shell keeps a history of
	// every successfully executed SELECT.
	if sh.historyW.Len() == 0 {
		sh.errorf("no query history yet; run some SELECTs so merging has a workload")
		return
	}
	m, err := indexmerge.NewMerger(sh.db, &sh.historyW)
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	res, err := m.MergeContext(context.Background(), indexmerge.MergeOptions{CostConstraint: pct / 100})
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	fmt.Fprint(sh.out, res.Report())
	if err := sh.db.Materialize(res.Final.Defs()); err != nil {
		sh.errorf("materializing merged configuration: %v", err)
		return
	}
	fmt.Fprintln(sh.out, "materialized the merged configuration")
}

func (sh *shell) statement(line string) {
	stmt, err := sql.Parse(line)
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		if err := s.Resolve(sh.db.Schema()); err != nil {
			sh.errorf("%v", err)
			return
		}
		start := time.Now()
		plan, err := sh.opt.Optimize(s, sh.currentConfig())
		if err != nil {
			sh.errorf("%v", err)
			return
		}
		res, err := exec.Run(sh.db, plan)
		if err != nil {
			sh.errorf("%v", err)
			return
		}
		sh.printResult(res)
		fmt.Fprintf(sh.out, "(%d rows, %v, est. cost %.2f)\n", len(res.Rows), time.Since(start).Round(time.Microsecond), plan.Cost)
		sh.historyW.Add(s, 1)
	case *sql.DeleteStmt:
		if err := s.Resolve(sh.db.Schema()); err != nil {
			sh.errorf("%v", err)
			return
		}
		n, err := exec.Exec(sh.db, s)
		if err != nil {
			sh.errorf("%v", err)
			return
		}
		fmt.Fprintf(sh.out, "deleted %d rows\n", n)
	case *sql.InsertStmt:
		n, err := exec.Exec(sh.db, s)
		if err != nil {
			sh.errorf("%v", err)
			return
		}
		fmt.Fprintf(sh.out, "inserted %d rows\n", n)
	}
}

const maxDisplayRows = 25

func (sh *shell) printResult(res *exec.Result) {
	fmt.Fprintln(sh.out, strings.Join(res.Columns, " | "))
	for i, r := range res.Rows {
		if i == maxDisplayRows {
			fmt.Fprintf(sh.out, "... (%d more rows)\n", len(res.Rows)-maxDisplayRows)
			return
		}
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		fmt.Fprintln(sh.out, strings.Join(parts, " | "))
	}
}
