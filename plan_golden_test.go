// Cross-commit plan identity: testdata/plans.golden records, for every
// statement × configuration × optimizer ablation of a fixed corpus, the
// cost bits, the plan text and the index uses Optimize produced at the
// commit that last ran `go test -run TestPlanGolden -update .`. A
// planner change that is meant to keep every plan leaves the file
// untouched and this test green.
package indexmerge

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/widetest"
	"indexmerge/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the planner under test")

const goldenPath = "testdata/plans.golden"

// goldenGroup is one database's share of the corpus: every statement
// is planned under every configuration.
type goldenGroup struct {
	id    string
	meta  optimizer.Meta
	stmts []*sql.SelectStmt
	cfgs  []optimizer.Configuration
}

// handWritten are plan shapes the generated workloads do not produce,
// over the TPC-D lab's schema.
var handWritten = []string{
	// ORDER BY satisfied only through an equality-bound index prefix.
	"SELECT l_shipdate, l_quantity FROM lineitem WHERE l_returnflag = 'R' AND l_linestatus = 'F' ORDER BY l_shipdate",
	// Scalar aggregate.
	"SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity < 10",
	// Unconnected (cross) join.
	"SELECT r_name, s_name FROM region, supplier WHERE r_regionkey = 1 AND s_acctbal > 5000",
	// Five-way join chain.
	"SELECT n_name, SUM(l_extendedprice) FROM lineitem, orders, customer, nation, region " +
		"WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_nationkey = n_nationkey " +
		"AND n_regionkey = r_regionkey AND r_name = 'ASIA' AND l_shipdate >= DATE(9500) GROUP BY n_name ORDER BY n_name",
}

// handWrittenIndexes serve the statements above: the sort-free seek,
// covering scans, and inner seeks for each join of the chain.
var handWrittenIndexes = [][]string{
	{"lineitem", "l_returnflag", "l_linestatus", "l_shipdate", "l_quantity"},
	{"lineitem", "l_quantity", "l_extendedprice"},
	{"lineitem", "l_orderkey", "l_shipdate", "l_extendedprice"},
	{"orders", "o_custkey", "o_orderkey"},
	{"orders", "o_orderkey"},
	{"customer", "c_nationkey", "c_custkey"},
	{"nation", "n_regionkey"},
	{"supplier", "s_acctbal", "s_name"},
}

func goldenCorpus(t *testing.T) []goldenGroup {
	t.Helper()
	var groups []goldenGroup
	labs := identityLabs(t)
	for _, lab := range labs {
		cfgs := identityConfigs(t, lab)
		disjunct, err := workload.Generate(lab.DB, workload.Options{
			Class: workload.Complex, Disjunctions: true, Queries: 12, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			name string
			w    *Workload
		}{{"complex", lab.Complex}, {"projection", lab.Projection}, {"disjunct", disjunct}} {
			g := goldenGroup{id: lab.Name + "/" + w.name, meta: lab.DB, cfgs: cfgs}
			for _, q := range w.w.Queries {
				g.stmts = append(g.stmts, q.Stmt)
			}
			groups = append(groups, g)
		}
	}

	tpcd := labs[0].DB
	hand := goldenGroup{id: "hand", meta: tpcd, cfgs: []optimizer.Configuration{nil, nil}}
	for _, src := range handWritten {
		stmt, err := sql.ParseSelect(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := stmt.Resolve(tpcd.Schema()); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		hand.stmts = append(hand.stmts, stmt)
	}
	for _, ic := range handWrittenIndexes {
		def, err := catalog.NewIndexDef(tpcd.Schema(), "", ic[0], ic[1:])
		if err != nil {
			t.Fatal(err)
		}
		hand.cfgs[1] = append(hand.cfgs[1], def)
	}
	groups = append(groups, hand)

	wideDB, cases, err := widetest.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		groups = append(groups, goldenGroup{
			id: "wide/" + c.Name, meta: wideDB,
			stmts: []*sql.SelectStmt{c.Stmt},
			cfgs:  []optimizer.Configuration{nil, c.Config},
		})
	}
	return groups
}

// goldenLine renders one plan: cost bits, a digest of the plan text,
// and each index use as se(ek)/sc(an) + digest of the definition key
// (keys of wide indexes run to hundreds of bytes).
func goldenLine(id string, plan *optimizer.Plan) string {
	digest := func(s string, hexDigits int) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:hexDigits]
	}
	uses := make([]string, 0, len(plan.Uses))
	for _, u := range plan.Uses {
		uses = append(uses, fmt.Sprintf("%.2s%s", u.Mode, digest(u.Index.Key(), 6)))
	}
	if len(uses) == 0 {
		uses = append(uses, "-")
	}
	return fmt.Sprintf("%s %016x %s %s", id, math.Float64bits(plan.Cost),
		digest(plan.Explain(), 16), strings.Join(uses, ","))
}

func TestPlanGolden(t *testing.T) {
	var want []string
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (generate it with: go test -run TestPlanGolden -update .)", err)
		}
		want = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	ablations := []struct {
		name string
		set  func(*optimizer.Optimizer)
	}{
		{"base", func(*optimizer.Optimizer) {}},
		{"no-intersect", func(o *optimizer.Optimizer) { o.DisableIndexIntersection = true }},
		{"no-union", func(o *optimizer.Optimizer) { o.DisableIndexUnion = true }},
		{"no-prefilter", func(o *optimizer.Optimizer) { o.DisableRelevantIndexFilter = true }},
	}
	var got []string
	for _, g := range goldenCorpus(t) {
		opts := make([]*optimizer.Optimizer, len(ablations))
		for ai, a := range ablations {
			opts[ai] = optimizer.New(g.meta)
			a.set(opts[ai])
		}
		for qi, stmt := range g.stmts {
			for ci, cfg := range g.cfgs {
				for ai, a := range ablations {
					id := fmt.Sprintf("%s/q%02d/c%d/%s", g.id, qi+1, ci, a.name)
					plan, err := opts[ai].Optimize(stmt, cfg)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					line := goldenLine(id, plan)
					if n := len(got); !*updateGolden && (n >= len(want) || want[n] != line) {
						var keys []string
						for _, d := range cfg {
							keys = append(keys, d.Key())
						}
						wantLine := "(past the end of the file)"
						if n < len(want) {
							wantLine = want[n]
						}
						t.Fatalf("%s line %d differs\nwant %s\ngot  %s\nquery: %s\nconfiguration: %s\nplan:\n%s",
							goldenPath, n+1, wantLine, line, stmt, strings.Join(keys, " "), plan.Explain())
					}
					got = append(got, line)
				}
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), goldenPath)
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s has %d lines, the corpus produces %d", goldenPath, len(want), len(got))
	}
}
