package exec

import (
	"math/rand"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/value"
)

// BenchmarkIndexUnionExec executes one OR query over a 30,000-row table
// with single-column indexes on both disjuncts' columns, through the
// IndexUnion plan (union) and through the plan the same optimizer picks
// with union paths disabled (scan: no single index serves a
// disjunction). The ratio of the two ns/op is the executed win of
// merging RID sets over reading the heap. It fails unless the union arm
// plans an IndexUnion, the scan arm does not, and both return the same
// rows/op.
//
//	go test -run '^$' -bench IndexUnionExec ./internal/exec
func BenchmarkIndexUnionExec(b *testing.B) {
	db := engine.NewDatabase()
	if err := db.CreateTable(catalog.MustNewTable("wide", []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Int},
		{Name: "payload", Type: value.String, Width: 120},
		{Name: "more", Type: value.String, Width: 120},
	})); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30000; i++ {
		if err := db.Insert("wide", value.Row{
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
			value.NewString("p"),
			value.NewString("q"),
		}); err != nil {
			b.Fatal(err)
		}
	}
	db.AnalyzeAll()
	ia, _ := catalog.NewIndexDef(db.Schema(), "", "wide", []string{"a"})
	ib, _ := catalog.NewIndexDef(db.Schema(), "", "wide", []string{"b"})
	if err := db.Materialize([]catalog.IndexDef{ia, ib}); err != nil {
		b.Fatal(err)
	}
	cfg := optimizer.Configuration{ia, ib}
	stmt := mustStmt(b, db, "SELECT payload FROM wide WHERE (a = 7 OR b = 13)")

	opt := optimizer.New(db)
	union, err := opt.Optimize(stmt, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt.DisableIndexUnion = true
	scan, err := opt.Optimize(stmt, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(union.Explain(), "IndexUnion") || strings.Contains(scan.Explain(), "IndexUnion") {
		b.Fatalf("want an IndexUnion plan and one without:\n%s\n%s", union.Explain(), scan.Explain())
	}
	rows := func(b *testing.B, plan *optimizer.Plan) int {
		res, err := Run(db, plan)
		if err != nil {
			b.Fatal(err)
		}
		return len(res.Rows)
	}
	want := rows(b, union)
	if got := rows(b, scan); got != want {
		b.Fatalf("union plan returns %d rows, scan plan %d", want, got)
	}

	for _, arm := range []struct {
		name string
		plan *optimizer.Plan
	}{{"union", union}, {"scan", scan}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := rows(b, arm.plan); got != want {
					b.Fatalf("%d rows, want %d", got, want)
				}
			}
			b.ReportMetric(float64(want), "rows/op")
		})
	}
}
