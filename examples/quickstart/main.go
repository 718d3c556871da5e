// Quickstart: build a small database, tune two queries individually,
// then merge the resulting indexes under a 10% cost constraint.
//
// This is the paper's core loop in ~100 lines: per-query tuning gives
// each query its ideal covering index; index merging collapses them
// into one wider index that serves both at a fraction of the storage.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"indexmerge"
)

func main() {
	// 1. Schema: one sales fact table.
	db := indexmerge.NewDatabase()
	sales, err := indexmerge.NewTable("sales", []indexmerge.Column{
		{Name: "sale_date", Type: indexmerge.DateKind},
		{Name: "region", Type: indexmerge.StringKind, Width: 12},
		{Name: "product", Type: indexmerge.StringKind, Width: 16},
		{Name: "units", Type: indexmerge.IntKind},
		{Name: "price", Type: indexmerge.FloatKind},
		{Name: "discount", Type: indexmerge.FloatKind},
		{Name: "customer", Type: indexmerge.StringKind, Width: 20},
		{Name: "channel", Type: indexmerge.StringKind, Width: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.CreateTable(sales); err != nil {
		log.Fatal(err)
	}

	// 2. Load 50k synthetic rows and gather statistics.
	rng := rand.New(rand.NewSource(7))
	regions := []string{"EMEA", "APAC", "AMER", "LATAM"}
	channels := []string{"web", "store", "phone"}
	for i := 0; i < 50000; i++ {
		row := indexmerge.Row{
			indexmerge.NewDate(10000 + rng.Int63n(730)),
			indexmerge.NewString(regions[rng.Intn(len(regions))]),
			indexmerge.NewString(fmt.Sprintf("prod-%03d", rng.Intn(500))),
			indexmerge.NewInt(1 + rng.Int63n(20)),
			indexmerge.NewFloat(float64(rng.Intn(10000)) / 100),
			indexmerge.NewFloat(float64(rng.Intn(30)) / 100),
			indexmerge.NewString(fmt.Sprintf("cust-%05d", rng.Intn(10000))),
			indexmerge.NewString(channels[rng.Intn(len(channels))]),
		}
		if err := db.Insert("sales", row); err != nil {
			log.Fatal(err)
		}
	}
	db.AnalyzeAll()

	// 3. A two-query workload, each wanting its own covering index.
	w := &indexmerge.Workload{}
	for _, text := range []string{
		`SELECT sale_date, region, units, price FROM sales
		 WHERE sale_date BETWEEN DATE(10100) AND DATE(10106)`,
		`SELECT sale_date, product, price, discount FROM sales
		 WHERE sale_date BETWEEN DATE(10150) AND DATE(10157)`,
	} {
		stmt, err := indexmerge.ParseSelect(text)
		if err != nil {
			log.Fatal(err)
		}
		if err := stmt.Resolve(db.Schema()); err != nil {
			log.Fatal(err)
		}
		w.Add(stmt, 1)
	}

	// 4. Per-query tuning: one covering index per query.
	m, err := indexmerge.NewMerger(db, w)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	defs, err := m.InitialConfiguration(ctx, 0, 0, indexmerge.MergeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-query tuned indexes:")
	var totalBytes int64
	for _, d := range defs {
		b := db.EstimateIndexBytes(d)
		totalBytes += b
		fmt.Printf("  %s  (%.2f MB)\n", d, float64(b)/(1<<20))
	}
	fmt.Printf("  total: %.2f MB\n\n", float64(totalBytes)/(1<<20))

	// 5. Merge under a 10% workload-cost constraint.
	res, err := m.MergeDefsContext(ctx, defs, indexmerge.MergeOptions{CostConstraint: 0.10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after index merging:")
	fmt.Println(indent(res.Report()))
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
