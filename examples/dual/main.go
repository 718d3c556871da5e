// Dual: Cost-Minimal Index Merging — fit the indexes into a disk
// budget with as little workload slowdown as possible.
//
// The paper's headline problem bounds the cost increase and minimizes
// storage; §3.1 also states the dual (minimize cost subject to a
// storage budget) and leaves it unexplored. This example runs the dual
// over a sweep of budgets on TPC-D and prints the storage/cost
// frontier the DBA actually trades along.
package main

import (
	"context"
	"fmt"
	"log"

	"indexmerge"
	"indexmerge/internal/datagen"
)

func main() {
	db, err := datagen.BuildTPCD(datagen.DefaultTPCDScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	w, err := datagen.TPCDWorkload(db.Schema())
	if err != nil {
		log.Fatal(err)
	}
	m, err := indexmerge.NewMerger(db, w)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	defs, err := m.InitialConfiguration(ctx, 0, 0, indexmerge.MergeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	initialBytes := db.ConfigurationBytes(defs)
	initialCost, err := m.WorkloadCost(defs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial: %d indexes, %.2f MB, workload cost %.0f\n\n",
		len(defs), float64(initialBytes)/(1<<20), initialCost)

	fmt.Printf("%-10s %14s %12s %10s %8s\n", "budget", "storage (MB)", "cost", "cost +%", "met")
	for _, frac := range []float64{0.9, 0.75, 0.6, 0.45, 0.3} {
		budget := int64(float64(initialBytes) * frac)
		res, err := m.MergeDualContext(ctx, defs, budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14.2f %12.0f %9.1f%% %8v\n",
			fmt.Sprintf("%.0f%%", frac*100),
			float64(res.FinalBytes)/(1<<20),
			res.FinalCost,
			100*(res.FinalCost/res.InitialCost-1),
			res.MetBudget)
	}
	fmt.Println("\nEach row is a point on the storage/cost frontier: tighter budgets")
	fmt.Println("force more index-preserving merges, each trading query cost for bytes.")
}
