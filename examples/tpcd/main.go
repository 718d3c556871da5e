// TPC-D walkthrough: reproduce the paper's introduction study on the
// benchmark database. Tune the 17 TPC-D queries one at a time (the
// query-at-a-time methodology the paper critiques), measure how index
// storage balloons relative to the data, then apply index merging and
// watch storage collapse while the workload cost stays within 10%.
package main

import (
	"context"
	"fmt"
	"log"

	"indexmerge"
	"indexmerge/internal/datagen"
)

func main() {
	// Build a scaled TPC-D database (the paper used 1 GB; sizes here
	// scale linearly and results are statistics-driven).
	db, err := datagen.BuildTPCD(datagen.DefaultTPCDScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	w, err := datagen.TPCDWorkload(db.Schema())
	if err != nil {
		log.Fatal(err)
	}
	dataMB := float64(db.DataBytes()) / (1 << 20)
	fmt.Printf("TPC-D database: %.1f MB data, %d benchmark queries\n\n", dataMB, w.Len())

	m, err := indexmerge.NewMerger(db, w)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1 — tune each query individually and union the indexes.
	ctx := context.Background()
	defs, err := m.InitialConfiguration(ctx, 0, 0, indexmerge.MergeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	var idxBytes int64
	for _, d := range defs {
		idxBytes += db.EstimateIndexBytes(d)
	}
	idxMB := float64(idxBytes) / (1 << 20)
	fmt.Printf("per-query tuning: %d indexes, %.1f MB (%.2fx the data)\n", len(defs), idxMB, idxMB/dataMB)

	costTuned, err := m.WorkloadCost(defs)
	if err != nil {
		log.Fatal(err)
	}
	costBare, err := m.WorkloadCost(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload cost: %.0f without indexes, %.0f tuned (%.1fx speedup)\n\n", costBare, costTuned, costBare/costTuned)

	// Phase 2 — index merging with a 10% cost constraint.
	res, err := m.MergeDefsContext(ctx, defs, indexmerge.MergeOptions{CostConstraint: 0.10})
	if err != nil {
		log.Fatal(err)
	}
	mergedMB := float64(res.FinalBytes) / (1 << 20)
	fmt.Printf("after merging:  %d indexes, %.1f MB (%.2fx the data)\n", res.Final.Len(), mergedMB, mergedMB/dataMB)
	fmt.Printf("storage saved:  %.1f%%\n", 100*res.StorageReduction())
	fmt.Printf("cost increase:  %.1f%% (bound 10%%)\n\n", 100*res.CostIncrease())

	fmt.Println("merge trace:")
	for _, s := range res.Steps {
		fmt.Printf("  %s + %s\n    -> %s\n", s.ParentA, s.ParentB, s.Result)
	}
}
