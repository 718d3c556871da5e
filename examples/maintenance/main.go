// Maintenance: measure what index merging does to batch-insert cost.
//
// Decision-support systems load data in nightly batches; every
// secondary index must absorb every insert. This example materializes
// an initial configuration and its merged counterpart on TPC-D, runs
// the paper's update workload (insert 1% of the rows of the two
// largest tables), and compares the page-write traffic — the §4.3.3 /
// Figure 8 experiment as a standalone program.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"indexmerge"
	"indexmerge/internal/datagen"
)

func main() {
	scale := datagen.DefaultTPCDScale()
	db, err := datagen.BuildTPCD(scale, 1)
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
	res, err := m.MergeDefsContext(ctx, defs, indexmerge.MergeOptions{CostConstraint: 0.20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial configuration: %d indexes; merged: %d indexes (%.1f%% storage saved)\n\n",
		len(defs), res.Final.Len(), 100*res.StorageReduction())

	insertBatch := func(label string, cfg []indexmerge.IndexDef) int64 {
		if err := db.Materialize(cfg); err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		db.ResetMaintenance()
		// 1% of lineitem and orders — the two largest tables.
		nLine := int(float64(db.TableRowCount("lineitem")) * 0.01)
		nOrd := int(float64(db.TableRowCount("orders")) * 0.01)
		for i := 0; i < nLine; i++ {
			if err := db.Insert("lineitem", datagen.GenLineitemRow(rng, rng.Int63n(int64(scale.Orders)), rng.Int63n(7), scale)); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i < nOrd; i++ {
			if err := db.Insert("orders", datagen.GenOrderRow(rng, 1_000_000+rng.Int63n(1<<30), scale)); err != nil {
				log.Fatal(err)
			}
		}
		cost := db.MaintenanceCost()
		fmt.Printf("%-22s %6d lineitem + %4d orders inserts -> %6d index page writes\n", label, nLine, nOrd, cost)
		// Roll the heaps back so the next measurement sees identical data.
		for _, t := range []string{"lineitem", "orders"} {
			h, err := db.Heap(t)
			if err != nil {
				log.Fatal(err)
			}
			h.TruncateTo(h.RowCount() - int64(map[string]int{"lineitem": nLine, "orders": nOrd}[t]))
		}
		return cost
	}

	before := insertBatch("initial configuration:", defs)
	after := insertBatch("merged configuration:", res.Final.Defs())
	fmt.Printf("\nmaintenance reduction: %.1f%% (paper reports substantial savings at every N — Figure 8)\n",
		100*(1-float64(after)/float64(before)))
}
