// Command dbgen builds one of the experimental databases, prints a
// schema/size summary, and optionally writes generated workload files
// (the paper's projection-only and complex classes) for later use with
// idxmerge -workload.
//
// Usage:
//
//	dbgen -db synthetic2 [-scale 1.0] [-seed 1]
//	      [-projection proj.sql] [-complex complex.sql] [-queries 30]
package main

import (
	"flag"
	"fmt"
	"os"

	"indexmerge/internal/datagen"
	"indexmerge/internal/sql"
	"indexmerge/internal/storage"
	"indexmerge/internal/workload"
)

func main() {
	dbName := flag.String("db", "tpcd", "database: tpcd | synthetic1 | synthetic2 | file:PATH")
	scale := flag.Float64("scale", 1.0, "database scale factor (<= 0 means 1)")
	seed := flag.Int64("seed", 1, "random seed")
	projPath := flag.String("projection", "", "write a projection-only workload to this file")
	complexPath := flag.String("complex", "", "write a complex workload to this file")
	variantsPath := flag.String("tpcd-variants", "", "write a QGEN-style parameterized TPC-D workload to this file (tpcd only)")
	queries := flag.Int("queries", 30, "queries per written workload")
	savePath := flag.String("save", "", "write a database snapshot (load with imsql/idxmerge -db file:PATH)")
	flag.Parse()

	db, err := datagen.BuildNamed(*dbName, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("database %s (scale %.2f, seed %d)\n", *dbName, *scale, *seed)
	fmt.Printf("%-12s %10s %8s %10s %10s\n", "table", "rows", "cols", "row bytes", "heap MB")
	var total int64
	for _, t := range db.Schema().Tables() {
		h, err := db.Heap(t.Name)
		if err != nil {
			fatal(err)
		}
		total += h.Bytes()
		fmt.Printf("%-12s %10d %8d %10d %10.2f\n", t.Name, h.RowCount(), len(t.Columns), t.RowWidth(), storage.BytesToMB(h.Bytes()))
	}
	fmt.Printf("total data: %.2f MB\n", storage.BytesToMB(total))

	writeWL := func(path string, class workload.Class, label string) {
		if path == "" {
			return
		}
		w, err := workload.Generate(db, workload.Options{Class: class, Queries: *queries, Seed: *seed + 11})
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := sql.WriteWorkload(f, w); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d %s queries to %s\n", w.Len(), label, path)
	}
	writeWL(*projPath, workload.ProjectionOnly, "projection-only")
	writeWL(*complexPath, workload.Complex, "complex")

	if *savePath != "" {
		if err := db.SaveSnapshotFile(*savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote database snapshot to %s\n", *savePath)
	}

	if *variantsPath != "" {
		if *dbName != "tpcd" {
			fatal(fmt.Errorf("-tpcd-variants requires -db tpcd"))
		}
		w, err := datagen.TPCDWorkloadVariants(db.Schema(), *queries, *seed+17)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*variantsPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := sql.WriteWorkload(f, w.Compress()); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d parameterized TPC-D queries (compressed from %d) to %s\n", w.Compress().Len(), w.Len(), *variantsPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbgen:", err)
	os.Exit(1)
}
