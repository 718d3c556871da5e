// Package experiments reproduces every table and figure in the
// paper's evaluation (§4) plus the introduction's motivating numbers:
// Figure 5 (search-strategy quality), Figure 6 (running time), Figure 7
// (MergePair procedures), Figure 8 (index maintenance cost), the Q1/Q3
// merge example, and the 17-query TPC-D storage study. It also hosts
// ablation studies for the design choices DESIGN.md calls out.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
	"indexmerge/internal/workload"
)

// Lab bundles one experimental database with its optimizer, advisor
// and workloads — the environment every experiment runs in. Every
// search and tuning a lab drives is serial, as the paper's are, so
// Figure 6 times the algorithms it describes.
type Lab struct {
	Name string
	DB   *engine.Database
	Opt  *optimizer.Optimizer
	Adv  *advisor.Advisor

	// Complex is the RAGS-style complex workload (30 queries unless
	// configured otherwise); Projection is the projection-only one.
	Complex    *sql.Workload
	Projection *sql.Workload

	// insertRow generates one fresh row for a table (batch updates).
	insertRow func(table string, rng *rand.Rand) (value.Row, error)
	seed      int64
}

// LabOptions scales lab construction.
type LabOptions struct {
	// Scale multiplies the default database size (1.0 = defaults
	// documented in datagen). Smaller is faster.
	Scale float64
	// WorkloadQueries sets queries per workload class (default 30,
	// matching the paper's primary workload size).
	WorkloadQueries int
	// Seed drives data and workload generation.
	Seed int64
}

func (o *LabOptions) fill() {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.WorkloadQueries <= 0 {
		o.WorkloadQueries = 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// NewTPCDLab builds the TPC-D lab.
func NewTPCDLab(opt LabOptions) (*Lab, error) {
	opt.fill()
	lab, err := newLab("TPC-D", "tpcd", opt)
	if err != nil {
		return nil, err
	}
	db, scale := lab.DB, datagen.ScaledTPCD(opt.Scale)
	lab.insertRow = func(table string, rng *rand.Rand) (value.Row, error) {
		switch table {
		case "lineitem":
			return datagen.GenLineitemRow(rng, rng.Int63n(int64(scale.Orders)), rng.Int63n(7), scale), nil
		case "orders":
			return datagen.GenOrderRow(rng, int64(scale.Orders)+rng.Int63n(1<<30), scale), nil
		default:
			rows, err := datagen.SyntheticInsertRows(db, table, 1, rng.Int63())
			if err != nil {
				return nil, err
			}
			return rows[0], nil
		}
	}
	return lab, nil
}

// NewSynthetic1Lab builds the Synthetic1 lab (5 tables, 5–25 columns).
func NewSynthetic1Lab(opt LabOptions) (*Lab, error) {
	return newSyntheticLab("Synthetic1", "synthetic1", opt)
}

// NewSynthetic2Lab builds the Synthetic2 lab (10 tables, 5–45 columns).
func NewSynthetic2Lab(opt LabOptions) (*Lab, error) {
	return newSyntheticLab("Synthetic2", "synthetic2", opt)
}

func newSyntheticLab(name, dbName string, opt LabOptions) (*Lab, error) {
	lab, err := newLab(name, dbName, opt)
	if err != nil {
		return nil, err
	}
	lab.insertRow = func(table string, rng *rand.Rand) (value.Row, error) {
		rows, err := datagen.SyntheticInsertRows(lab.DB, table, 1, rng.Int63())
		if err != nil {
			return nil, err
		}
		return rows[0], nil
	}
	return lab, nil
}

// newLab builds the named database (datagen.BuildNamed) at opt's scale
// and seed, and the lab's optimizer, advisor and workloads over it.
func newLab(name, dbName string, opt LabOptions) (*Lab, error) {
	opt.fill()
	db, err := datagen.BuildNamed(dbName, opt.Scale, opt.Seed)
	if err != nil {
		return nil, err
	}
	o := optimizer.New(db)
	lab := &Lab{Name: name, DB: db, Opt: o, Adv: advisor.New(db, o), seed: opt.Seed}
	lab.Complex, err = workload.Generate(db, workload.Options{
		Class: workload.Complex, Queries: opt.WorkloadQueries, Seed: opt.Seed + 11,
	})
	if err != nil {
		return nil, err
	}
	lab.Projection, err = workload.Generate(db, workload.Options{
		Class: workload.ProjectionOnly, Queries: opt.WorkloadQueries, Seed: opt.Seed + 13,
	})
	if err != nil {
		return nil, err
	}
	return lab, nil
}

// InitialConfiguration reproduces §4.2.3: random per-query tuning
// until n distinct indexes accumulate.
func (lab *Lab) InitialConfiguration(w *sql.Workload, n int) ([]catalog.IndexDef, error) {
	return advisor.BuildInitialConfigurationContext(context.Background(), lab.Adv, w, n, lab.seed+int64(n)*31)
}

// TwoLargestTables returns the two largest tables by bytes — the
// targets of the paper's batch-insert maintenance experiment. Byte
// size (rows × row width) matters: in the synthetic schemas every
// table holds the same row count and size differences come entirely
// from column counts and widths.
func (lab *Lab) TwoLargestTables() []string {
	names := lab.DB.Schema().TableNames()
	bytesOf := func(name string) int64 {
		t, ok := lab.DB.Schema().Table(name)
		if !ok {
			return 0
		}
		return lab.DB.TableRowCount(name) * int64(t.RowWidth())
	}
	sort.Slice(names, func(i, j int) bool {
		return bytesOf(names[i]) > bytesOf(names[j])
	})
	if len(names) > 2 {
		names = names[:2]
	}
	return names
}

// BatchInsert inserts pct (e.g. 0.01) of each target table's rows,
// maintaining all materialized indexes, returns the maintenance
// page-write cost incurred, and rolls the heaps back so repeated
// measurements see identical base data. Indexes are left stale; the
// caller re-materializes the next configuration before reuse.
func (lab *Lab) BatchInsert(tables []string, pct float64, seed int64) (int64, error) {
	if lab.insertRow == nil {
		return 0, fmt.Errorf("experiments: lab %q has no insert generator", lab.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	lab.DB.ResetMaintenance()
	saved := make(map[string]int64, len(tables))
	for _, t := range tables {
		saved[t] = lab.DB.TableRowCount(t)
	}
	for _, t := range tables {
		n := int(float64(lab.DB.TableRowCount(t)) * pct)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			row, err := lab.insertRow(t, rng)
			if err != nil {
				return 0, err
			}
			if err := lab.DB.Insert(t, row); err != nil {
				return 0, err
			}
		}
	}
	cost := lab.DB.MaintenanceCost()
	for _, t := range tables {
		h, err := lab.DB.Heap(t)
		if err != nil {
			return 0, err
		}
		h.TruncateTo(saved[t])
	}
	return cost, nil
}

// tpcdWorkload parses the 17 TPC-D benchmark queries for the schema.
func tpcdWorkload(sc *catalog.Schema) (*sql.Workload, error) {
	return datagen.TPCDWorkload(sc)
}

// StandardLabs builds all three labs at the given options.
func StandardLabs(opt LabOptions) ([]*Lab, error) {
	t, err := NewTPCDLab(opt)
	if err != nil {
		return nil, err
	}
	s1, err := NewSynthetic1Lab(opt)
	if err != nil {
		return nil, err
	}
	s2, err := NewSynthetic2Lab(opt)
	if err != nil {
		return nil, err
	}
	return []*Lab{t, s1, s2}, nil
}
