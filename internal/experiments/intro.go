package experiments

import (
	"fmt"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/sql"
)

// IntroQ1Q3Result reproduces the introduction's motivating example:
// merging the covering indexes for TPC-D Q1 and Q3 on lineitem. The
// paper reports storage −38%, batch-insert maintenance −22%, combined
// Q1+Q3 cost +3%.
type IntroQ1Q3Result struct {
	I1, I2, Merged catalog.IndexDef

	StorageBefore, StorageAfter         int64
	MaintenanceBefore, MaintenanceAfter int64
	QueryCostBefore, QueryCostAfter     float64
}

// StorageReduction is the fractional storage saving.
func (r *IntroQ1Q3Result) StorageReduction() float64 {
	return 1 - float64(r.StorageAfter)/float64(r.StorageBefore)
}

// MaintenanceReduction is the fractional batch-insert saving.
func (r *IntroQ1Q3Result) MaintenanceReduction() float64 {
	if r.MaintenanceBefore == 0 {
		return 0
	}
	return 1 - float64(r.MaintenanceAfter)/float64(r.MaintenanceBefore)
}

// QueryCostIncrease is the fractional Q1+Q3 cost growth.
func (r *IntroQ1Q3Result) QueryCostIncrease() float64 {
	return r.QueryCostAfter/r.QueryCostBefore - 1
}

// RunIntroQ1Q3 builds the paper's I1 and I2 on the TPC-D lab, merges
// them (index-preserving, I1 leading — exactly the paper's I), and
// measures storage, maintenance and the Q1+Q3 cost under both
// configurations.
func RunIntroQ1Q3(lab *Lab) (*IntroQ1Q3Result, error) {
	sc := lab.DB.Schema()
	i1, err := catalog.NewIndexDef(sc, "i1_q1_covering", "lineitem",
		[]string{"l_shipdate", "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"})
	if err != nil {
		return nil, err
	}
	i2, err := catalog.NewIndexDef(sc, "i2_q3_covering", "lineitem",
		[]string{"l_shipdate", "l_orderkey", "l_extendedprice", "l_discount"})
	if err != nil {
		return nil, err
	}
	merged, err := core.MergeOrdered(core.NewIndex(i1), core.NewIndex(i2))
	if err != nil {
		return nil, err
	}

	res := &IntroQ1Q3Result{I1: i1, I2: i2, Merged: merged.Def}
	res.StorageBefore = lab.DB.EstimateIndexBytes(i1) + lab.DB.EstimateIndexBytes(i2)
	res.StorageAfter = lab.DB.EstimateIndexBytes(merged.Def)

	// Q1 and Q3 from the benchmark workload.
	w, err := q1q3Workload(sc)
	if err != nil {
		return nil, err
	}
	res.QueryCostBefore, err = lab.WorkloadCost(w, []catalog.IndexDef{i1, i2})
	if err != nil {
		return nil, err
	}
	res.QueryCostAfter, err = lab.WorkloadCost(w, []catalog.IndexDef{merged.Def})
	if err != nil {
		return nil, err
	}

	// Batch-insert maintenance: 1% of lineitem rows under each config.
	if err := lab.DB.Materialize([]catalog.IndexDef{i1, i2}); err != nil {
		return nil, err
	}
	res.MaintenanceBefore, err = lab.BatchInsert([]string{"lineitem"}, InsertPct, lab.seed+101)
	if err != nil {
		return nil, err
	}
	if err := lab.DB.Materialize([]catalog.IndexDef{merged.Def}); err != nil {
		return nil, err
	}
	res.MaintenanceAfter, err = lab.BatchInsert([]string{"lineitem"}, InsertPct, lab.seed+101)
	if err != nil {
		return nil, err
	}
	lab.DB.DropAllIndexes()
	return res, nil
}

// q1q3Workload extracts Q1 and Q3 from the TPC-D query set.
func q1q3Workload(sc *catalog.Schema) (*sql.Workload, error) {
	all, err := tpcdWorkload(sc)
	if err != nil {
		return nil, err
	}
	w := &sql.Workload{}
	w.Add(all.Queries[0].Stmt, 1) // Q1
	w.Add(all.Queries[2].Stmt, 1) // Q3
	return w, nil
}

// IntroTPCD17Result reproduces the introduction's 17-query TPC-D
// study: per-query tuning inflates index storage to ~5× the data size;
// merging brings it to ~2.3× at ~5% average query cost increase.
type IntroTPCD17Result struct {
	DataBytes int64

	TunedIndexBytes  int64
	MergedIndexBytes int64

	TunedRatio  float64 // index bytes / data bytes before merging
	MergedRatio float64 // after merging

	CostIncrease                float64 // workload cost growth due to merging
	IndexesBefore, IndexesAfter int
}

// RunIntroTPCD17 tunes each of the 17 benchmark queries individually,
// unions the recommendations, then applies Greedy-Cost-Opt merging.
func RunIntroTPCD17(lab *Lab, constraint float64) (*IntroTPCD17Result, error) {
	w, err := tpcdWorkload(lab.DB.Schema())
	if err != nil {
		return nil, err
	}
	defs, err := lab.Adv.TuneWorkload(w)
	if err != nil {
		return nil, err
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("experiments: per-query tuning produced no indexes")
	}
	s, err := newSetupOver(lab, w, core.NewConfiguration(defs))
	if err != nil {
		return nil, err
	}
	res, err := core.Greedy(s.initial, &core.MergePairCost{Seek: s.seek}, s.optChecker(constraint), lab.DB)
	if err != nil {
		return nil, err
	}
	finalCost, err := lab.WorkloadCost(w, res.Final.Defs())
	if err != nil {
		return nil, err
	}

	out := &IntroTPCD17Result{
		DataBytes:        lab.DB.DataBytes(),
		TunedIndexBytes:  res.InitialBytes,
		MergedIndexBytes: res.FinalBytes,
		CostIncrease:     finalCost/s.baseCost - 1,
		IndexesBefore:    s.initial.Len(),
		IndexesAfter:     res.Final.Len(),
	}
	out.TunedRatio = float64(out.TunedIndexBytes) / float64(out.DataBytes)
	out.MergedRatio = float64(out.MergedIndexBytes) / float64(out.DataBytes)
	return out, nil
}
