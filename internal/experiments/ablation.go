package experiments

import (
	"context"
	"fmt"

	"indexmerge/internal/core"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// AblationRow compares a design choice (on/off) on one database.
type AblationRow struct {
	Database string
	Name     string
	// BaselineReduction is the storage reduction with the paper's
	// choice; VariantReduction with the alternative.
	BaselineReduction float64
	VariantReduction  float64
	// BaselineCostIncrease / VariantCostIncrease are the achieved
	// workload cost growths.
	BaselineCostIncrease float64
	VariantCostIncrease  float64
	// Extra carries strategy-specific counters (e.g. optimizer calls).
	BaselineExtra, VariantExtra int64
}

// RunAblationPrefixChoice tests MergePair-Cost's core heuristic: the
// higher-Seek-Cost parent becomes the leading prefix. The variant
// reverses the preference. Expectation: reversing hurts the achieved
// cost (merges get rejected or degrade queries), shrinking reduction.
func RunAblationPrefixChoice(labs []*Lab, n int, constraint float64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, lab := range labs {
		s, err := newSetup(lab, lab.Complex, n)
		if err != nil {
			return nil, err
		}
		base, err := core.GreedyContext(context.Background(), s.initial, &core.MergePairCost{Seek: s.seek}, s.optChecker(constraint), lab.DB, core.GreedyOptions{})
		if err != nil {
			return nil, err
		}
		variant, err := core.GreedyContext(context.Background(), s.initial, &core.MergePairCost{Seek: s.seek, ReversePreference: true}, s.optChecker(constraint), lab.DB, core.GreedyOptions{})
		if err != nil {
			return nil, err
		}
		row, err := ablationRow(lab, s, "prefix-choice", base, variant)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunAblationGreedyOrder tests the greedy inner-loop ranking: the
// paper orders candidate merges by descending storage reduction; the
// variant orders by ascending width growth (a cost-increase proxy).
func RunAblationGreedyOrder(labs []*Lab, n int, constraint float64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, lab := range labs {
		s, err := newSetup(lab, lab.Complex, n)
		if err != nil {
			return nil, err
		}
		mp := &core.MergePairCost{Seek: s.seek}
		base, err := core.GreedyContext(context.Background(), s.initial, mp, s.optChecker(constraint), lab.DB,
			core.GreedyOptions{Order: core.OrderByStorageReduction})
		if err != nil {
			return nil, err
		}
		variant, err := core.GreedyContext(context.Background(), s.initial, mp, s.optChecker(constraint), lab.DB,
			core.GreedyOptions{Order: core.OrderByWidthGrowth})
		if err != nil {
			return nil, err
		}
		row, err := ablationRow(lab, s, "greedy-order", base, variant)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunAblationPrefilter measures the §3.5.3 external-cost pre-filter:
// same search, with and without the cheap veto in front of the
// optimizer-backed checker. Extra counts optimizer invocations.
func RunAblationPrefilter(labs []*Lab, n int, constraint float64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, lab := range labs {
		s, err := newSetup(lab, lab.Complex, n)
		if err != nil {
			return nil, err
		}
		mp := &core.MergePairCost{Seek: s.seek}

		before := lab.Opt.InvocationCount()
		base, err := core.GreedyContext(context.Background(), s.initial, mp, s.optChecker(constraint), lab.DB, core.GreedyOptions{})
		if err != nil {
			return nil, err
		}
		baseCalls := lab.Opt.InvocationCount() - before

		pre := &core.PrefilteredChecker{
			External: core.NewExternalCostModel(lab.DB, s.w, s.initial, constraint),
			Inner:    s.optChecker(constraint),
		}
		before = lab.Opt.InvocationCount()
		variant, err := core.GreedyContext(context.Background(), s.initial, mp, pre, lab.DB, core.GreedyOptions{})
		if err != nil {
			return nil, err
		}
		variantCalls := lab.Opt.InvocationCount() - before

		row, err := ablationRow(lab, s, "external-prefilter", base, variant)
		if err != nil {
			return nil, err
		}
		row.BaselineExtra = baseCalls
		row.VariantExtra = variantCalls
		rows = append(rows, row)
	}
	return rows, nil
}

// RunAblationIntersection measures how optimizer sophistication
// affects merge quality: the same search with index-intersection
// access paths on (baseline) and off (variant). §3.5.2 argues external
// cost models fail precisely because techniques like index
// intersection change which configurations are good; this quantifies
// the sensitivity. Extra reports the final workload cost (scaled) so
// absolute plan quality is visible too.
func RunAblationIntersection(labs []*Lab, n int, constraint float64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, lab := range labs {
		s, err := newSetup(lab, lab.Complex, n)
		if err != nil {
			return nil, err
		}
		mp := &core.MergePairCost{Seek: s.seek}
		base, err := core.GreedyContext(context.Background(), s.initial, mp, s.optChecker(constraint), lab.DB, core.GreedyOptions{})
		if err != nil {
			return nil, err
		}

		lab.Opt.DisableIndexIntersection = true
		// Re-derive the baseline cost and seek costs under the weaker
		// optimizer so its constraint is self-consistent.
		weak, err := newSetupOver(lab, s.w, s.initial)
		if err != nil {
			lab.Opt.DisableIndexIntersection = false
			return nil, err
		}
		variant, err := core.GreedyContext(context.Background(), s.initial, &core.MergePairCost{Seek: weak.seek}, weak.optChecker(constraint), lab.DB, core.GreedyOptions{})
		lab.Opt.DisableIndexIntersection = false
		if err != nil {
			return nil, err
		}

		row, err := ablationRow(lab, s, "index-intersection", base, variant)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CompressionRow reports the workload-compression study (§3.5.3):
// optimizer invocations and merge quality with the full workload vs a
// top-k compressed one.
type CompressionRow struct {
	Database            string
	FullQueries         int
	CompressedQueries   int
	FullCalls           int64
	CompressedCalls     int64
	FullReduction       float64
	CompressedReduction float64
}

// RunWorkloadCompression compares merging driven by the full complex
// workload against merging driven by its k most expensive queries
// (both §3.5.3 compression techniques: dedup then top-k). Quality is
// judged on the full workload either way.
func RunWorkloadCompression(labs []*Lab, n, k int, constraint float64) ([]CompressionRow, error) {
	var rows []CompressionRow
	for _, lab := range labs {
		s, err := newSetup(lab, lab.Complex, n)
		if err != nil {
			return nil, err
		}
		mp := &core.MergePairCost{Seek: s.seek}

		before := lab.Opt.InvocationCount()
		full, err := core.GreedyContext(context.Background(), s.initial, mp, s.optChecker(constraint), lab.DB, core.GreedyOptions{})
		if err != nil {
			return nil, err
		}
		fullCalls := lab.Opt.InvocationCount() - before

		// Compress: dedup identical queries, then keep the k most
		// expensive under the initial configuration.
		deduped := s.w.Compress()
		dpw, err := lab.Opt.PrepareWorkload(deduped)
		if err != nil {
			return nil, err
		}
		initialCfg := optimizer.Configuration(s.initial.Defs())
		costs := make(map[*sql.SelectStmt]float64, dpw.Len())
		for qi, pq := range dpw.Queries {
			if costs[deduped.Queries[qi].Stmt], err = lab.Opt.CostPrepared(pq, initialCfg); err != nil {
				return nil, fmt.Errorf("experiments: top-%d costing of query %d: %w", k, qi+1, err)
			}
		}
		smallW := deduped.TopK(k, func(stmt *sql.SelectStmt) float64 { return costs[stmt] })
		sm, err := newSetupOver(lab, smallW, s.initial)
		if err != nil {
			return nil, err
		}
		before = lab.Opt.InvocationCount()
		small, err := core.GreedyContext(context.Background(), s.initial, &core.MergePairCost{Seek: sm.seek}, sm.optChecker(constraint), lab.DB, core.GreedyOptions{})
		if err != nil {
			return nil, err
		}
		smallCalls := lab.Opt.InvocationCount() - before

		rows = append(rows, CompressionRow{
			Database:            lab.Name,
			FullQueries:         s.w.Len(),
			CompressedQueries:   smallW.Len(),
			FullCalls:           fullCalls,
			CompressedCalls:     smallCalls,
			FullReduction:       full.StorageReduction(),
			CompressedReduction: small.StorageReduction(),
		})
	}
	return rows, nil
}

// ablationRow assembles the shared fields.
func ablationRow(lab *Lab, s *setup, name string, base, variant *core.SearchResult) (AblationRow, error) {
	baseCost, err := s.cost(base.Final.Defs())
	if err != nil {
		return AblationRow{}, err
	}
	varCost, err := s.cost(variant.Final.Defs())
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Database:             lab.Name,
		Name:                 name,
		BaselineReduction:    base.StorageReduction(),
		VariantReduction:     variant.StorageReduction(),
		BaselineCostIncrease: baseCost/s.baseCost - 1,
		VariantCostIncrease:  varCost/s.baseCost - 1,
	}, nil
}
