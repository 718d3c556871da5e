package core

import (
	"context"
	"math"
	"time"
)

// WorkloadCoster evaluates Cost(W, C), observing cancellation between
// per-query optimizer calls; OptimizerChecker satisfies it.
type WorkloadCoster interface {
	WorkloadCostContext(ctx context.Context, cfg *Configuration) (float64, error)
}

// CostMinimalResult extends SearchResult with the dual problem's cost
// trajectory.
type CostMinimalResult struct {
	SearchResult
	InitialCost float64
	FinalCost   float64
	// MetBudget reports whether the storage budget was reached; when
	// false the result is the best-effort fully merged configuration.
	MetBudget bool
}

// CostMinimal solves the paper's dual formulation (§3.1: "a dual
// formulation ... where the goal is to minimize the cost of the
// workload subject to a maximum storage constraint", flagged as not
// explored there — implemented here as an extension). The greedy
// strategy repeatedly applies the merge with the smallest workload-cost
// increase until the configuration fits in storageBudget bytes.
func CostMinimal(initial *Configuration, mp MergePair, coster WorkloadCoster, env SizeEstimator, storageBudget int64) (*CostMinimalResult, error) {
	return CostMinimalContext(context.Background(), initial, mp, coster, env, storageBudget)
}

// CostMinimalContext is CostMinimal under a context; cancellation
// surfaces as ctx.Err() with no partial result.
func CostMinimalContext(ctx context.Context, initial *Configuration, mp MergePair, coster WorkloadCoster, env SizeEstimator, storageBudget int64) (*CostMinimalResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &CostMinimalResult{}
	res.Initial = initial
	res.InitialBytes = initial.Bytes(env)

	cur := initial.Clone()
	curCost, err := coster.WorkloadCostContext(ctx, cur)
	if err != nil {
		return nil, err
	}
	res.InitialCost = curCost

	for cur.Bytes(env) > storageBudget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ba, ok := mp.(baseAware); ok {
			ba.SetBase(cur)
		}
		type candidate struct {
			a, b, m *Index
			next    *Configuration
			cost    float64
		}
		bestCand := candidate{cost: math.Inf(1)}
		found := false
		for _, pair := range cur.PairsByTable() {
			a, b := pair[0], pair[1]
			m, err := mp.Merge(a, b)
			if err != nil {
				return nil, err
			}
			next := cur.ReplacePair(a, b, m)
			if next.Bytes(env) >= cur.Bytes(env) {
				continue // merge must actually save storage
			}
			res.ConfigsExplored++
			cost, err := coster.WorkloadCostContext(ctx, next)
			if err != nil {
				return nil, err
			}
			if cost < bestCand.cost {
				bestCand = candidate{a: a, b: b, m: m, next: next, cost: cost}
				found = true
			}
		}
		if !found {
			break // no storage-saving merges remain
		}
		res.Steps = append(res.Steps, MergeStep{
			ParentA:     bestCand.a.Key(),
			ParentB:     bestCand.b.Key(),
			Result:      bestCand.m.Key(),
			BytesBefore: cur.Bytes(env),
			BytesAfter:  bestCand.next.Bytes(env),
		})
		cur = bestCand.next
		curCost = bestCand.cost
	}

	res.Final = cur
	res.FinalBytes = cur.Bytes(env)
	res.FinalCost = curCost
	res.MetBudget = res.FinalBytes <= storageBudget
	res.Elapsed = time.Since(start)
	return res, nil
}
