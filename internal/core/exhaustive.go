package core

import (
	"context"
	"fmt"
	"time"
)

// ExhaustiveOptions bounds the exhaustive enumeration.
type ExhaustiveOptions struct {
	// MaxConfigs aborts runaway enumerations (0 = default bound).
	MaxConfigs int64
	// Progress, when non-nil, receives a snapshot after every sibling
	// candidate the search consumes — checked, or skipped as already
	// visited — and once at the end. Called synchronously from the
	// searching goroutine.
	Progress func(Progress)
}

// exhCandidate is one sibling merge of a DFS node.
type exhCandidate struct {
	a, b, m *Index
	next    *Configuration
	sig     string
}

// ExhaustiveContext enumerates every minimal merged configuration
// reachable from the initial configuration through sequences of
// pairwise merges produced by mp, and returns the one with the lowest
// storage among those the checker accepts (paper §3.4: "exhaustively
// enumerate every possible merged configuration with respect to C
// derived using MergePair"). The enumeration is memoized on
// configuration identity but is still exponential — the paper deems it
// infeasible past N ≈ 20, and the experiments use it only at N = 5.
// Like the paper's, the search is serial: one constraint check at a
// time, in enumeration order.
//
// The search observes ctx at every DFS node, and the checker within one
// constraint check, so cancellation stops the enumeration promptly. On
// cancellation it returns ctx.Err() (no partial result); counters
// already delivered through opt.Progress remain valid.
func ExhaustiveContext(ctx context.Context, initial *Configuration, mp MergePair, check ConstraintChecker, env SizeEstimator, opt ExhaustiveOptions) (*SearchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	maxConfigs := opt.MaxConfigs
	if maxConfigs <= 0 {
		maxConfigs = 2_000_000
	}
	res := &SearchResult{
		Initial:      initial,
		InitialBytes: initial.Bytes(env),
	}

	best := initial
	bestBytes := res.InitialBytes
	visited := map[string]bool{initial.Signature(): true}
	startCalls := check.OptimizerCalls()
	emit := func() {
		if opt.Progress == nil {
			return
		}
		opt.Progress(Progress{
			ConfigsExplored: res.ConfigsExplored,
			CostEvaluations: res.CostEvaluations,
			OptimizerCalls:  check.OptimizerCalls() - startCalls,
			InitialBytes:    res.InitialBytes,
			CurrentBytes:    bestBytes,
		})
	}

	// DFS over the merge lattice. A configuration is only expanded
	// (not necessarily accepted) — acceptance is checked per candidate,
	// and rejected configurations are not expanded further: any deeper
	// merge contains this one's indexes and by monotonicity of the cost
	// constraint would be checked on its own path anyway; pruning
	// rejected branches matches the minimal-merged-configuration space.
	//
	// All of a node's merges are built before the first subtree runs,
	// which re-bases mp on its own node.
	var dfs func(cur *Configuration) error
	dfs = func(cur *Configuration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if ba, ok := mp.(baseAware); ok {
			ba.setBase(ctx, cur)
		}
		// Delta-pricing checkers price candidates against cur. Recursion
		// below re-bases them per node; a checker consulted with a
		// configuration that is not a single merge away from its base (a
		// later sibling checked after a subtree returned) must detect
		// that and fall back to full costing.
		check.SetBase(cur)
		pairs := cur.PairsByTable()
		cands := make([]exhCandidate, 0, len(pairs))
		for _, pair := range pairs {
			a, b := pair[0], pair[1]
			m, err := mp.Merge(a, b)
			if err != nil {
				return err
			}
			next := cur.ReplacePair(a, b, m)
			cands = append(cands, exhCandidate{a: a, b: b, m: m, next: next, sig: next.Signature()})
		}
		for i := range cands {
			if cand := &cands[i]; !visited[cand.sig] {
				visited[cand.sig] = true
				res.ConfigsExplored++
				if res.ConfigsExplored > maxConfigs {
					return fmt.Errorf("core: exhaustive search exceeded %d configurations", maxConfigs)
				}
				res.CostEvaluations++
				ok, err := safeAccepts(ctx, check, cand.next, cand.m, cand.a, cand.b)
				if err != nil {
					return err
				}
				if ok {
					if nb := cand.next.Bytes(env); nb < bestBytes {
						bestBytes = nb
						best = cand.next
					}
					if err := dfs(cand.next); err != nil {
						return err
					}
				}
			}
			emit()
		}
		return nil
	}
	if err := dfs(initial); err != nil {
		return nil, err
	}

	res.Final = best
	res.FinalBytes = bestBytes
	res.OptimizerCalls = check.OptimizerCalls() - startCalls
	res.Elapsed = time.Since(start)
	emit()
	return res, nil
}
