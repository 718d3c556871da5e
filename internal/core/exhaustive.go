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
	// Parallelism bounds how many sibling candidates of one DFS node
	// are constraint-checked concurrently. <= 1 evaluates serially.
	// Any value produces byte-identical SearchResults: Accepts is pure
	// with respect to search state, so checking a sibling early cannot
	// change its verdict, and candidates are still consumed in
	// enumeration order with the visited set re-checked at consume
	// time.
	Parallelism int
	// Progress, when non-nil, receives a snapshot after every wave of
	// sibling constraint checks. Called synchronously from the
	// searching goroutine.
	Progress func(Progress)
}

// exhCandidate is one sibling merge of a DFS node.
type exhCandidate struct {
	a, b, m *Index
	next    *Configuration
	sig     string
	ok      bool
	err     error
}

// ExhaustiveContext enumerates every minimal merged configuration
// reachable from the initial configuration through sequences of
// pairwise merges produced by mp, and returns the one with the lowest
// storage among those the checker accepts (paper §3.4: "exhaustively
// enumerate every possible merged configuration with respect to C
// derived using MergePair"). The enumeration is memoized on
// configuration identity but is still exponential — the paper deems it
// infeasible past N ≈ 20, and the experiments use it only at N = 5.
//
// The search observes ctx at every DFS node and every sibling wave, and
// the checker within one constraint check, so cancellation stops the
// enumeration promptly. On cancellation it returns ctx.Err() (no
// partial result); counters already delivered through opt.Progress
// remain valid.
func ExhaustiveContext(ctx context.Context, initial *Configuration, mp MergePair, check ConstraintChecker, env SizeEstimator, opt ExhaustiveOptions) (*SearchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	maxConfigs := opt.MaxConfigs
	if maxConfigs <= 0 {
		maxConfigs = 2_000_000
	}
	wave := opt.Parallelism
	if wave < 1 {
		wave = 1
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
	// Concurrency: all of a node's merges are constructed serially up
	// front (MergePair implementations are not required to be
	// concurrency-safe), then siblings are constraint-checked in waves
	// of size Parallelism. A wave is speculative — an earlier sibling's
	// subtree may visit a later sibling's configuration first, in which
	// case its precomputed verdict is discarded at consume time exactly
	// as the serial DFS would have skipped it.
	var dfs func(cur *Configuration) error
	dfs = func(cur *Configuration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if ba, ok := mp.(baseAware); ok {
			ba.SetBase(cur)
		}
		// Delta-pricing checkers price candidates against cur. Recursion
		// below re-bases them per node; a checker consulted with a
		// configuration that is not a single merge away from its base (a
		// later sibling batch checked after a subtree returned) must
		// detect that and fall back to full costing.
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
		for w := 0; w < len(cands); w += wave {
			end := w + wave
			if end > len(cands) {
				end = len(cands)
			}
			batch := cands[w:end]
			// The wave only reads visited; the loop below writes it.
			EvalEach(len(batch), wave, func(i int) error {
				if c := &batch[i]; !visited[c.sig] {
					c.ok, c.err = safeAccepts(ctx, check, c.next, c.m, c.a, c.b)
				}
				return nil
			})
			for i := range batch {
				cand := &batch[i]
				if visited[cand.sig] {
					continue
				}
				visited[cand.sig] = true
				res.ConfigsExplored++
				if res.ConfigsExplored > maxConfigs {
					return fmt.Errorf("core: exhaustive search exceeded %d configurations", maxConfigs)
				}
				res.CostEvaluations++
				if cand.err != nil {
					return cand.err
				}
				if !cand.ok {
					continue
				}
				if nb := cand.next.Bytes(env); nb < bestBytes {
					bestBytes = nb
					best = cand.next
				}
				if err := dfs(cand.next); err != nil {
					return err
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
