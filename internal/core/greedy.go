package core

import (
	"context"
	"sort"
	"time"
)

// MergeStep records one accepted merge in a search trace.
type MergeStep struct {
	ParentA, ParentB string // definition keys of the merged pair
	Result           string // definition key of the merged index
	BytesBefore      int64
	BytesAfter       int64
}

// SearchResult reports the outcome of a search strategy.
type SearchResult struct {
	Initial *Configuration
	Final   *Configuration
	// InitialBytes and FinalBytes are estimated configuration sizes.
	InitialBytes int64
	FinalBytes   int64
	// Steps traces the accepted merges (Greedy only).
	Steps []MergeStep
	// CostEvaluations counts constraint checks the search consumed:
	// the candidate evaluations that determined its decisions. It is
	// deterministic — identical for serial and parallel runs of the
	// same search (speculative checks a parallel wave evaluated but
	// never consumed are excluded).
	CostEvaluations int64
	// OptimizerCalls counts actual optimizer invocations the
	// constraint checker issued during the search (0 for checkers
	// that never consult a cost function). Unlike CostEvaluations
	// this is a measured quantity: parallel runs may speculate and
	// so issue a different number of calls than serial runs.
	OptimizerCalls int64
	// ConfigsExplored counts candidate configurations considered.
	ConfigsExplored int64
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
}

// StorageReduction returns the fractional storage saving.
func (r *SearchResult) StorageReduction() float64 {
	if r.InitialBytes == 0 {
		return 0
	}
	return 1 - float64(r.FinalBytes)/float64(r.InitialBytes)
}

// GreedyOrder selects how the inner loop ranks candidate merges.
type GreedyOrder int

const (
	// OrderByStorageReduction is the paper's Step 5: descending storage
	// reduction.
	OrderByStorageReduction GreedyOrder = iota
	// OrderByWidthGrowth is an ablation: ascending merged-index width
	// growth over its parents (a proxy for cost increase).
	OrderByWidthGrowth
)

// GreedyOptions tunes the Greedy search.
type GreedyOptions struct {
	Order GreedyOrder
	// Parallelism bounds how many candidate configurations are
	// constraint-checked concurrently in each inner-loop wave. <= 1
	// (the default) evaluates candidates strictly serially. Any value
	// yields byte-identical final configurations, steps, byte totals
	// and CostEvaluations: candidates are still consumed in the
	// paper's storage-reduction order, a wave merely computes their
	// verdicts ahead of time.
	Parallelism int
	// Progress, when non-nil, receives a snapshot after every wave of
	// constraint checks and after every accepted step. Called
	// synchronously from the searching goroutine.
	Progress func(Progress)
}

// baseAware lets MergePair implementations that evaluate candidate
// merges in configuration context (MergePair-Exhaustive) track the
// search's current configuration, and the search's ctx, which their
// costing observes. Searches call setBase(ctx, cur) at the top of each
// expansion, before any Merge against cur's pairs — and, on every
// constraint checker, SetBase(cur) before any Accepts against its
// candidates.
type baseAware interface {
	setBase(ctx context.Context, c *Configuration)
}

// SearchBase is the configuration a search is expanding, held with its
// index pointers so that a delta-pricing checker can tell whether a
// candidate is one merge away from it.
type SearchBase struct {
	Cfg  *Configuration
	ptrs map[*Index]bool
}

// NewSearchBase records cfg as a search's current configuration.
func NewSearchBase(cfg *Configuration) *SearchBase {
	ptrs := make(map[*Index]bool, cfg.Len())
	for _, ix := range cfg.Indexes {
		ptrs[ix] = true
	}
	return &SearchBase{Cfg: cfg, ptrs: ptrs}
}

// Derives reports whether cfg is exactly one ReplacePair(a, b, m) away
// from the base: every index but one is a base pointer, the one fresh
// index carries m's definition key (ReplacePair builds a new *Index
// when the merge collapses with an existing duplicate), a and b are
// base members absent from cfg, and the length dropped by 1 (plain
// replace) or 2 (duplicate collapse). Exhaustive's sibling batches can
// outrun the recorded base; they fail this test and are priced in full.
func (sb *SearchBase) Derives(cfg *Configuration, m, a, b *Index) bool {
	if m == nil || a == nil || b == nil {
		return false
	}
	d := sb.Cfg.Len() - cfg.Len()
	if d != 1 && d != 2 {
		return false
	}
	if !sb.ptrs[a] || !sb.ptrs[b] {
		return false
	}
	fresh := 0
	for _, ix := range cfg.Indexes {
		if ix == a || ix == b {
			return false
		}
		if sb.ptrs[ix] {
			continue
		}
		if ix.Key() != m.Key() {
			return false
		}
		fresh++
	}
	return fresh == 1
}

// setBase implements baseAware for MergePairExhaustive.
func (m *MergePairExhaustive) setBase(ctx context.Context, c *Configuration) {
	m.ctx, m.Base = ctx, c
}

// greedyCandidate is one candidate merge of an outer iteration.
type greedyCandidate struct {
	a, b, m    *Index
	sa, sb, sm int64
	reduction  int64
	growth     int64
}

// verdict is the outcome of one speculative constraint check.
type verdict struct {
	next *Configuration
	ok   bool
	err  error
}

// GreedyContext runs the paper's Figure 4 algorithm: in each outer
// iteration, merge every same-table pair in the current configuration
// with mp, order the results by storage reduction (or as opt.Order
// says), and adopt the first merged configuration the checker accepts.
// The search ends when no merge is acceptable. Runs in O(N³)
// merged-pair constructions; constraint checks dominate in practice
// exactly as §3.4.2 predicts.
//
// The search observes ctx between iterations, between pair merges and
// between waves, and the checker within one constraint check (the
// optimizer-backed ones between per-query optimizer calls), as does
// MergePair-Exhaustive within one merge, so an in-flight search stops
// promptly on cancel. On cancellation it returns ctx.Err() (no partial
// result); counters already delivered through opt.Progress remain valid.
func GreedyContext(ctx context.Context, initial *Configuration, mp MergePair, check ConstraintChecker, env SizeEstimator, opt GreedyOptions) (*SearchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &SearchResult{
		Initial:      initial,
		InitialBytes: initial.Bytes(env),
	}
	cur := initial.Clone()
	// curBytes tracks the current configuration's size incrementally:
	// each accepted step adjusts it from the candidate's
	// already-computed index sizes instead of rescanning the whole
	// configuration.
	curBytes := res.InitialBytes
	startCalls := check.OptimizerCalls()
	wave := opt.Parallelism
	if wave < 1 {
		wave = 1
	}
	emit := func() {
		if opt.Progress == nil {
			return
		}
		opt.Progress(Progress{
			Steps:           len(res.Steps),
			ConfigsExplored: res.ConfigsExplored,
			CostEvaluations: res.CostEvaluations,
			OptimizerCalls:  check.OptimizerCalls() - startCalls,
			InitialBytes:    res.InitialBytes,
			CurrentBytes:    curBytes,
		})
	}

	// Index values are immutable and ReplacePair keeps surviving *Index
	// pointers, so across outer iterations the same pair yields the
	// same merge whenever the procedure is context-free. Memoize those
	// merges (and per-index size estimates): each iteration re-examines
	// every pair but only pairs involving the newly accepted index are
	// actually new. MergePair-Exhaustive costs candidates in
	// configuration context (baseAware), so its merges are never reused.
	type mergedPair struct {
		m  *Index
		sm int64
	}
	_, contextual := mp.(baseAware)
	var memo map[[2]*Index]mergedPair
	if !contextual {
		memo = make(map[[2]*Index]mergedPair)
	}
	sizes := make(map[*Index]int64)
	sizeOf := func(ix *Index) int64 {
		if s, ok := sizes[ix]; ok {
			return s
		}
		s := env.EstimateIndexBytes(ix.Def)
		sizes[ix] = s
		return s
	}

	var cands, eligible []greedyCandidate
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ba, ok := mp.(baseAware); ok {
			ba.setBase(ctx, cur)
		}
		check.SetBase(cur)
		cands = cands[:0]
		for _, pair := range cur.PairsByTable() {
			a, b := pair[0], pair[1]
			var m *Index
			var sm int64
			if mm, hit := memo[[2]*Index{a, b}]; hit {
				m, sm = mm.m, mm.sm
			} else {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				var err error
				m, err = mp.Merge(a, b)
				if err != nil {
					return nil, err
				}
				sm = env.EstimateIndexBytes(m.Def)
				if memo != nil {
					memo[[2]*Index{a, b}] = mergedPair{m: m, sm: sm}
				}
			}
			res.ConfigsExplored++
			sa := sizeOf(a)
			sb := sizeOf(b)
			cands = append(cands, greedyCandidate{
				a: a, b: b, m: m,
				sa: sa, sb: sb, sm: sm,
				reduction: sa + sb - sm,
				growth:    sm - maxI64(sa, sb),
			})
		}
		if len(cands) == 0 {
			break
		}
		switch opt.Order {
		case OrderByWidthGrowth:
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].growth < cands[j].growth })
		default:
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].reduction > cands[j].reduction })
		}

		// Guard: a pairwise merge of very wide keys can *grow* storage
		// (the per-row RID saving loses to the extra internal B+-tree
		// levels wide keys need). Such merges can never serve the
		// storage-minimal objective, so the greedy skips them;
		// Exhaustive still explores every partition.
		eligible = eligible[:0]
		for _, cand := range cands {
			if cand.reduction > 0 {
				eligible = append(eligible, cand)
			}
		}

		// Constraint-check eligible candidates in waves of size
		// opt.Parallelism, consuming verdicts strictly in rank order —
		// the first accepted candidate wins exactly as in the serial
		// algorithm, so results are identical for any parallelism.
		accepted := false
		for w := 0; w < len(eligible) && !accepted; w += wave {
			end := w + wave
			if end > len(eligible) {
				end = len(eligible)
			}
			batch := eligible[w:end]
			verdicts := evaluateWave(ctx, cur, batch, check, wave)
			for bi := range verdicts {
				cand := batch[bi]
				v := verdicts[bi]
				res.CostEvaluations++
				if v.err != nil {
					return nil, v.err
				}
				if !v.ok {
					continue
				}
				nextBytes := curBytes - cand.reduction
				if v.next.Len() == cur.Len()-2 {
					// The merged index coincided with an existing one
					// and the two collapsed; the duplicate's bytes
					// (equal to sm — sizes depend only on the
					// definition) vanish as well.
					nextBytes -= cand.sm
				}
				res.Steps = append(res.Steps, MergeStep{
					ParentA:     cand.a.Key(),
					ParentB:     cand.b.Key(),
					Result:      cand.m.Key(),
					BytesBefore: curBytes,
					BytesAfter:  nextBytes,
				})
				cur = v.next
				curBytes = nextBytes
				accepted = true
				break
			}
			emit()
		}
		if !accepted {
			break
		}
	}

	res.Final = cur
	res.FinalBytes = curBytes
	res.OptimizerCalls = check.OptimizerCalls() - startCalls
	res.Elapsed = time.Since(start)
	emit()
	return res, nil
}

// evaluateWave constraint-checks a batch of candidates against cur
// through EvalEach, on up to parallelism goroutines. Checks are
// speculative: the caller consumes verdicts in order and may discard
// trailing ones. A panicking check is its candidate's *PanicError at
// any parallelism.
func evaluateWave(ctx context.Context, cur *Configuration, batch []greedyCandidate, check ConstraintChecker, parallelism int) []verdict {
	verdicts := make([]verdict, len(batch))
	EvalEach(len(batch), parallelism, func(i int) error {
		cand := batch[i]
		next := cur.ReplacePair(cand.a, cand.b, cand.m)
		ok, err := safeAccepts(ctx, check, next, cand.m, cand.a, cand.b)
		verdicts[i] = verdict{next: next, ok: ok, err: err}
		return nil
	})
	return verdicts
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
