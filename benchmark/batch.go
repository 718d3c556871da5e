package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"indexmerge"
	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/server"
	"indexmerge/internal/sql"
	"indexmerge/internal/wscale"
)

// batchSpec sizes a workload that drives the cmd/idxmerge path
// in-process: SQL text in, result payload out.
type batchSpec struct {
	DB           string
	Scale        float64
	Templates    int
	Disjunctions bool
	// Statements is the number of SQL lines of one advisory operation;
	// above Templates the rest are constant-varied repeats.
	Statements int
	// Variants is the number of constant sets a repeated statement
	// draws from, per template (0 = every repeat has fresh constants).
	Variants   int
	InitialN   int
	Constraint float64
	Compressed bool // -costmodel compressed rather than opt
	// Operations is the number of advisory operations per round, each
	// on its own seeded text.
	Operations int
	// CostRequests Cost(W,C) calls per round rotate over CostSubsets
	// seeded subsets of SubsetSize indexes of the initial configuration.
	CostRequests, CostSubsets, SubsetSize int
}

// initialSeed seeds the draw of the initial configuration, as
// cmd/idxmerge -seed does.
const initialSeed = 1

type batchWorkload struct {
	spec batchSpec
	tr   *tracer
}

// advice is what one advisory operation returned.
type advice struct {
	merger  *indexmerge.Merger
	initial []catalog.IndexDef
	result  *indexmerge.MergeResult
	payload []byte
	ingest  time.Duration // SQL text to costable state
	total   time.Duration // SQL text to result payload
	// What-if cache lookups of the search (unrolled plain model only).
	cacheHits, cacheMisses int64
}

// signature identifies the recommended configuration.
func (a *advice) signature() string { return a.result.Final.Signature() }

func (s *batchSpec) options() indexmerge.MergeOptions {
	opts := indexmerge.MergeOptions{CostConstraint: s.Constraint, Parallelism: 1}
	if s.Compressed {
		opts.CostModel = indexmerge.CompressedOptimizerCost
	}
	return opts
}

func encodePayload(res *indexmerge.MergeResult) ([]byte, error) {
	return json.MarshalIndent(server.NewMergeResultPayload(res), "", "  ")
}

// advise is the operation under test, as cmd/idxmerge -json runs it.
func (s *batchSpec) advise(ctx context.Context, db *engine.Database, text string, opts indexmerge.MergeOptions) (*advice, error) {
	a := &advice{}
	start := time.Now()
	w, err := sql.ParseWorkload(strings.NewReader(text), db.Schema())
	if err != nil {
		return nil, err
	}
	m, err := indexmerge.NewMerger(db, w)
	if err != nil {
		return nil, err
	}
	if opts.CostModel == indexmerge.CompressedOptimizerCost {
		_, err = m.CompressedWorkload()
	} else {
		_, err = m.PreparedWorkload()
	}
	if err != nil {
		return nil, err
	}
	a.ingest = time.Since(start)
	adv := advisor.New(db, m.Optimizer())
	a.initial, err = advisor.BuildInitialConfigurationContext(ctx, adv, w, s.InitialN, initialSeed)
	if err != nil {
		return nil, err
	}
	a.result, err = m.MergeDefsContext(ctx, a.initial, opts)
	if err != nil {
		return nil, err
	}
	a.payload, err = encodePayload(a.result)
	if err != nil {
		return nil, err
	}
	a.total = time.Since(start)
	a.merger = m
	return a, nil
}

// adviseUnrolled is advise taken apart into the public calls the
// facade makes, one span around each, so that the trace shows where
// the time of an operation goes. It must reach the same result.
func (s *batchSpec) adviseUnrolled(ctx context.Context, tr *tracer, db *engine.Database, text string) (*advice, error) {
	a := &advice{}
	var (
		w     *sql.Workload
		pw    *optimizer.PreparedWorkload
		comp  *wscale.Compressed
		cp    *wscale.Prepared
		seek  *core.SeekCosts
		res   *core.SearchResult
		check *wscale.Checker
		plain *core.OptimizerChecker
		err   error
	)
	opt := optimizer.New(db)
	out := &indexmerge.MergeResult{}
	// step runs fn in a span unless an earlier step failed.
	step := func(name string, fn func() error) {
		if err == nil {
			err = tr.do(name, fn)
		}
	}
	tr.nextOp()
	start := time.Now()
	_ = tr.do("advise", func() error {
		step("sql.parse", func() (err error) {
			w, err = sql.ParseWorkload(strings.NewReader(text), db.Schema())
			return err
		})
		step("optimizer.prepare", func() (err error) {
			pw, err = opt.PrepareWorkload(w)
			return err
		})
		if s.Compressed {
			step("wscale.compress", func() error {
				comp = wscale.Compress(w)
				return nil
			})
			step("wscale.prepare", func() (err error) {
				cp, err = wscale.Prepare(comp, pw, opt, 0)
				return err
			})
		}
		step("advisor.initial_config", func() (err error) {
			a.ingest = time.Since(start)
			a.initial, err = advisor.BuildInitialConfigurationContext(ctx, advisor.New(db, opt), w, s.InitialN, initialSeed)
			return err
		})
		initial := core.NewConfiguration(a.initial)
		step("core.seekcost", func() (err error) {
			out.InitialCost, err = opt.WorkloadCostPrepared(pw, optimizer.Configuration(initial.Defs()))
			if err != nil {
				return err
			}
			seek, err = core.ComputeSeekCostsPrepared(opt, pw, initial)
			return err
		})
		var hits0, misses0 int64
		step("core.greedy", func() (err error) {
			var checker core.ConstraintChecker
			if s.Compressed {
				base, err := cp.WorkloadCostContext(ctx, initial)
				if err != nil {
					return err
				}
				check = wscale.NewChecker(cp, base, s.Constraint)
				check.Parallelism = 1
				checker, out.Bound = check, check.U
				hits0, misses0, _ = cp.TableStats()
			} else {
				plain = core.NewOptimizerChecker(opt, w, out.InitialCost, s.Constraint)
				plain.Parallelism, plain.Prepared = 1, pw
				checker, out.Bound = plain, plain.U
			}
			res, err = core.GreedyContext(ctx, initial, &core.MergePairCost{Seek: seek}, checker, db, core.GreedyOptions{Parallelism: 1})
			return err
		})
		step("facade.payload", func() (err error) {
			out.SearchResult = res
			if s.Compressed {
				out.Templates = len(comp.Templates)
				out.DedupRatio = comp.DedupRatio()
				hits, misses, _ := cp.TableStats()
				out.CostTableHits, out.CostTableMisses = hits-hits0, misses-misses0
				out.PrunedChecks = check.PrunedChecks()
			} else {
				a.cacheHits, a.cacheMisses, _ = plain.CacheStats()
			}
			out.FinalCost, err = opt.WorkloadCostPrepared(pw, optimizer.Configuration(res.Final.Defs()))
			if err != nil {
				return err
			}
			a.payload, err = encodePayload(out)
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	a.total = time.Since(start)
	a.result = out
	return a, nil
}

// costSubsets draws the configurations the cost requests rotate over.
func costSubsets(rng *rand.Rand, defs []catalog.IndexDef, subsets, size int) [][]catalog.IndexDef {
	if size > len(defs) {
		size = len(defs)
	}
	out := make([][]catalog.IndexDef, subsets)
	for i := range out {
		for _, j := range rng.Perm(len(defs))[:size] {
			out[i] = append(out[i], defs[j])
		}
	}
	return out
}

// checkAdvice re-costs the recommendation outside the search: the
// final configuration must cost what the result says and stay within
// the constraint.
func (s *batchSpec) checkAdvice(rec *recorder, a *advice) {
	initial, err1 := a.merger.WorkloadCost(a.initial)
	final, err2 := a.merger.WorkloadCost(a.result.Final.Defs())
	ok := err1 == nil && err2 == nil &&
		final <= initial*(1+s.Constraint)*(1+1e-9) &&
		closeTo(final, a.result.FinalCost) && closeTo(initial, a.result.InitialCost)
	rec.op(ok, "re-costed recommendation: initial %v final %v, result says %v -> %v (constraint %v; errors %v, %v)",
		initial, final, a.result.InitialCost, a.result.FinalCost, s.Constraint, err1, err2)
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(a+b)
}

func (b *batchWorkload) round(ctx context.Context, seed int64, round int, rec *recorder) error {
	s := &b.spec
	rec.calibrate()
	start := time.Now()
	db, err := datagen.BuildNamed(s.DB, s.Scale, corpusDBSeed)
	if err != nil {
		return err
	}
	setup := time.Since(start)
	rec.seconds("setup_s", setup)
	rec.calibrate()

	gen, err := newGenerator(db, s.Templates, s.Disjunctions)
	if err != nil {
		return err
	}
	// A traced round runs every operation twice, opaque and unrolled,
	// so it takes half of them.
	texts := make([]string, s.Operations)
	if b.tr != nil {
		texts = texts[:(s.Operations+1)/2]
	}
	for i := range texts {
		texts[i] = gen.text(subRNG(seed, round, i), 0, s.Templates, s.Statements, s.Variants)
	}

	var last *advice
	for i, text := range texts {
		rec.calibrate()
		var a *advice
		alloc, err := allocDelta(func() (err error) {
			a, err = s.advise(ctx, db, text, s.options())
			return err
		})
		if !rec.op(err == nil, "advise: %v", err) {
			continue
		}
		rec.seconds("advise_s", a.total)
		rec.rate("ingest_stmts_per_s", float64(s.Statements), a.ingest)
		if i == 0 {
			// A batch process has no journal to come back from: starting
			// again is building the database and reading the log again.
			rec.seconds("restart_ready_s", setup+a.ingest)
		}
		rec.count("advise_alloc_mb", float64(alloc)/(1<<20))
		rec.count("storage_reduction_pct", 100*a.result.StorageReduction())
		rec.count("core.cost_increase_pct", 100*a.result.CostIncrease())
		s.checkAdvice(rec, a)
		last = a

		if b.tr != nil {
			if err := b.traceOperation(ctx, rec, db, text, a); err != nil {
				return err
			}
		}
		// Compression is exact: the plain model must recommend the same
		// configuration. The reference round, whose times are dropped
		// anyway, pays for the comparison.
		if s.Compressed && round == 0 && i == 0 {
			opts := s.options()
			opts.CostModel = indexmerge.OptimizerCost
			plain, err := s.advise(ctx, db, text, opts)
			rec.op(err == nil && plain.signature() == a.signature(), "opt model disagrees with compressed model (error %v)", err)
		}
	}
	if last == nil {
		return fmt.Errorf("no advisory operation succeeded")
	}

	rec.calibrate()
	subsets := costSubsets(subRNG(seed, round, -1), last.initial, s.CostSubsets, s.SubsetSize)
	for i := 0; i < s.CostRequests; i++ {
		t := time.Now()
		_, err := last.merger.WorkloadCost(subsets[i%len(subsets)])
		d := time.Since(t)
		if rec.op(err == nil, "cost request: %v", err) {
			rec.latency("cost_req_p50_us", d)
		}
	}

	rec.calibrate()
	rec.sample("live_heap_mb", liveHeapMB())
	if b.tr != nil {
		if err := b.traceLayers(ctx, rec, db, texts[len(texts)-1], last); err != nil {
			return err
		}
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(last)
	return nil
}

// traceOperation repeats one operation unrolled and checks that it
// reaches the configuration the opaque facade call reached.
func (b *batchWorkload) traceOperation(ctx context.Context, rec *recorder, db *engine.Database, text string, facade *advice) error {
	runtime.GC()
	mark := b.tr.mark()
	u, err := b.spec.adviseUnrolled(ctx, b.tr, db, text)
	if err != nil {
		return fmt.Errorf("unrolled advise: %w", err)
	}
	rec.op(bytes.Equal(stripElapsed(u.payload), stripElapsed(facade.payload)),
		"unrolled operation and facade disagree:\n%s\n%s", u.signature(), facade.signature())
	rec.seconds("traced_advise_s", u.total)
	self := b.tr.selfTimes(mark)
	// A search that merges nothing still makes one pass over the pairs.
	rec.duration("core.ms_per_iteration", self["core.greedy"][0]/1e3/float64(max(len(u.result.Steps), 1)))
	if lookups := u.cacheHits + u.cacheMisses; lookups > 0 {
		rec.count("core.cache_hit_ratio", float64(u.cacheHits)/float64(lookups))
	}

	payload := server.NewMergeResultPayload(u.result)
	recordMerge(rec, &payload)
	return nil
}

// stripElapsed blanks the one measured field of a result payload.
func stripElapsed(payload []byte) []byte {
	var p server.MergeResultPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return payload
	}
	p.ElapsedSeconds = 0
	out, err := json.Marshal(p)
	if err != nil {
		return payload
	}
	return out
}
