package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

const testParallelism = 8

// runsEqual verifies two SearchResults are identical in every
// deterministic field (Elapsed and OptimizerCalls are measured
// quantities and excluded by design).
func runsEqual(t *testing.T, serial, parallel *SearchResult) {
	t.Helper()
	if serial.Final.Signature() != parallel.Final.Signature() {
		t.Errorf("final configs differ:\n serial   %s\n parallel %s",
			serial.Final.Signature(), parallel.Final.Signature())
	}
	if serial.FinalBytes != parallel.FinalBytes {
		t.Errorf("final bytes differ: %d vs %d", serial.FinalBytes, parallel.FinalBytes)
	}
	if serial.InitialBytes != parallel.InitialBytes {
		t.Errorf("initial bytes differ: %d vs %d", serial.InitialBytes, parallel.InitialBytes)
	}
	if !reflect.DeepEqual(serial.Steps, parallel.Steps) {
		t.Errorf("steps differ:\n serial   %+v\n parallel %+v", serial.Steps, parallel.Steps)
	}
	if serial.CostEvaluations != parallel.CostEvaluations {
		t.Errorf("consumed evaluations differ: %d vs %d", serial.CostEvaluations, parallel.CostEvaluations)
	}
	if serial.ConfigsExplored != parallel.ConfigsExplored {
		t.Errorf("configs explored differ: %d vs %d", serial.ConfigsExplored, parallel.ConfigsExplored)
	}
}

func TestGreedyParallelDeterminism(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairCost{Seek: f.seek}
	for _, slack := range []float64{0.05, 0.15, 0.50} {
		serialCheck := f.checker(slack)
		serial, err := GreedyContext(context.Background(), f.initial, mp, serialCheck, f.db, GreedyOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		parCheck := f.checker(slack)
		parCheck.Parallelism = testParallelism
		parallel, err := GreedyContext(context.Background(), f.initial, mp, parCheck, f.db, GreedyOptions{Parallelism: testParallelism})
		if err != nil {
			t.Fatal(err)
		}
		runsEqual(t, serial, parallel)
	}
}

func TestGreedyParallelDeterminismNoCost(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairCost{Seek: f.seek}
	serial, err := GreedyContext(context.Background(), f.initial, mp, &NoCostChecker{F: 0.60, P: 0.60, Tables: f.db}, f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := GreedyContext(context.Background(), f.initial, mp, &NoCostChecker{F: 0.60, P: 0.60, Tables: f.db}, f.db, GreedyOptions{Parallelism: testParallelism})
	if err != nil {
		t.Fatal(err)
	}
	runsEqual(t, serial, parallel)
}

// TestExhaustiveParallelDeterminism: the serial Exhaustive search over
// a checker that fills each check's misses concurrently makes the
// decisions it makes over a serial checker.
func TestExhaustiveParallelDeterminism(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairCost{Seek: f.seek}
	for _, slack := range []float64{0.05, 0.15, 0.50} {
		serial, err := ExhaustiveContext(context.Background(), f.initial, mp, f.checker(slack), f.db, ExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		parCheck := f.checker(slack)
		parCheck.Parallelism = testParallelism
		parallel, err := ExhaustiveContext(context.Background(), f.initial, mp, parCheck, f.db, ExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		runsEqual(t, serial, parallel)
	}
}

// panickingChecker is a checker whose every Accepts panics.
type panickingChecker struct{ *OptimizerChecker }

func (panickingChecker) Accepts(context.Context, *Configuration, *Index, *Index, *Index) (bool, error) {
	panic("scripted check panic")
}

// TestSearchPanicIsAnErrorAtAnyParallelism: a panicking check is the
// candidate's *PanicError, returned by Greedy serially as well as from
// a parallel wave, and by the serial Exhaustive search.
func TestSearchPanicIsAnErrorAtAnyParallelism(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairCost{Seek: f.seek}
	check := panickingChecker{f.checker(0.50)}
	errs := map[string]error{}
	for _, par := range []int{1, 4} {
		_, errs[fmt.Sprintf("greedy at parallelism %d", par)] = GreedyContext(context.Background(), f.initial, mp, check, f.db, GreedyOptions{Parallelism: par})
	}
	_, errs["exhaustive"] = ExhaustiveContext(context.Background(), f.initial, mp, check, f.db, ExhaustiveOptions{})
	for name, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "scripted check panic" {
			t.Errorf("%s: error %v, want the check's *PanicError", name, err)
		}
	}
}

// TestGreedyIncrementalBytesConsistent checks the running byte totals
// against a from-scratch recomputation: the incremental accounting must
// agree with Configuration.Bytes at every step boundary.
func TestGreedyIncrementalBytesConsistent(t *testing.T) {
	f := newSearchFixture(t)
	res, err := GreedyContext(context.Background(), f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.50), f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("fixture should allow at least one merge")
	}
	if res.Steps[0].BytesBefore != res.InitialBytes {
		t.Errorf("first step starts at %d, initial is %d", res.Steps[0].BytesBefore, res.InitialBytes)
	}
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].BytesBefore != res.Steps[i-1].BytesAfter {
			t.Errorf("step %d bytes discontinuous: %d after vs %d before",
				i, res.Steps[i-1].BytesAfter, res.Steps[i].BytesBefore)
		}
	}
	if last := res.Steps[len(res.Steps)-1].BytesAfter; last != res.FinalBytes {
		t.Errorf("last step ends at %d, final is %d", last, res.FinalBytes)
	}
	if got := res.Final.Bytes(f.db); got != res.FinalBytes {
		t.Errorf("incremental final bytes %d != recomputed %d", res.FinalBytes, got)
	}
}

// TestCheckerCounterSplit verifies OptimizerCalls counts actual
// optimizer invocations: a cached evaluation advances the store's hits,
// never OptimizerCalls or the misses.
func TestCheckerCounterSplit(t *testing.T) {
	f := newSearchFixture(t)
	check := f.checker(0.10)
	cfg := f.initial.Clone()

	before := f.opt.InvocationCount()
	if _, err := check.WorkloadCostContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	wantCalls := f.opt.InvocationCount() - before
	if wantCalls == 0 {
		t.Fatal("first evaluation issued no optimizer calls")
	}
	if got := check.OptimizerCalls(); got != wantCalls {
		t.Errorf("OptimizerCalls = %d, optimizer counted %d", got, wantCalls)
	}
	hits0, misses0, _ := check.CacheStats()
	if misses0 == 0 {
		t.Error("a cold evaluation counted no store miss")
	}

	// Fully cached re-evaluation: store hits advance, optimizer calls
	// and misses do not.
	for i := 0; i < 3; i++ {
		if _, err := check.WorkloadCostContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := check.OptimizerCalls(); got != wantCalls {
		t.Errorf("cached evaluations issued %d extra optimizer calls", got-wantCalls)
	}
	hits, misses, _ := check.CacheStats()
	if hits == hits0 || misses != misses0 {
		t.Errorf("cached evaluations moved hits %d -> %d and misses %d -> %d, want hits up and misses still",
			hits0, hits, misses0, misses)
	}
}

// TestWorkloadCostConcurrentStress hammers one checker from many
// goroutines across alternating configurations; every result must be
// bit-identical to a serial evaluation with a fresh checker.
func TestWorkloadCostConcurrentStress(t *testing.T) {
	f := newSearchFixture(t)

	// Build a few distinct configurations by merging different pairs.
	configs := []*Configuration{f.initial.Clone()}
	mp := &MergePairCost{Seek: f.seek}
	for _, pair := range f.initial.PairsByTable() {
		m, err := mp.Merge(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, f.initial.ReplacePair(pair[0], pair[1], m))
	}

	want := make([]float64, len(configs))
	serial := f.checker(0.10)
	for i, cfg := range configs {
		v, err := serial.WorkloadCostContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	check := f.checker(0.10)
	check.Parallelism = testParallelism
	const workers = 16
	const rounds = 20
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(configs)
				v, err := check.WorkloadCostContext(context.Background(), configs[i])
				if err != nil {
					errCh <- err
					return
				}
				if v != want[i] {
					t.Errorf("config %d: concurrent cost %v != serial %v", i, v, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestQueryKeyUnambiguous verifies the cache key's injectivity
// contract: two configurations share a query's key exactly when their
// relevant subsets — the set of indexes relevant to the query
// (IndexRelevant), whatever their order in the configuration — coincide,
// and a key is the query's ID and one word per relevant index, in
// ascending order, never the indexes' text.
func TestQueryKeyUnambiguous(t *testing.T) {
	f := newSearchFixture(t)

	// The fixture's indexes plus some that are on a query's table yet
	// irrelevant to it, and one that is relevant to nothing.
	ixs := append([]*Index(nil), f.initial.Indexes...)
	ixs = append(ixs, NewIndex(def("fact", "m2", "m3")), NewIndex(def("fact", "pad")), NewIndex(def("dim", "name")))
	// All subsets, in configuration order and reversed.
	var configs []*Configuration
	for mask := 0; mask < 1<<len(ixs); mask++ {
		var fwd, rev []*Index
		for i, ix := range ixs {
			if mask&(1<<i) != 0 {
				fwd = append(fwd, ix)
				rev = append([]*Index{ix}, rev...)
			}
		}
		configs = append(configs, &Configuration{Indexes: fwd}, &Configuration{Indexes: rev})
	}

	check := f.checker(0.10)
	check.Prepared = f.pw
	if err := check.lazyInit(); err != nil {
		t.Fatal(err)
	}
	// The contract's own statement of relevance, not the checker's.
	isRelevant := func(qi int, ix *Index) bool {
		return f.pw.Queries[qi].IndexRelevant(ix.Def.Table, ix.Def.Columns)
	}
	narrowed := false
	for qi := range check.W.Queries {
		byKey := make(map[string]string) // cache key -> relevant subset
		byRel := make(map[string]string) // relevant subset -> cache key
		for _, cfg := range configs {
			sc := new(priceScratch)
			check.pricer.relevance(sc, cfg, check.pricer.all)
			words := check.pricer.cellKey(nil, qi, sc)
			key := fmt.Sprint(words)
			var relKeys []string
			for _, ix := range cfg.Indexes {
				if isRelevant(qi, ix) {
					relKeys = append(relKeys, ix.Key())
				} else if f.w.Queries[qi].Stmt.ColumnsOf(ix.Def.Table) != nil {
					narrowed = true
				}
			}
			id := check.pricer.units[qi].ID
			if !slices.Equal(words[:len(id)], id) || len(words) != len(id)+len(relKeys) || !slices.IsSorted(words[len(id):]) {
				t.Fatalf("q%d: key %v for %d relevant indexes, want ID %v and one ascending word an index", qi, words, len(relKeys), id)
			}
			sort.Strings(relKeys)
			rel := strings.Join(relKeys, "\x00")
			if prev, seen := byKey[key]; seen && prev != rel {
				t.Fatalf("q%d: key collision between relevant subsets %q and %q", qi, prev, rel)
			}
			byKey[key] = rel
			// The same relevant subset must also map to the same key
			// (cache hits across configurations differing only in
			// irrelevant indexes).
			if prev, seen := byRel[rel]; seen && prev != key {
				t.Fatalf("q%d: relevant subset %q produced two keys", qi, rel)
			}
			byRel[rel] = key
		}
	}
	if !narrowed {
		t.Error("no index on a query's table was irrelevant to it: the relevance contract went unexercised")
	}
}
