package core

import (
	"context"
	"errors"
	"reflect"
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
		serial, err := GreedyWithOptions(f.initial, mp, serialCheck, f.db, GreedyOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		parCheck := f.checker(slack)
		parCheck.Parallelism = testParallelism
		parallel, err := GreedyWithOptions(f.initial, mp, parCheck, f.db, GreedyOptions{Parallelism: testParallelism})
		if err != nil {
			t.Fatal(err)
		}
		runsEqual(t, serial, parallel)
	}
}

func TestGreedyParallelDeterminismNoCost(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairCost{Seek: f.seek}
	serial, err := GreedyWithOptions(f.initial, mp, &NoCostChecker{F: 0.60, P: 0.60, Tables: f.db}, f.db, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := GreedyWithOptions(f.initial, mp, &NoCostChecker{F: 0.60, P: 0.60, Tables: f.db}, f.db, GreedyOptions{Parallelism: testParallelism})
	if err != nil {
		t.Fatal(err)
	}
	runsEqual(t, serial, parallel)
}

func TestExhaustiveParallelDeterminism(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairCost{Seek: f.seek}
	for _, slack := range []float64{0.05, 0.15, 0.50} {
		serial, err := Exhaustive(f.initial, mp, f.checker(slack), f.db, ExhaustiveOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		parCheck := f.checker(slack)
		parCheck.Parallelism = testParallelism
		parallel, err := Exhaustive(f.initial, mp, parCheck, f.db, ExhaustiveOptions{Parallelism: testParallelism})
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
// candidate's *PanicError, returned by both searches, serially as well
// as from a parallel wave.
func TestSearchPanicIsAnErrorAtAnyParallelism(t *testing.T) {
	f := newSearchFixture(t)
	mp := &MergePairCost{Seek: f.seek}
	for _, par := range []int{1, 4} {
		check := panickingChecker{f.checker(0.50)}
		_, gerr := GreedyWithOptions(f.initial, mp, check, f.db, GreedyOptions{Parallelism: par})
		_, eerr := Exhaustive(f.initial, mp, check, f.db, ExhaustiveOptions{Parallelism: par})
		for name, err := range map[string]error{"greedy": gerr, "exhaustive": eerr} {
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "scripted check panic" {
				t.Errorf("%s at parallelism %d: error %v, want the check's *PanicError", name, par, err)
			}
		}
	}
}

// TestGreedyIncrementalBytesConsistent checks the running byte totals
// against a from-scratch recomputation: the incremental accounting must
// agree with Configuration.Bytes at every step boundary.
func TestGreedyIncrementalBytesConsistent(t *testing.T) {
	f := newSearchFixture(t)
	res, err := GreedyWithOptions(f.initial, &MergePairCost{Seek: f.seek}, f.checker(0.50), f.db, GreedyOptions{})
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

// TestCheckerCounterSplit verifies the two counters measure different
// things: Evaluations counts constraint checks, OptimizerCalls counts
// actual optimizer invocations, and cache hits advance only the former.
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
	if got := check.Evaluations(); got != 1 {
		t.Errorf("Evaluations = %d after one WorkloadCost", got)
	}

	// Fully cached re-evaluation: constraint checks advance, optimizer
	// calls do not.
	for i := 0; i < 3; i++ {
		if _, err := check.WorkloadCostContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := check.Evaluations(); got != 4 {
		t.Errorf("Evaluations = %d after four WorkloadCosts", got)
	}
	if got := check.OptimizerCalls(); got != wantCalls {
		t.Errorf("cached evaluations issued %d extra optimizer calls", got-wantCalls)
	}
	hits, misses, _ := check.CacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache stats hits=%d misses=%d, want both > 0", hits, misses)
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
	if got, want := check.Evaluations(), int64(workers*rounds); got != want {
		t.Errorf("Evaluations = %d, want %d", got, want)
	}
}

// TestQueryKeyUnambiguous verifies the cache key's injectivity
// contract: two configurations share a query's key exactly when their
// relevant subsets — the set of indexes relevant to the query
// (IndexRelevant), whatever their order in the configuration — coincide,
// and the bytes that end an index key and a unit's prefix (a query's
// '|', a template's '\x1d') can never occur inside an index key.
func TestQueryKeyUnambiguous(t *testing.T) {
	f := newSearchFixture(t)

	// The fixture's indexes plus some that are on a query's table yet
	// irrelevant to it, and one that is relevant to nothing.
	ixs := append([]*Index(nil), f.initial.Indexes...)
	ixs = append(ixs, NewIndex(def("fact", "m2", "m3")), NewIndex(def("fact", "pad")), NewIndex(def("dim", "name")))
	for _, ix := range ixs {
		if strings.ContainsAny(ix.Key(), string(keySepIndex)+"|\x1d") {
			t.Fatalf("index key %q contains a reserved separator byte", ix.Key())
		}
	}
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
			sorted, rels := check.pricer.relevance(new(priceScratch), cfg)
			key := string(check.pricer.appendKey(nil, qi, sorted, rels))
			var relKeys []string
			for _, ix := range cfg.Indexes {
				if isRelevant(qi, ix) {
					relKeys = append(relKeys, ix.Key())
				} else if f.w.Queries[qi].Stmt.ColumnsOf(ix.Def.Table) != nil {
					narrowed = true
				}
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
