package optimizer_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"indexmerge/internal/advisor"
	"indexmerge/internal/datagen"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// planBench is the input every planner benchmark shares: 300 generated
// TPC-D queries, their descriptors, a 40-index tuned configuration and
// each query's CostPrepared under it, which every entry point must
// reproduce to the bit.
type planBench struct {
	opt   *optimizer.Optimizer
	w     *sql.Workload
	stmts []*sql.SelectStmt
	pqs   []*optimizer.PreparedQuery
	cfg   optimizer.Configuration
	want  []uint64
}

var (
	planBenchOnce sync.Once
	planBenchData *planBench
	planBenchErr  error
	benchSink     float64
)

func newPlanBench(b *testing.B) *planBench {
	b.Helper()
	planBenchOnce.Do(func() {
		planBenchErr = func() error {
			db, err := datagen.BuildNamed("tpcd", 0.25, 1)
			if err != nil {
				return err
			}
			w, err := workload.Generate(db, workload.Options{Class: workload.Complex, Queries: 300, Seed: 7})
			if err != nil {
				return err
			}
			opt := optimizer.New(db)
			defs, err := advisor.BuildInitialConfigurationContext(context.Background(), advisor.New(db, opt), w, 40, 1)
			if err != nil {
				return err
			}
			pb := &planBench{opt: opt, w: w, cfg: optimizer.Configuration(defs)}
			for _, q := range w.Queries {
				pq, err := opt.PrepareQuery(q.Stmt)
				if err != nil {
					return err
				}
				cost, err := opt.CostPrepared(pq, pb.cfg)
				if err != nil {
					return err
				}
				pb.stmts = append(pb.stmts, q.Stmt)
				pb.pqs = append(pb.pqs, pq)
				pb.want = append(pb.want, math.Float64bits(cost))
			}
			planBenchData = pb
			return nil
		}()
	})
	if planBenchErr != nil {
		b.Fatal(planBenchErr)
	}
	return planBenchData
}

// run times one call per iteration, cycling through the queries, and
// fails the benchmark on an error or a cost that is not CostPrepared's.
func (pb *planBench) run(b *testing.B, call func(qi int) (float64, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(pb.pqs)
		cost, err := call(qi)
		if err != nil {
			b.Fatal(err)
		}
		if math.Float64bits(cost) != pb.want[qi] {
			b.Fatalf("query %d: cost %v, CostPrepared gave %v", qi+1, cost, math.Float64frombits(pb.want[qi]))
		}
		benchSink = cost
	}
}

// BenchmarkPrepareQuery times descriptor construction; the descriptors
// built in the timed loop are then costed, untimed, against the same
// reference.
func BenchmarkPrepareQuery(b *testing.B) {
	pb := newPlanBench(b)
	fresh := make([]*optimizer.PreparedQuery, len(pb.stmts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(pb.stmts)
		pq, err := pb.opt.PrepareQuery(pb.stmts[qi])
		if err != nil {
			b.Fatal(err)
		}
		fresh[qi] = pq
	}
	b.StopTimer()
	for qi, pq := range fresh {
		if pq == nil {
			continue
		}
		cost, err := pb.opt.CostPrepared(pq, pb.cfg)
		if err != nil {
			b.Fatal(err)
		}
		if math.Float64bits(cost) != pb.want[qi] {
			b.Fatalf("query %d: cost %v from a fresh descriptor, reference %v", qi+1, cost, math.Float64frombits(pb.want[qi]))
		}
	}
}

// BenchmarkPrepareWorkload times preparing a whole workload, the call
// the daemon's ingest and registration and the CLI make: a log that
// repeats 60 shapes under fresh constants (one shape built per template,
// the rest bound), and the 300 distinct queries of the other benchmarks
// (nothing to share). The descriptors of the last timed pass are then
// costed, untimed, against PrepareQuery's.
func BenchmarkPrepareWorkload(b *testing.B) {
	pb := newPlanBench(b)
	distinct := &sql.Workload{}
	for _, stmt := range pb.stmts {
		distinct.Add(stmt, 1)
	}
	db, err := datagen.BuildNamed("synthetic2", 0.25, 1)
	if err != nil {
		b.Fatal(err)
	}
	repeated, err := workload.Generate(db, workload.Options{
		Class: workload.Complex, Disjunctions: true, Queries: 60, Duplication: 2000, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  *optimizer.Optimizer
		w    *sql.Workload
		cfg  optimizer.Configuration
	}{{"repeated", optimizer.New(db), repeated, nil}, {"distinct", pb.opt, distinct, pb.cfg}} {
		b.Run(c.name, func(b *testing.B) {
			var pw *optimizer.PreparedWorkload
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if pw, err = c.opt.PrepareWorkload(c.w); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.w.Len()), "ns/query")
			b.ReportMetric(float64(pw.Shapes), "shapes/op")
			for qi, q := range c.w.Queries {
				fresh, err := c.opt.PrepareQuery(q.Stmt)
				if err != nil {
					b.Fatal(err)
				}
				want, err := c.opt.CostPrepared(fresh, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				got, err := c.opt.CostPrepared(pw.Queries[qi], c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					b.Fatalf("query %d: cost %v from PrepareWorkload's descriptor, %v from PrepareQuery's", qi+1, got, want)
				}
			}
		})
	}
}

func BenchmarkCostPrepared(b *testing.B) {
	pb := newPlanBench(b)
	call := func(qi int) (float64, error) { return pb.opt.CostPrepared(pb.pqs[qi], pb.cfg) }
	// One warm pass sizes the pooled scratch; after it a cost probe must
	// not allocate.
	for qi := range pb.pqs {
		if _, err := call(qi); err != nil {
			b.Fatal(err)
		}
	}
	qi := 0
	if allocs := testing.AllocsPerRun(len(pb.pqs), func() {
		benchSink, _ = call(qi % len(pb.pqs))
		qi++
	}); allocs > 0 {
		b.Fatalf("CostPrepared allocates %.2f times per call, want 0", allocs)
	}
	pb.run(b, call)
}

// BenchmarkWorkloadCostPrepared times the loop that costs a workload
// under one configuration, resolved once for all its queries, and
// reports ns/query. It fails if the total is not the frequency-weighted
// sum of CostPrepared in workload order, to the bit, or if a call over
// all 300 queries allocates more than one over the first ten.
func BenchmarkWorkloadCostPrepared(b *testing.B) {
	pb := newPlanBench(b)
	prefix := func(n int) *optimizer.PreparedWorkload {
		return &optimizer.PreparedWorkload{W: &sql.Workload{Queries: pb.w.Queries[:n]}, Queries: pb.pqs[:n]}
	}
	pw, few := prefix(len(pb.pqs)), prefix(10)
	want := 0.0
	for qi, q := range pb.w.Queries {
		want += math.Float64frombits(pb.want[qi]) * q.Freq
	}
	call := func(pw *optimizer.PreparedWorkload) {
		total, err := pb.opt.WorkloadCostPrepared(pw, pb.cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = total
	}
	call(pw)
	if math.Float64bits(benchSink) != math.Float64bits(want) {
		b.Fatalf("WorkloadCostPrepared = %v, the sum of CostPrepared %v", benchSink, want)
	}
	if all, ten := testing.AllocsPerRun(20, func() { call(pw) }), testing.AllocsPerRun(20, func() { call(few) }); all > ten {
		b.Fatalf("WorkloadCostPrepared allocates %v times over %d queries, %v over %d: allocations grow with the queries", all, pw.Len(), ten, few.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(pw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pw.Len()), "ns/query")
}

// BenchmarkOptimizePreparedEach times the Showplan pass, every query
// planned under one configuration resolved once, and reports ns/query:
// "uses" reads each choice's cost and index uses, as the Seek-Cost pass
// does, and "plans" also builds each plan tree, as -explain does. Both
// fail if a cost is not CostPrepared's.
func BenchmarkOptimizePreparedEach(b *testing.B) {
	pb := newPlanBench(b)
	pw := &optimizer.PreparedWorkload{W: pb.w, Queries: pb.pqs}
	for _, build := range []bool{false, true} {
		name := "uses"
		if build {
			name = "plans"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := pb.opt.OptimizePreparedEach(context.Background(), pw, pb.cfg, func(qi int, c *optimizer.Choice) error {
					cost := c.Cost
					if build {
						cost = c.Plan().Cost
					}
					if math.Float64bits(cost) != pb.want[qi] {
						return fmt.Errorf("query %d: cost %v, CostPrepared gave %v", qi+1, cost, math.Float64frombits(pb.want[qi]))
					}
					benchSink = cost + float64(len(c.Uses))
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pw.Len()), "ns/query")
		})
	}
}

func BenchmarkOptimize(b *testing.B) {
	pb := newPlanBench(b)
	pb.run(b, func(qi int) (float64, error) {
		plan, err := pb.opt.Optimize(pb.stmts[qi], pb.cfg)
		if err != nil {
			return 0, err
		}
		return plan.Cost, nil
	})
}
