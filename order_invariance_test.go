// Metamorphic tests of the what-if optimizer's inputs: a configuration
// is a set of indexes (§3.1), so every entry point that prices one must
// answer the same bits whatever order the caller lists it in, and the
// facade's cost, read from the form's cost table, must agree with the
// optimizer's workload-order sum.
package indexmerge

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"indexmerge/internal/core"
	"indexmerge/internal/datagen"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/oracle"
	"indexmerge/internal/workload"
)

// setCosts is everything the optimizer and the facade answer for one
// configuration of a workload, as float bits: per statement, the plan
// cost of Optimize, CostPrepared and the plan cost of
// OptimizePreparedEach; per workload, the workload-order sum of
// CostPrepared × frequency, WorkloadCostPrepared, CostPreparedSum over
// every statement, and Merger.WorkloadCost on a merger of its own. uses
// records the indexes each plan of Optimize and of OptimizePreparedEach
// uses, by key and mode: a plan, too, is the set's. priceSet also holds
// the Seek-Costs of the configuration to its plan trees (checkSeekCosts).
type setCosts struct {
	perQuery [][3]uint64
	uses     [][2]string
	totals   [4]uint64
}

// usesOf renders a plan's index usage by key and mode.
func usesOf(plan *optimizer.Plan) string {
	var b strings.Builder
	for _, u := range plan.Uses {
		fmt.Fprintf(&b, "%s:%v ", u.Index.Key(), u.Mode)
	}
	return b.String()
}

// workloadOrder is Cost(W, C) summed query by query in workload order
// from one-off CostPrepared calls: the sum the workload passes answer.
func workloadOrder(t *testing.T, opt *optimizer.Optimizer, pw *optimizer.PreparedWorkload, cfg optimizer.Configuration) float64 {
	t.Helper()
	sum := 0.0
	for qi, pq := range pw.Queries {
		cost, err := opt.CostPrepared(pq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum += cost * pw.W.Queries[qi].Freq
	}
	return sum
}

func priceSet(t *testing.T, db *Database, w *Workload, cfg optimizer.Configuration) setCosts {
	t.Helper()
	m, err := NewMerger(db, w)
	if err != nil {
		t.Fatal(err)
	}
	opt := m.Optimizer()
	pw, err := m.PreparedWorkload()
	if err != nil {
		t.Fatal(err)
	}
	var out setCosts
	each := make([]*optimizer.Plan, len(pw.Queries))
	if err := opt.OptimizePreparedEach(context.Background(), pw, cfg, func(qi int, c *optimizer.Choice) error {
		each[qi] = c.Plan()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for qi, pq := range pw.Queries {
		plan, err := opt.Optimize(w.Queries[qi].Stmt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := opt.CostPrepared(pq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out.perQuery = append(out.perQuery, [3]uint64{math.Float64bits(plan.Cost), math.Float64bits(prepared), math.Float64bits(each[qi].Cost)})
		out.uses = append(out.uses, [2]string{usesOf(plan), usesOf(each[qi])})
	}
	ordered := workloadOrder(t, opt, pw, cfg)
	prepared, err := opt.WorkloadCostPrepared(pw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	members, weights := pw.Whole()
	sum, _, err := opt.CostPreparedSum(context.Background(), pw, members, weights, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	facade, err := m.WorkloadCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.totals = [4]uint64{math.Float64bits(ordered), math.Float64bits(prepared), math.Float64bits(sum), math.Float64bits(facade)}
	for k := 1; k <= 2; k++ {
		if out.totals[k] != out.totals[0] {
			t.Fatalf("%s %v, the workload-order sum %v", setCostNames[3+k], math.Float64frombits(out.totals[k]), ordered)
		}
	}
	checkSeekCosts(t, opt, pw, cfg, each)
	return out
}

// checkSeekCosts holds core's Seek-Cost pass under cfg, which reads the
// planner's choices and builds no plan, to the attribution read off the
// trees of plans, the pass's plans of pw under cfg: each plan's cost ×
// frequency goes to every index an IndexSeek leaf of it reads, once per
// key (oracle.LeafUses), summed in workload order. Every index's
// Seek-Cost and Cost(W, C₀) must be those bits.
func checkSeekCosts(t *testing.T, opt *optimizer.Optimizer, pw *optimizer.PreparedWorkload, cfg optimizer.Configuration, plans []*optimizer.Plan) {
	t.Helper()
	want, initial := make(map[string]float64), 0.0
	for qi, plan := range plans {
		cost := plan.Cost * pw.W.Queries[qi].Freq
		initial += cost
		for _, u := range oracle.LeafUses(plan.Root) {
			if u.Mode == optimizer.UsageSeek {
				want[u.Index.Key()] += cost
			}
		}
	}
	seek, err := core.ComputeSeekCostsPrepared(opt, pw, core.NewConfiguration(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(seek.InitialCost()) != math.Float64bits(initial) {
		t.Fatalf("Seek-Cost pass: InitialCost %v, the plan trees' %v", seek.InitialCost(), initial)
	}
	for _, d := range cfg {
		if got := seek.SeekCost(d.Key()); math.Float64bits(got) != math.Float64bits(want[d.Key()]) {
			t.Fatalf("Seek-Cost of %s %v, the plan trees' %v", d.Key(), got, want[d.Key()])
		}
	}
}

var setCostNames = [...]string{"Optimize", "CostPrepared", "OptimizePreparedEach", "workload-order sum", "WorkloadCostPrepared", "CostPreparedSum", "Merger.WorkloadCost"}

// sameSetCosts reports the first answer that differs between a and b.
func sameSetCosts(a, b setCosts) error {
	for qi := range a.perQuery {
		for k := range a.perQuery[qi] {
			if x, y := a.perQuery[qi][k], b.perQuery[qi][k]; x != y {
				return fmt.Errorf("query %d: %s %v, then %v", qi+1, setCostNames[k], math.Float64frombits(x), math.Float64frombits(y))
			}
		}
		for k, entry := range []string{"Optimize", "OptimizePreparedEach"} {
			if x, y := a.uses[qi][k], b.uses[qi][k]; x != y {
				return fmt.Errorf("query %d: %s plan uses %s, then %s", qi+1, entry, x, y)
			}
		}
	}
	for k := range a.totals {
		if x, y := a.totals[k], b.totals[k]; x != y {
			return fmt.Errorf("%s %v, then %v", setCostNames[3+k], math.Float64frombits(x), math.Float64frombits(y))
		}
	}
	return nil
}

func keyOrdered(defs []IndexDef) optimizer.Configuration {
	out := slices.Clone(defs)
	slices.SortStableFunc(out, func(a, b IndexDef) int { return strings.Compare(a.Key(), b.Key()) })
	return out
}

// TestCostIsAFunctionOfTheSet prices tuned configurations of the three
// reference databases, over several workload seeds, in key order and in
// shuffled orders: every entry point must answer the same bits, and
// every workload pass, a merge's initial and final costs included, the
// workload-order sum's. Then the facade: Merger.WorkloadCost is WorkloadCostPrepared to the bit on a
// workload without repeated templates and within 1e-12 on a duplicated
// log, and a warm call makes no optimizer call.
func TestCostIsAFunctionOfTheSet(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	distinct := 0 // inputs without a repeated template
	for _, name := range []string{"tpcd", "synthetic1", "synthetic2"} {
		for _, seed := range []int64{1, 2, 3} {
			db, err := datagen.BuildNamed(name, 0.2, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, dup := range []int{0, 60} {
				w, err := workload.Generate(db, workload.Options{
					Class: workload.Complex, Disjunctions: name != "tpcd", Queries: 20, Duplication: dup, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMerger(db, w)
				if err != nil {
					t.Fatal(err)
				}
				defs, err := m.InitialConfiguration(ctx, 16, seed, MergeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if seed == 1 {
					// A merge's workload-order passes — the baseline under
					// MergePair-Cost's Seek-Cost pass and under
					// MergePair-Syntactic's own, the final cost under both —
					// are the workload-order sums to the bit.
					pw, err := m.PreparedWorkload()
					if err != nil {
						t.Fatal(err)
					}
					for _, mp := range []MergePairKind{MergePairCost, MergePairSyntactic} {
						res, err := m.MergeDefsContext(ctx, defs, MergeOptions{MergePair: mp})
						if err != nil {
							t.Fatal(err)
						}
						for _, c := range []struct {
							what string
							got  float64
							cfg  []IndexDef
						}{{"InitialCost", res.InitialCost, defs}, {"FinalCost", res.FinalCost, res.Final.Defs()}} {
							if want := workloadOrder(t, m.opt, pw, c.cfg); math.Float64bits(c.got) != math.Float64bits(want) {
								t.Errorf("%s seed 1 duplication %d, merge pair %d: %s %v, the workload-order sum %v", name, dup, mp, c.what, c.got, want)
							}
						}
					}
				}
				// Each index again on its leading column alone and with the
				// rest of its columns reversed: seeks of one selectivity,
				// more of them than the intersection planner pairs, which
				// it must choose between by key.
				for _, d := range defs[:len(defs):len(defs)] {
					if len(d.Columns) > 1 {
						defs = append(defs, IndexDef{Name: d.Name + "_1", Table: d.Table, Columns: d.Columns[:1]})
					}
					if len(d.Columns) > 2 {
						cols := slices.Clone(d.Columns)
						slices.Reverse(cols[1:])
						defs = append(defs, IndexDef{Name: d.Name + "_r", Table: d.Table, Columns: cols})
					}
				}
				label := fmt.Sprintf("%s seed %d duplication %d, %d indexes", name, seed, dup, len(defs))
				want := priceSet(t, db, w, keyOrdered(defs))
				for range 3 {
					shuffled := slices.Clone(defs)
					rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
					if err := sameSetCosts(want, priceSet(t, db, w, shuffled)); err != nil {
						t.Fatalf("%s: key order, then shuffled: %v", label, err)
					}
				}

				cw, err := m.CompressedWorkload()
				if err != nil {
					t.Fatal(err)
				}
				prepared, facade := math.Float64frombits(want.totals[1]), math.Float64frombits(want.totals[3])
				if len(cw.C.Templates) == w.Len() {
					distinct++
					if facade != prepared {
						t.Errorf("%s, one statement a template: Merger.WorkloadCost %v, WorkloadCostPrepared %v", label, facade, prepared)
					}
				} else if math.Abs(facade-prepared) > 1e-12*prepared {
					t.Errorf("%s, %d templates: Merger.WorkloadCost %v, WorkloadCostPrepared %v", label, len(cw.C.Templates), facade, prepared)
				}
				if dup > 0 && len(cw.C.Templates) == w.Len() {
					t.Fatalf("%s: the duplicated log has no repeated template", label)
				}

				if _, err := m.WorkloadCost(defs); err != nil {
					t.Fatal(err)
				}
				calls := m.Optimizer().InvocationCount()
				slices.Reverse(defs)
				if cost, err := m.WorkloadCost(defs); err != nil || math.Float64bits(cost) != want.totals[3] {
					t.Errorf("%s: warm Merger.WorkloadCost %v (%v), cold %v", label, cost, err, facade)
				}
				if n := m.Optimizer().InvocationCount() - calls; n != 0 {
					t.Errorf("%s: a warm Merger.WorkloadCost made %d optimizer calls", label, n)
				}
			}
		}
	}
	if distinct < 3 {
		t.Fatalf("%d inputs without a repeated template: the bit-for-bit case is checked too little", distinct)
	}
}

// TestCostIsOrderInvariantOnTiedArms pins the statement whose
// intersection arms tie on selectivity under seven indexes: the arm cap
// keeps the first four, so the cost read 1111.4035 in key order and
// 1129.4030 in the order below while the planner took the tie in list
// order. Every entry point must answer the key-order bits. Two
// hand-made inputs follow whose plans could name one index twice: the
// configuration with its first index listed twice, and a disjunction
// whose two union arms seek one index. priceSet holds their Seek-Costs
// to the plan trees, where the index counts once.
func TestCostIsOrderInvariantOnTiedArms(t *testing.T) {
	db, err := datagen.BuildNamed("tpcd", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkload(strings.NewReader(`SELECT lineitem.l_discount, SUM(lineitem.l_linenumber), SUM(lineitem.l_tax) FROM lineitem WHERE lineitem.l_orderkey >= 8224 AND lineitem.l_quantity >= 47 GROUP BY lineitem.l_discount ORDER BY lineitem.l_discount`), db)
	if err != nil {
		t.Fatal(err)
	}
	var defs []IndexDef
	for _, cols := range [][]string{
		{"l_orderkey"},
		{"l_orderkey", "l_comment", "l_partkey"},
		{"l_orderkey", "l_extendedprice", "l_shipmode", "l_suppkey", "l_tax"},
		{"l_orderkey", "l_partkey", "l_tax"},
		{"l_orderkey", "l_shipinstruct", "l_linenumber", "l_partkey", "l_shipdate"},
		{"l_quantity", "l_commitdate", "l_orderkey"},
		{"l_quantity", "l_partkey", "l_tax"},
	} {
		defs = append(defs, IndexDef{Name: "ix_" + strings.Join(cols, "_"), Table: "lineitem", Columns: cols})
	}
	want := priceSet(t, db, w, defs)
	if got := math.Float64frombits(want.perQuery[0][1]); math.Abs(got-1111.4035) > 1e-4 {
		t.Fatalf("key order prices the statement at %v, want 1111.4035", got)
	}
	var shuffled optimizer.Configuration
	for _, k := range []int{1, 2, 0, 3, 4, 5, 6} {
		shuffled = append(shuffled, defs[k])
	}
	if err := sameSetCosts(want, priceSet(t, db, w, shuffled)); err != nil {
		t.Fatalf("key order, then order [1 2 0 3 4 5 6]: %v", err)
	}

	or, err := ParseWorkload(strings.NewReader(`SELECT lineitem.l_tax FROM lineitem WHERE lineitem.l_orderkey = 7 OR lineitem.l_orderkey = 9`), db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.New(db).Optimize(or.Queries[0].Stmt, defs)
	if err != nil {
		t.Fatal(err)
	}
	if arms := "IndexUnion(" + defs[0].Name + " ∪ " + defs[0].Name + ")"; !strings.Contains(plan.Explain(), arms) {
		t.Fatalf("the disjunction is not planned as %s:\n%s", arms, plan.Explain())
	}
	twice := append(optimizer.Configuration{defs[0]}, defs...)
	for _, in := range []struct {
		name string
		w    *Workload
		cfg  optimizer.Configuration
	}{{"first index twice", w, twice}, {"one index under both union arms", or, defs}, {"both", or, twice}} {
		reversed := slices.Clone(in.cfg)
		slices.Reverse(reversed)
		if err := sameSetCosts(priceSet(t, db, in.w, in.cfg), priceSet(t, db, in.w, reversed)); err != nil {
			t.Fatalf("%s: listed order, then reversed: %v", in.name, err)
		}
	}
}
