package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/exec"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// Violation is one correctness finding. Kind is one of:
//
//	result-diff        executed rows differ from the reference answer
//	order              executed rows violate the query's ORDER BY
//	explain-unknown    the plan reports an index outside the configuration
//	merge-invariant    a visited configuration breaks Definition 1–3
//	search-diff        the search decides differently when candidates are
//	                   priced as deltas than when each is priced in full
//	error              optimization or execution failed outright
type Violation struct {
	Kind   string   `json:"kind"`
	Query  string   `json:"query"`
	Config []string `json:"config"`
	Detail string   `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] query=%q config={%s}: %s",
		v.Kind, v.Query, strings.Join(v.Config, ", "), v.Detail)
}

// Report summarizes one differential sweep.
type Report struct {
	DB             string      `json:"db"`
	Queries        int         `json:"queries"`
	Configs        int         `json:"configs"`
	Checks         int         `json:"checks"`
	VisitedSampled int         `json:"visited_sampled"`
	MergeSteps     int         `json:"merge_steps"`
	Violations     []Violation `json:"violations"`
}

// Ok reports whether the sweep found no violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// SweepOptions configures a differential sweep.
type SweepOptions struct {
	// Seed drives the initial-configuration draw and visited-config
	// sampling.
	Seed int64
	// InitialIndexes is the initial configuration size n (default 8).
	InitialIndexes int
	// MaxVisited bounds how many of the search's visited candidate
	// configurations are differentially executed (default 5, sampled
	// by Seed; the search typically visits far more than can be
	// executed affordably).
	MaxVisited int
	// MaxPairMerges bounds the explicit MergeOrdered metamorphic
	// checks over same-table pairs of the initial configuration
	// (default 4).
	MaxPairMerges int
	// CostConstraint is the search's cost-increase bound (default 0.10).
	CostConstraint float64
}

func (o *SweepOptions) defaults() {
	if o.InitialIndexes <= 0 {
		o.InitialIndexes = 8
	}
	if o.MaxVisited <= 0 {
		o.MaxVisited = 5
	}
	if o.MaxPairMerges <= 0 {
		o.MaxPairMerges = 4
	}
	if o.CostConstraint <= 0 {
		o.CostConstraint = 0.10
	}
}

// recordingChecker wraps a constraint checker, keeping every candidate
// configuration the search submitted — the "visited configurations"
// the differential sweep samples from. Everything else is the inner
// checker's: the search it records is the one the product runs.
type recordingChecker struct {
	core.ConstraintChecker

	mu      sync.Mutex
	visited []*core.Configuration
}

func (r *recordingChecker) Accepts(ctx context.Context, cfg *core.Configuration, m, a, b *core.Index) (bool, error) {
	r.mu.Lock()
	r.visited = append(r.visited, cfg)
	r.mu.Unlock()
	return r.ConstraintChecker.Accepts(ctx, cfg, m, a, b)
}

// fullPricing hides the search's base from a checker, so that every
// candidate is priced in full: the reference the delta-priced search is
// held to.
type fullPricing struct{ core.ConstraintChecker }

func (fullPricing) SetBase(*core.Configuration) {}

// mergeSearch runs the Greedy merge search the way the product does — a
// prepared OptimizerChecker pricing each candidate as a delta against
// the search's current configuration — recording what it visits, then
// once more with every candidate priced in full. diff describes the
// first disagreement between the two, "" when there is none.
func mergeSearch(db *engine.Database, opz *optimizer.Optimizer, pw *optimizer.PreparedWorkload,
	initial *core.Configuration, constraint float64) (res *core.SearchResult, visited []*core.Configuration, diff string, err error) {

	baseCost, err := opz.WorkloadCostPrepared(pw, optimizer.Configuration(initial.Defs()))
	if err != nil {
		return nil, nil, "", err
	}
	seek, err := core.ComputeSeekCostsPrepared(opz, pw, initial)
	if err != nil {
		return nil, nil, "", err
	}
	mp := &core.MergePairCost{Seek: seek}
	checker := func() *core.OptimizerChecker {
		c := core.NewOptimizerChecker(opz, pw.W, baseCost, constraint)
		c.Prepared = pw
		return c
	}
	rec := &recordingChecker{ConstraintChecker: checker()}
	if res, err = core.Greedy(initial, mp, rec, db); err != nil {
		return nil, nil, "", err
	}
	full, err := core.Greedy(initial, mp, fullPricing{checker()}, db)
	if err != nil {
		return nil, nil, "", err
	}
	// What the two runs must agree on, to the bit.
	outcome := func(r *core.SearchResult) (string, error) {
		c, err := opz.WorkloadCostPrepared(pw, optimizer.Configuration(r.Final.Defs()))
		return fmt.Sprintf("final %s (cost bits %#x) by steps %v in %d evaluations",
			r.Final.Signature(), math.Float64bits(c), r.Steps, r.CostEvaluations), err
	}
	got, err := outcome(res)
	if err != nil {
		return nil, nil, "", err
	}
	want, err := outcome(full)
	if err != nil {
		return nil, nil, "", err
	}
	switch {
	case res.CostEvaluations > 0 && res.OptimizerCalls == 0:
		diff = fmt.Sprintf("%d constraint checks report no optimizer call", res.CostEvaluations)
	case got != want:
		diff = fmt.Sprintf("delta pricing reaches %s; full pricing %s", got, want)
	}
	return res, rec.visited, diff, nil
}

// Sweep runs the full differential harness over one database and
// workload: reference answers are computed once per query, then diffed
// against executed plans under the empty configuration, the initial
// (advisor-built) configuration, a seed-sampled subset of every
// configuration the Greedy search visits, the final merged
// configuration, and explicit MergeOrdered pair merges. Metamorphic
// invariants (Definition 1–3 well-formedness, Explain naming only
// configuration indexes) are checked along the way.
//
// Sweep materializes indexes as it goes and leaves the database with
// the last checked configuration materialized.
func Sweep(dbName string, db *engine.Database, w *sql.Workload, opt SweepOptions) (*Report, error) {
	opt.defaults()
	rep := &Report{DB: dbName, Queries: w.Len()}

	// Reference answers are configuration-independent: compute once.
	refs := make([]*Result, w.Len())
	for i, q := range w.Queries {
		ref, err := Reference(db, q.Stmt)
		if err != nil {
			return nil, fmt.Errorf("oracle: reference evaluation of %q: %w", q.Stmt, err)
		}
		refs[i] = ref
	}

	opz := optimizer.New(db)
	pw, err := opz.PrepareWorkload(w)
	if err != nil {
		return nil, err
	}

	// Initial configuration, the paper's §4.2.3 seed.
	adv := advisor.New(db, opz)
	initialDefs, err := advisor.BuildInitialConfiguration(adv, w, opt.InitialIndexes, opt.Seed)
	if err != nil {
		return nil, err
	}
	initial := core.NewConfiguration(initialDefs)

	// Greedy merge search with a recording checker, held to full pricing.
	res, visited, diff, err := mergeSearch(db, opz, pw, initial, opt.CostConstraint)
	if err != nil {
		return nil, err
	}
	if diff != "" {
		rep.Violations = append(rep.Violations, Violation{Kind: "search-diff", Config: configKeys(initialDefs), Detail: diff})
	}
	rep.MergeSteps = len(res.Steps)

	// Configurations to execute differentially: empty, initial, a
	// seed-sampled subset of visited candidates, the final merged
	// configuration, and explicit pairwise MergeOrdered results.
	type namedConfig struct {
		name string
		cfg  *core.Configuration
	}
	configs := []namedConfig{
		{"empty", core.NewConfiguration(nil)},
		{"initial", initial},
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for _, vi := range sampleIndexes(len(visited), opt.MaxVisited, rng) {
		configs = append(configs, namedConfig{fmt.Sprintf("visited[%d]", vi), visited[vi]})
		rep.VisitedSampled++
	}
	configs = append(configs, namedConfig{"final", res.Final})
	for i, mc := range pairMergeConfigs(initial, opt.MaxPairMerges, rng) {
		configs = append(configs, namedConfig{fmt.Sprintf("pair-merge[%d]", i), mc})
	}

	seen := map[string]bool{}
	for _, nc := range configs {
		sig := nc.cfg.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		rep.Configs++

		// Metamorphic invariant: every configuration derived from the
		// initial one by index-preserving merges must satisfy
		// Definitions 1–3.
		if nc.name != "empty" && nc.name != "initial" {
			if err := core.ValidateMinimalMerged(initial, nc.cfg); err != nil {
				rep.Violations = append(rep.Violations, Violation{
					Kind:   "merge-invariant",
					Config: configKeys(nc.cfg.Defs()),
					Detail: fmt.Sprintf("%s: %v", nc.name, err),
				})
			}
		}

		vs, checks, err := CheckConfig(db, opz, w, refs, nc.cfg.Defs())
		if err != nil {
			return nil, err
		}
		rep.Checks += checks
		rep.Violations = append(rep.Violations, vs...)
	}
	return rep, nil
}

// CheckConfig materializes one configuration and differentially checks
// every workload query under it: executed rows against the reference
// answers, ORDER BY satisfaction, and the Explain invariant. refs must
// parallel w's queries; entries may be nil to skip the result diff.
func CheckConfig(db *engine.Database, opz *optimizer.Optimizer,
	w *sql.Workload, refs []*Result, defs []catalog.IndexDef) ([]Violation, int, error) {

	if err := db.Materialize(defs); err != nil {
		return nil, 0, err
	}
	cfg := optimizer.Configuration(defs)
	keys := configKeys(defs)
	var out []Violation
	checks := 0
	for i, q := range w.Queries {
		checks++
		stmt := q.Stmt
		add := func(kind, detail string) {
			out = append(out, Violation{Kind: kind, Query: stmt.String(), Config: keys, Detail: detail})
		}

		plan, err := opz.Optimize(stmt, cfg)
		if err != nil {
			add("error", fmt.Sprintf("optimize: %v", err))
			continue
		}

		// Explain invariant: a plan may only name configuration indexes.
		for _, u := range plan.Uses {
			if !defsContain(defs, u.Index) {
				add("explain-unknown", fmt.Sprintf("plan %s-uses index %s not in configuration",
					u.Mode, u.Index.Key()))
			}
		}

		got, err := exec.Run(db, plan)
		if err != nil {
			add("error", fmt.Sprintf("exec: %v\nplan:\n%s", err, plan.Explain()))
			continue
		}
		if refs != nil && refs[i] != nil {
			if diff := DiffResults(refs[i], got); diff != "" {
				add("result-diff", diff+"\nplan:\n"+plan.Explain())
			}
		}
		if msg := checkOrdered(got, stmt.OrderBy); msg != "" {
			add("order", msg+"\nplan:\n"+plan.Explain())
		}
	}
	return out, checks, nil
}

// DiffResults compares a reference answer against an executed result
// as a column-list equality plus a row multiset equality. It returns
// "" when they agree, else a description of the first divergence.
// Floats are compared at reduced precision to absorb accumulation-
// order differences between plans.
func DiffResults(want *Result, got *exec.Result) string {
	if len(want.Columns) != len(got.Columns) {
		return fmt.Sprintf("column counts differ: reference %v, executed %v", want.Columns, got.Columns)
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			return fmt.Sprintf("column %d differs: reference %q, executed %q", i, want.Columns[i], got.Columns[i])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("row counts differ: reference %d, executed %d", len(want.Rows), len(got.Rows))
	}
	counts := make(map[string]int, len(want.Rows))
	for _, r := range want.Rows {
		counts[encodeRow(r)]++
	}
	for _, r := range got.Rows {
		k := encodeRow(r)
		counts[k]--
		if counts[k] < 0 {
			return fmt.Sprintf("executed row %s not in reference answer (or too many copies)", k)
		}
	}
	// Counts sum to zero and never went negative, so they are all zero.
	return ""
}

// encodeRow renders a row canonically for multiset comparison. Floats
// are formatted at 6 significant digits so sums accumulated in
// different orders by different plans still encode identically.
func encodeRow(r value.Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('\x00')
		}
		if v.Kind() == value.Float {
			fmt.Fprintf(&b, "%.6g", v.Float())
		} else {
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// checkOrdered verifies executed rows satisfy the ORDER BY keys. Keys
// not present in the output columns cannot be checked from the result
// alone and are skipped.
func checkOrdered(res *exec.Result, keys []sql.OrderItem) string {
	if len(keys) == 0 || len(res.Rows) < 2 {
		return ""
	}
	type keyIdx struct {
		idx  int
		desc bool
	}
	var kis []keyIdx
	for _, k := range keys {
		idx := -1
		for i, c := range res.Columns {
			if c == k.Col.String() || c == k.Col.Column || strings.HasSuffix(c, "."+k.Col.Column) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return "" // key not in output; ordering unobservable
		}
		kis = append(kis, keyIdx{idx: idx, desc: k.Desc})
	}
	for i := 1; i < len(res.Rows); i++ {
		for _, ki := range kis {
			c := res.Rows[i-1][ki.idx].Compare(res.Rows[i][ki.idx])
			if ki.desc {
				c = -c
			}
			if c < 0 {
				break // strictly ordered on this key
			}
			if c > 0 {
				return fmt.Sprintf("rows %d and %d violate ORDER BY", i-1, i)
			}
		}
	}
	return ""
}

// pairMergeConfigs builds configurations that replace one same-table
// pair of the initial configuration with its index-preserving
// MergeOrdered result — the metamorphic subjects for "a merged
// configuration answers every query its parents did".
func pairMergeConfigs(initial *core.Configuration, max int, rng *rand.Rand) []*core.Configuration {
	var pairs [][2]*core.Index
	for i, a := range initial.Indexes {
		for _, b := range initial.Indexes[i+1:] {
			if a.Def.Table == b.Def.Table {
				pairs = append(pairs, [2]*core.Index{a, b})
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if len(pairs) > max {
		pairs = pairs[:max]
	}
	var out []*core.Configuration
	for _, p := range pairs {
		m, err := core.MergeOrdered(p[0], p[1])
		if err != nil {
			continue
		}
		out = append(out, initial.ReplacePair(p[0], p[1], m))
	}
	return out
}

// sampleIndexes picks up to max distinct indexes from [0, n), sorted.
func sampleIndexes(n, max int, rng *rand.Rand) []int {
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)[:max]
	sort.Ints(perm)
	return perm
}

func configKeys(defs []catalog.IndexDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Key()
	}
	sort.Strings(out)
	return out
}

func defsContain(defs []catalog.IndexDef, d catalog.IndexDef) bool {
	for _, e := range defs {
		if e.Key() == d.Key() {
			return true
		}
	}
	return false
}

// BuildDB constructs one of the built-in experimental databases by
// name — the same names cmd/idxmerge and the repro format use.
func BuildDB(name string, scale float64, seed int64) (*engine.Database, error) {
	switch name {
	case "tpcd":
		return datagen.BuildTPCD(datagen.ScaledTPCD(scale), seed)
	case "synthetic1":
		spec := datagen.Synthetic1Spec()
		spec.RowsPer = int(float64(spec.RowsPer) * scale)
		spec.Seed += seed
		return datagen.BuildSynthetic(spec)
	case "synthetic2":
		spec := datagen.Synthetic2Spec()
		spec.RowsPer = int(float64(spec.RowsPer) * scale)
		spec.Seed += seed
		return datagen.BuildSynthetic(spec)
	}
	return nil, fmt.Errorf("oracle: unknown database %q (want tpcd, synthetic1 or synthetic2)", name)
}
