package main

import (
	"fmt"
	"math/rand"
	"strings"

	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/sql"
	"indexmerge/internal/storage"
	"indexmerge/internal/value"
	querygen "indexmerge/internal/workload"
)

// The corpus — database contents and query shapes — is fixed by these
// constants, so runs with different -seed values do comparable work.
// The seed draws what a real log varies from day to day: the constants
// of every statement, how often each shape repeats, and the order.
const (
	corpusDBSeed       = 1
	corpusTemplateSeed = 7
)

// generator turns the fixed template corpus into seeded SQL text. It
// samples constants from the live rows of db, so it needs a database
// built from the same spec as the one the program under test uses.
type generator struct {
	db        *engine.Database
	templates []*sql.SelectStmt
}

func newGenerator(db *engine.Database, templates int, disjunctions bool) (*generator, error) {
	w, err := querygen.Generate(db, querygen.Options{
		Class: querygen.Complex, Queries: templates, Seed: corpusTemplateSeed, Disjunctions: disjunctions,
	})
	if err != nil {
		return nil, fmt.Errorf("generate templates: %w", err)
	}
	g := &generator{db: db}
	for _, q := range w.Queries {
		g.templates = append(g.templates, q.Stmt)
	}
	return g, nil
}

// sample draws a live value of the column, keeping old when the draw
// is NULL or the column cannot be read.
func (g *generator) sample(rng *rand.Rand, ref sql.ColumnRef, old value.Value) value.Value {
	t, ok := g.db.Schema().Table(ref.Table)
	if !ok {
		return old
	}
	h, err := g.db.Heap(t.Name)
	if err != nil || h.RowCount() == 0 {
		return old
	}
	row, err := h.Get(storage.RowID(rng.Int63n(h.RowCount())))
	if err != nil {
		return old
	}
	if v := row[t.ColumnIndex(ref.Column)]; !v.IsNull() {
		return v
	}
	return old
}

// resample copies the statement with every predicate constant drawn
// again; the shape, and so the fingerprint, is the template's.
func (g *generator) resample(rng *rand.Rand, src *sql.SelectStmt) *sql.SelectStmt {
	out := *src
	out.Where = make([]sql.Predicate, len(src.Where))
	for i, p := range src.Where {
		out.Where[i] = g.resamplePred(rng, p)
	}
	return &out
}

func (g *generator) resamplePred(rng *rand.Rand, p sql.Predicate) sql.Predicate {
	switch p.Op {
	case sql.OpBetween:
		lo, hi := g.sample(rng, p.Col, p.Lo), g.sample(rng, p.Col, p.Hi)
		if lo.Compare(hi) > 0 {
			lo, hi = hi, lo
		}
		p.Lo, p.Hi = lo, hi
	case sql.OpIn:
		vals := make([]value.Value, len(p.Vals))
		for i, v := range p.Vals {
			vals[i] = g.sample(rng, p.Col, v)
		}
		p.Vals = vals
	case sql.OpOr:
		or := make([]sql.Predicate, len(p.Or))
		for i, d := range p.Or {
			or[i] = g.resamplePred(rng, d)
		}
		p.Or = or
	default:
		p.Val = g.sample(rng, p.Col, p.Val)
	}
	return p
}

// text renders n statements, one per line: first every template in
// [lo, hi) once with fresh constants, then zipf-chosen repeats of them.
// A repeat draws one of variants constant sets of its template, so
// that, as in a real log, exact statement texts recur; variants == 0
// gives every repeat fresh constants. The template order and which
// templates are hot belong to the corpus: per-query tuning draws
// statements by position, and a seed that reshuffled them would change
// the size of the search, not only its inputs.
func (g *generator) text(rng *rand.Rand, lo, hi, n, variants int) string {
	var b strings.Builder
	for _, t := range g.templates[lo:hi] {
		b.WriteString(g.resample(rng, t).String())
		b.WriteByte('\n')
	}
	span := hi - lo
	if n <= span {
		return b.String()
	}
	drawn := make(map[[2]int]string)
	zipf := datagen.NewZipf(rng, span, 1.5)
	for i := span; i < n; i++ {
		t := lo + zipf.Next() - 1
		if variants == 0 {
			b.WriteString(g.resample(rng, g.templates[t]).String())
		} else {
			k := [2]int{t, rng.Intn(variants)}
			if _, ok := drawn[k]; !ok {
				drawn[k] = g.resample(rng, g.templates[t]).String()
			}
			b.WriteString(drawn[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// subRNG derives an independent stream for one (round, item) of a run.
func subRNG(seed int64, round, item int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)*1_009 + int64(item)))
}
