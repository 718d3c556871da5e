// Package wscale scales the merge advisor to large workloads by
// CoPhy-style decomposition (PAPERS.md): the workload cost
// Cost(W, C) = Σ_templates Freq(t) · Cost(t, atom(t, C)) factors into
// per-template terms that depend only on the template's *atomic
// configuration* — the small per-table subset of C's indexes that can
// contribute an access path to the template's queries. Queries are
// clustered into templates by constant-abstracted fingerprint, atoms
// are bounded by the relevant-index prefilter from
// internal/optimizer/prepared.go, and a per-(template, atom) cost
// table memoizes exact CostPrepared sums — so pricing a candidate
// configuration during search is a handful of table lookups instead of
// one optimization per workload statement.
package wscale

import (
	"fmt"

	"indexmerge/internal/sql"
)

// Template is one fingerprint-equivalence class of workload queries:
// identical canonical SQL once literal constants are abstracted to
// '?'. Members share tables, columns and operators, hence relevant
// index sets, access-path shapes and atoms — only their constants (and
// so their individual costs) differ, which is why the cost table sums
// exact member costs instead of extrapolating a representative.
type Template struct {
	// Fingerprint is the constant-abstracted canonical SQL.
	Fingerprint string
	// Members are positions in the source workload, first-seen order.
	Members []int
	// Freq is the summed frequency of all members.
	Freq float64
}

// Compressed is a workload clustered into weighted templates.
type Compressed struct {
	// W is the source workload (entries are already text-deduplicated
	// by sql.Workload.Add; templates cluster across differing
	// constants).
	W *sql.Workload
	// Templates lists the fingerprint classes in first-seen order.
	Templates []*Template
}

// Compress clusters the workload's queries into templates by
// fingerprint — the one each entry carries; only an entry built as a
// literal is rendered here.
func Compress(w *sql.Workload) *Compressed {
	c := &Compressed{W: w}
	byFp := make(map[string]int)
	for i, q := range w.Queries {
		_, fp := q.Canonical()
		if ti, ok := byFp[fp]; ok {
			t := c.Templates[ti]
			t.Members = append(t.Members, i)
			t.Freq += q.Freq
			continue
		}
		byFp[fp] = len(c.Templates)
		c.Templates = append(c.Templates, &Template{
			Fingerprint: fp,
			Members:     []int{i},
			Freq:        q.Freq,
		})
	}
	return c
}

// Representatives returns one workload position per template (the
// first member), in template order — the inputs to
// advisor.TuneTemplates.
func (c *Compressed) Representatives() []int {
	reps := make([]int, len(c.Templates))
	for i, t := range c.Templates {
		reps[i] = t.Members[0]
	}
	return reps
}

// Statements returns the number of distinct workload entries.
func (c *Compressed) Statements() int { return len(c.W.Queries) }

// TotalFreq returns the summed statement frequency — the log size the
// workload represents, counting folded duplicates.
func (c *Compressed) TotalFreq() float64 { return c.W.TotalFreq() }

// DedupRatio returns distinct entries per template — the compression
// the constant abstraction achieves on top of exact-text folding.
func (c *Compressed) DedupRatio() float64 {
	if len(c.Templates) == 0 {
		return 0
	}
	return float64(len(c.W.Queries)) / float64(len(c.Templates))
}

// String summarizes the compression.
func (c *Compressed) String() string {
	return fmt.Sprintf("wscale: %d statements (%.0f weighted) in %d templates (%.1fx)",
		c.Statements(), c.TotalFreq(), len(c.Templates), c.DedupRatio())
}
