package datagen

import (
	"fmt"
	"math/rand"

	"indexmerge/internal/catalog"
	"indexmerge/internal/sql"
	"indexmerge/internal/value"
)

// stringDomains maps TPC-D columns to their value domains, used to
// re-draw string parameters the way the benchmark's QGEN substitutes
// them.
var stringDomains = map[string][]string{
	"c_mktsegment":    mktSegments,
	"p_brand":         brands,
	"p_type":          types,
	"p_container":     containers,
	"l_shipmode":      shipModes,
	"l_shipinstruct":  shipInstructs,
	"l_returnflag":    returnFlags,
	"l_linestatus":    lineStatuses,
	"o_orderpriority": orderPriorities,
}

// TPCDWorkloadVariants generates an n-query workload by drawing the 17
// benchmark templates with randomized substitution parameters — QGEN's
// role. Dates shift uniformly inside the data's date domain (window
// lengths preserved), numeric parameters jitter around the template's
// value, and string parameters re-draw from their column's domain.
// Identical draws are possible, exactly like a real query log; use
// Workload.Compress to deduplicate with adjusted frequencies.
func TPCDWorkloadVariants(sc *catalog.Schema, n int, seed int64) (*sql.Workload, error) {
	base, err := TPCDWorkload(sc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w := &sql.Workload{}
	// Append raw entries rather than Add-folding duplicates: this
	// generator deliberately produces an uncompressed query log, so
	// repeated draws of the same variant stay as separate statements
	// for Compress / wscale to collapse.
	for len(w.Queries) < n {
		tmpl := base.Queries[rng.Intn(base.Len())].Stmt
		variant, err := varyStatement(sc, tmpl, rng)
		if err != nil {
			return nil, err
		}
		text, fp := variant.Canonical()
		w.Queries = append(w.Queries, sql.WorkloadQuery{Stmt: variant, Freq: 1, Text: text, Fingerprint: fp})
	}
	return w, nil
}

// varyStatement deep-copies the template via its canonical text and
// perturbs every literal parameter.
func varyStatement(sc *catalog.Schema, tmpl *sql.SelectStmt, rng *rand.Rand) (*sql.SelectStmt, error) {
	stmt, err := sql.ParseSelect(tmpl.String())
	if err != nil {
		return nil, fmt.Errorf("datagen: template failed to reparse: %w", err)
	}
	if err := stmt.Resolve(sc); err != nil {
		return nil, err
	}
	for i := range stmt.Where {
		p := &stmt.Where[i]
		switch p.Op {
		case sql.OpBetween:
			p.Lo, p.Hi = varyRange(p.Col.Column, p.Lo, p.Hi, rng)
		default:
			p.Val = varyValue(p.Col.Column, p.Val, rng)
		}
	}
	return stmt, nil
}

// varyValue perturbs one literal according to its type and column.
func varyValue(col string, v value.Value, rng *rand.Rand) value.Value {
	switch v.Kind() {
	case value.Date:
		// Shift anywhere in the benchmark date domain.
		span := int64(TPCDDateHi - TPCDDateLo - 120)
		return value.NewDate(TPCDDateLo + rng.Int63n(span))
	case value.Int:
		base := v.Int()
		if base <= 0 {
			return value.NewInt(int64(1 + rng.Intn(50)))
		}
		lo := base/2 + 1
		return value.NewInt(lo + rng.Int63n(base))
	case value.Float:
		f := v.Float() * (0.5 + rng.Float64())
		return value.NewFloat(float64(int(f*100)) / 100)
	case value.String:
		if domain, ok := stringDomains[col]; ok {
			return value.NewString(domain[rng.Intn(len(domain))])
		}
		return v
	}
	return v
}

// varyRange shifts a BETWEEN window, preserving its width for dates.
func varyRange(col string, lo, hi value.Value, rng *rand.Rand) (value.Value, value.Value) {
	if lo.Kind() == value.Date && hi.Kind() == value.Date {
		width := hi.Int() - lo.Int()
		if width < 0 {
			width = 0
		}
		maxStart := int64(TPCDDateHi) - width - int64(TPCDDateLo)
		if maxStart < 1 {
			maxStart = 1
		}
		start := int64(TPCDDateLo) + rng.Int63n(maxStart)
		return value.NewDate(start), value.NewDate(start + width)
	}
	a := varyValue(col, lo, rng)
	b := varyValue(col, hi, rng)
	if a.Compare(b) > 0 {
		a, b = b, a
	}
	return a, b
}
