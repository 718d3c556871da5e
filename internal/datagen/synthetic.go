package datagen

import (
	"fmt"
	"math/rand"
	"strconv"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/value"
)

// SyntheticSpec describes one of the paper's synthetic databases
// (§4.2.1): a number of tables with column counts varied over a range,
// mixed column widths between 4 and 128 bytes, and per-column Zipfian
// skew drawn from {0, 1, 2, 3, 4}.
type SyntheticSpec struct {
	Name       string
	Tables     int
	MinCols    int
	MaxCols    int
	RowsPer    int // rows per table (paper sizes scaled down)
	Seed       int64
	ZipfLevels []float64
}

// Synthetic1Spec mirrors the paper's Synthetic1: 5 tables, 5–25
// columns each (~200 MB there; scaled here).
func Synthetic1Spec() SyntheticSpec {
	return SyntheticSpec{
		Name:       "Synthetic1",
		Tables:     5,
		MinCols:    5,
		MaxCols:    25,
		RowsPer:    6000,
		Seed:       101,
		ZipfLevels: []float64{0, 1, 2, 3, 4},
	}
}

// Synthetic2Spec mirrors the paper's Synthetic2: 10 tables, 5–45
// columns each (~1.2 GB there; scaled here).
func Synthetic2Spec() SyntheticSpec {
	return SyntheticSpec{
		Name:       "Synthetic2",
		Tables:     10,
		MinCols:    5,
		MaxCols:    45,
		RowsPer:    4000,
		Seed:       202,
		ZipfLevels: []float64{0, 1, 2, 3, 4},
	}
}

// syntheticColumn is the generation recipe for one column.
type syntheticColumn struct {
	col     catalog.Column
	theta   float64
	domain  int
	strBase string
}

// BuildSynthetic creates and loads a synthetic database per the spec.
// Column types alternate among INT, FLOAT and STRING; string widths
// cycle through 4..128 bytes; every column gets independent Zipfian
// skew drawn from the spec's levels — all matching §4.2.1.
func BuildSynthetic(spec SyntheticSpec) (*engine.Database, error) {
	db := engine.NewDatabase()
	rng := rand.New(rand.NewSource(spec.Seed))

	widths := []int{4, 8, 16, 32, 64, 128}
	var allCols [][]syntheticColumn

	for t := 0; t < spec.Tables; t++ {
		nCols := spec.MinCols
		if spec.Tables > 1 {
			nCols += (spec.MaxCols - spec.MinCols) * t / (spec.Tables - 1)
		}
		tname := fmt.Sprintf("t%d", t+1)
		var cols []catalog.Column
		var recipes []syntheticColumn
		for c := 0; c < nCols; c++ {
			name := fmt.Sprintf("c%02d", c+1)
			theta := spec.ZipfLevels[rng.Intn(len(spec.ZipfLevels))]
			domain := 10 + rng.Intn(spec.RowsPer)
			var col catalog.Column
			switch c % 3 {
			case 0:
				col = catalog.Column{Name: name, Type: value.Int}
			case 1:
				col = catalog.Column{Name: name, Type: value.Float}
			default:
				col = catalog.Column{Name: name, Type: value.String, Width: widths[(t+c)%len(widths)]}
			}
			cols = append(cols, col)
			recipes = append(recipes, syntheticColumn{col: col, theta: theta, domain: domain, strBase: synthStrBase(tname, name)})
		}
		tab, err := catalog.NewTable(tname, cols)
		if err != nil {
			return nil, err
		}
		if err := db.CreateTable(tab); err != nil {
			return nil, err
		}
		allCols = append(allCols, recipes)
	}

	for t := 0; t < spec.Tables; t++ {
		tname := fmt.Sprintf("t%d", t+1)
		recipes := allCols[t]
		gens := make([]*Zipf, len(recipes))
		for i, r := range recipes {
			gens[i] = NewZipf(rng, r.domain, r.theta)
		}
		if err := db.BulkLoad(tname, spec.RowsPer, func(row value.Row, _ int) {
			for i, r := range recipes {
				row[i] = SynthValue(r.col, gens[i].Next(), r.strBase)
			}
		}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// synthStrBase is the prefix of a synthetic column's string values.
func synthStrBase(table, column string) string { return table + "_" + column + "_" }

// SynthValue maps a Zipf draw to a typed column value.
func SynthValue(col catalog.Column, draw int, strBase string) value.Value {
	switch col.Type {
	case value.Int:
		return value.NewInt(int64(draw))
	case value.Float:
		return value.NewFloat(float64(draw) + 0.5)
	case value.Date:
		return value.NewDate(int64(draw))
	default:
		// strBase then the draw zero-padded to six digits, cut to the
		// last col.Width bytes; only the kept bytes become a string.
		var buf [64]byte
		b := appendPadded(append(buf[:0], strBase...), int64(draw), 6)
		if len(b) > col.Width {
			b = b[len(b)-col.Width:]
		}
		return value.NewString(string(b))
	}
}

// appendPadded appends n in decimal, zero-padded to width bytes (sign
// included) — the bytes fmt's %0*d renders.
func appendPadded(b []byte, n int64, width int) []byte {
	u := uint64(n)
	if n < 0 {
		b = append(b, '-')
		width--
		u = -u
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for pad := width - len(d); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, d...)
}

// SyntheticInsertRows generates n fresh rows for a synthetic table,
// used by the batch-insert maintenance experiments. The distributions
// match the loader's.
func SyntheticInsertRows(db *engine.Database, table string, n int, seed int64) ([]value.Row, error) {
	t, ok := db.Schema().Table(table)
	if !ok {
		return nil, fmt.Errorf("datagen: unknown table %q", table)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, n)
	rowCount := int(db.TableRowCount(table))
	if rowCount < 10 {
		rowCount = 10
	}
	bases := make([]string, len(t.Columns))
	for c, col := range t.Columns {
		bases[c] = synthStrBase(table, col.Name)
	}
	for i := range rows {
		row := make(value.Row, len(t.Columns))
		for c, col := range t.Columns {
			draw := 1 + rng.Intn(rowCount)
			row[c] = SynthValue(col, draw, bases[c])
		}
		rows[i] = row
	}
	return rows, nil
}
