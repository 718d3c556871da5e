package datagen

import (
	"math/rand"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/value"
)

// TPC-D date domain: day numbers spanning 1992-01-01 .. 1998-08-02,
// roughly 2406 days, mirroring the benchmark's order/ship dates.
const (
	TPCDDateLo = 8036  // days since 1970-01-01 for 1992-01-01
	TPCDDateHi = 10440 // 1998-08-02
)

// TPCDScale holds per-table row counts. The paper ran TPC-D at 1 GB
// (SF 1: 6M lineitem rows); we default to a microscale that preserves
// the benchmark's relative table sizes — the merging results depend on
// statistics and page arithmetic, both of which scale.
type TPCDScale struct {
	Lineitem int
	Orders   int
	Customer int
	Part     int
	Supplier int
	PartSupp int
	Nation   int
	Region   int
}

// DefaultTPCDScale is roughly SF 1/500.
func DefaultTPCDScale() TPCDScale {
	return TPCDScale{
		Lineitem: 12000,
		Orders:   3000,
		Customer: 300,
		Part:     400,
		Supplier: 20,
		PartSupp: 1600,
		Nation:   25,
		Region:   5,
	}
}

// ScaledTPCD multiplies the default scale by f (minimum 1 row/table).
func ScaledTPCD(f float64) TPCDScale {
	s := DefaultTPCDScale()
	mul := func(n int) int {
		m := int(float64(n) * f)
		if m < 1 {
			m = 1
		}
		return m
	}
	return TPCDScale{
		Lineitem: mul(s.Lineitem),
		Orders:   mul(s.Orders),
		Customer: mul(s.Customer),
		Part:     mul(s.Part),
		Supplier: mul(s.Supplier),
		PartSupp: mul(s.PartSupp),
		Nation:   mul(s.Nation),
		Region:   mul(s.Region),
	}
}

func col(name string, kind value.Kind, width int) catalog.Column {
	return catalog.Column{Name: name, Type: kind, Width: width}
}

// TPCDSchema returns the eight TPC-D tables with authentic columns and
// declared string widths.
func TPCDSchema() []*catalog.Table {
	return []*catalog.Table{
		catalog.MustNewTable("region", []catalog.Column{
			col("r_regionkey", value.Int, 0),
			col("r_name", value.String, 25),
			col("r_comment", value.String, 152),
		}),
		catalog.MustNewTable("nation", []catalog.Column{
			col("n_nationkey", value.Int, 0),
			col("n_name", value.String, 25),
			col("n_regionkey", value.Int, 0),
			col("n_comment", value.String, 152),
		}),
		catalog.MustNewTable("supplier", []catalog.Column{
			col("s_suppkey", value.Int, 0),
			col("s_name", value.String, 25),
			col("s_address", value.String, 40),
			col("s_nationkey", value.Int, 0),
			col("s_phone", value.String, 15),
			col("s_acctbal", value.Float, 0),
			col("s_comment", value.String, 101),
		}),
		catalog.MustNewTable("customer", []catalog.Column{
			col("c_custkey", value.Int, 0),
			col("c_name", value.String, 25),
			col("c_address", value.String, 40),
			col("c_nationkey", value.Int, 0),
			col("c_phone", value.String, 15),
			col("c_acctbal", value.Float, 0),
			col("c_mktsegment", value.String, 10),
			col("c_comment", value.String, 117),
		}),
		catalog.MustNewTable("part", []catalog.Column{
			col("p_partkey", value.Int, 0),
			col("p_name", value.String, 55),
			col("p_mfgr", value.String, 25),
			col("p_brand", value.String, 10),
			col("p_type", value.String, 25),
			col("p_size", value.Int, 0),
			col("p_container", value.String, 10),
			col("p_retailprice", value.Float, 0),
			col("p_comment", value.String, 23),
		}),
		catalog.MustNewTable("partsupp", []catalog.Column{
			col("ps_partkey", value.Int, 0),
			col("ps_suppkey", value.Int, 0),
			col("ps_availqty", value.Int, 0),
			col("ps_supplycost", value.Float, 0),
			col("ps_comment", value.String, 199),
		}),
		catalog.MustNewTable("orders", []catalog.Column{
			col("o_orderkey", value.Int, 0),
			col("o_custkey", value.Int, 0),
			col("o_orderstatus", value.String, 1),
			col("o_totalprice", value.Float, 0),
			col("o_orderdate", value.Date, 0),
			col("o_orderpriority", value.String, 15),
			col("o_clerk", value.String, 15),
			col("o_shippriority", value.Int, 0),
			col("o_comment", value.String, 79),
		}),
		catalog.MustNewTable("lineitem", []catalog.Column{
			col("l_orderkey", value.Int, 0),
			col("l_partkey", value.Int, 0),
			col("l_suppkey", value.Int, 0),
			col("l_linenumber", value.Int, 0),
			col("l_quantity", value.Float, 0),
			col("l_extendedprice", value.Float, 0),
			col("l_discount", value.Float, 0),
			col("l_tax", value.Float, 0),
			col("l_returnflag", value.String, 1),
			col("l_linestatus", value.String, 1),
			col("l_shipdate", value.Date, 0),
			col("l_commitdate", value.Date, 0),
			col("l_receiptdate", value.Date, 0),
			col("l_shipinstruct", value.String, 25),
			col("l_shipmode", value.String, 10),
			col("l_comment", value.String, 44),
		}),
	}
}

var (
	regionNames     = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	mktSegments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	orderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}
	orderStatuses   = []string{"O", "F", "P"}
	shipModes       = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	shipInstructs   = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}
	containers      = []string{"JUMBO BAG", "LG BOX", "MED CASE", "SM PKG", "WRAP JAR"}
	manufacturers   = []string{"Manufacturer#1", "Manufacturer#2", "Manufacturer#3", "Manufacturer#4", "Manufacturer#5"}
	brands          = []string{"Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"}
	types           = []string{"ECONOMY BRASS", "LARGE PLATED", "MEDIUM POLISHED", "SMALL BURNISHED", "STANDARD ANODIZED", "PROMO BURNISHED"}
	returnFlags     = []string{"R", "A", "N"}
	lineStatuses    = []string{"O", "F"}
	commentWords    = []string{"final", "pending", "quick", "silent", "ironic", "furious", "careful", "express", "regular", "special", "bold", "even"}
)

func pick(rng *rand.Rand, opts []string) value.Value {
	return value.NewString(opts[rng.Intn(len(opts))])
}

// comment draws space-separated words until a third of the width is
// filled, cut to the width.
func comment(rng *rand.Rand, width int) value.Value {
	var buf [128]byte
	b := buf[:0]
	for len(b) < width/3 {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, commentWords[rng.Intn(len(commentWords))]...)
	}
	if len(b) > width {
		b = b[:width]
	}
	return value.NewString(string(b))
}

// numbered renders prefix followed by n zero-padded to width digits
// ("Supplier#000000007").
func numbered(prefix string, n int64, width int) value.Value {
	var buf [32]byte
	return value.NewString(string(appendPadded(append(buf[:0], prefix...), n, width)))
}

// phone draws a "CC-NNN-NNN" number.
func phone(rng *rand.Rand) value.Value {
	var buf [16]byte
	b := appendPadded(buf[:0], int64(rng.Intn(35)), 2)
	b = appendPadded(append(b, '-'), int64(rng.Intn(1000)), 3)
	b = appendPadded(append(b, '-'), int64(rng.Intn(1000)), 3)
	return value.NewString(string(b))
}

func money(rng *rand.Rand, lo, hi float64) value.Value {
	v := lo + rng.Float64()*(hi-lo)
	return value.NewFloat(float64(int(v*100)) / 100)
}

func dateIn(rng *rand.Rand, lo, hi int64) value.Value {
	return value.NewDate(lo + rng.Int63n(hi-lo+1))
}

// BuildTPCD creates and loads a TPC-D database at the given scale,
// statistics included. The generator is deterministic in seed.
func BuildTPCD(scale TPCDScale, seed int64) (*engine.Database, error) {
	db := engine.NewDatabase()
	for _, t := range TPCDSchema() {
		if err := db.CreateTable(t); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))

	// Each fill writes its row's values in column order, the order the
	// generator draws in.
	tables := []struct {
		name string
		n    int
		fill func(row value.Row, i int)
	}{
		{"region", scale.Region, func(row value.Row, i int) {
			row[0] = value.NewInt(int64(i))
			row[1] = value.NewString(regionNames[i%len(regionNames)])
			row[2] = comment(rng, 152)
		}},
		{"nation", scale.Nation, func(row value.Row, i int) {
			row[0] = value.NewInt(int64(i))
			row[1] = numbered("NATION_", int64(i), 2)
			row[2] = value.NewInt(int64(rng.Intn(scale.Region)))
			row[3] = comment(rng, 152)
		}},
		{"supplier", scale.Supplier, func(row value.Row, i int) {
			row[0] = value.NewInt(int64(i))
			row[1] = numbered("Supplier#", int64(i), 9)
			row[2] = comment(rng, 40)
			row[3] = value.NewInt(int64(rng.Intn(scale.Nation)))
			row[4] = phone(rng)
			row[5] = money(rng, -999, 9999)
			row[6] = comment(rng, 101)
		}},
		{"customer", scale.Customer, func(row value.Row, i int) {
			row[0] = value.NewInt(int64(i))
			row[1] = numbered("Customer#", int64(i), 9)
			row[2] = comment(rng, 40)
			row[3] = value.NewInt(int64(rng.Intn(scale.Nation)))
			row[4] = phone(rng)
			row[5] = money(rng, -999, 9999)
			row[6] = pick(rng, mktSegments)
			row[7] = comment(rng, 117)
		}},
		{"part", scale.Part, func(row value.Row, i int) {
			row[0] = value.NewInt(int64(i))
			row[1] = comment(rng, 55)
			row[2] = pick(rng, manufacturers)
			row[3] = pick(rng, brands)
			row[4] = pick(rng, types)
			row[5] = value.NewInt(int64(1 + rng.Intn(50)))
			row[6] = pick(rng, containers)
			row[7] = money(rng, 900, 2000)
			row[8] = comment(rng, 23)
		}},
		{"partsupp", scale.PartSupp, func(row value.Row, i int) {
			row[0] = value.NewInt(int64(i % scale.Part))
			row[1] = value.NewInt(int64(i % scale.Supplier))
			row[2] = value.NewInt(int64(1 + rng.Intn(9999)))
			row[3] = money(rng, 1, 1000)
			row[4] = comment(rng, 199)
		}},
		{"orders", scale.Orders, func(row value.Row, i int) {
			fillOrderRow(row, rng, int64(i), scale)
		}},
		{"lineitem", scale.Lineitem, func(row value.Row, i int) {
			fillLineitemRow(row, rng, int64(i%scale.Orders), int64(i%7), scale)
		}},
	}
	for _, t := range tables {
		if err := db.BulkLoad(t.name, t.n, t.fill); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// GenOrderRow generates one orders row; exported for the batch-insert
// maintenance experiments.
func GenOrderRow(rng *rand.Rand, orderkey int64, scale TPCDScale) value.Row {
	row := make(value.Row, 9)
	fillOrderRow(row, rng, orderkey, scale)
	return row
}

func fillOrderRow(row value.Row, rng *rand.Rand, orderkey int64, scale TPCDScale) {
	row[0] = value.NewInt(orderkey)
	row[1] = value.NewInt(rng.Int63n(int64(scale.Customer)))
	row[2] = pick(rng, orderStatuses)
	row[3] = money(rng, 1000, 400000)
	row[4] = dateIn(rng, TPCDDateLo, TPCDDateHi-90)
	row[5] = pick(rng, orderPriorities)
	row[6] = numbered("Clerk#", int64(rng.Intn(1000)), 9)
	row[7] = value.NewInt(0)
	row[8] = comment(rng, 79)
}

// GenLineitemRow generates one lineitem row; exported for the
// batch-insert maintenance experiments.
func GenLineitemRow(rng *rand.Rand, orderkey, linenumber int64, scale TPCDScale) value.Row {
	row := make(value.Row, 16)
	fillLineitemRow(row, rng, orderkey, linenumber, scale)
	return row
}

func fillLineitemRow(row value.Row, rng *rand.Rand, orderkey, linenumber int64, scale TPCDScale) {
	ship := dateIn(rng, TPCDDateLo, TPCDDateHi-60)
	row[0] = value.NewInt(orderkey)
	row[1] = value.NewInt(rng.Int63n(int64(scale.Part)))
	row[2] = value.NewInt(rng.Int63n(int64(scale.Supplier)))
	row[3] = value.NewInt(linenumber)
	row[4] = value.NewFloat(float64(1 + rng.Intn(50)))
	row[5] = money(rng, 900, 100000)
	row[6] = value.NewFloat(float64(rng.Intn(11)) / 100)
	row[7] = value.NewFloat(float64(rng.Intn(9)) / 100)
	row[8] = pick(rng, returnFlags)
	row[9] = pick(rng, lineStatuses)
	row[10] = ship
	row[11] = value.NewDate(ship.Int() + int64(rng.Intn(30)))
	row[12] = value.NewDate(ship.Int() + 30 + int64(rng.Intn(30)))
	row[13] = pick(rng, shipInstructs)
	row[14] = pick(rng, shipModes)
	row[15] = comment(rng, 44)
}
