// Package tpch is a deterministic, laptop-scale TPC-H-style data
// generator. The paper evaluates on the 5 GB TPC-H database; we generate
// the same schema shape (keys, foreign keys, value distributions close in
// spirit to dbgen's) at a configurable scale factor so the benchmark
// harness can reproduce the paper's ratios without the authors' testbed.
//
// Determinism matters: every run with the same scale factor produces the
// same rows, so benchmark series and test expectations are stable.
package tpch

import (
	"fmt"

	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// rng is a splitmix64 generator: tiny, fast, deterministic across
// platforms — no dependence on math/rand ordering guarantees.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// rangeInt returns a uniform value in [lo, hi].
func (r *rng) rangeInt(lo, hi int64) int64 { return lo + r.intn(hi-lo+1) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Base cardinalities at scale factor 1.0 (true TPC-H values). The
// generator scales them linearly, except nation and region which are
// fixed by the spec.
const (
	baseSuppliers    = 10_000
	baseParts        = 200_000
	baseCustomers    = 150_000
	baseOrders       = 1_500_000
	suppsPerPart     = 4 // partsupp has 4 suppliers per part
	maxLinesPerOrder = 7
)

var nations = []struct {
	name   string
	region int64
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1}, {"EGYPT", 4},
	{"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3}, {"INDIA", 2}, {"INDONESIA", 2},
	{"IRAN", 4}, {"IRAQ", 4}, {"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0},
	{"MOROCCO", 0}, {"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var partAdjectives = []string{"spring", "burnished", "floral", "chartreuse", "antique", "polished", "smoke", "lavender", "frosted", "plated"}
var partNouns = []string{"brass", "copper", "steel", "nickel", "tin", "linen", "cotton", "silk", "wool", "pine"}

// Sizes generates how many rows each table gets at scale factor sf.
type Sizes struct {
	Suppliers int
	Parts     int
	PartSupps int
	Customers int
	Orders    int
}

// SizesFor computes table cardinalities for a scale factor. Every table
// gets at least one row so tiny test scale factors still exercise joins.
func SizesFor(sf float64) Sizes {
	n := func(base int) int {
		v := int(float64(base) * sf)
		if v < 1 {
			v = 1
		}
		return v
	}
	s := Sizes{
		Suppliers: n(baseSuppliers),
		Parts:     n(baseParts),
		Customers: n(baseCustomers),
		Orders:    n(baseOrders),
	}
	s.PartSupps = s.Parts * suppsPerPart
	return s
}

// Load creates and populates the eight TPC-H tables in the catalog at the
// given scale factor. It is the single entry point used by the engine's
// LoadTPCH, the examples and the benchmark harness.
func Load(cat *storage.Catalog, sf float64) error {
	sz := SizesFor(sf)
	if err := loadRegion(cat); err != nil {
		return err
	}
	if err := loadNation(cat); err != nil {
		return err
	}
	if err := loadSupplier(cat, sz); err != nil {
		return err
	}
	if err := loadPart(cat, sz); err != nil {
		return err
	}
	if err := loadPartSupp(cat, sz); err != nil {
		return err
	}
	if err := loadCustomer(cat, sz); err != nil {
		return err
	}
	if err := loadOrders(cat, sz); err != nil {
		return err
	}
	return loadLineitem(cat, sz)
}

func col(name string, k types.Kind) schema.Column { return schema.Column{Name: name, Type: k} }

func loadRegion(cat *storage.Catalog) error {
	t, err := cat.Create(&schema.TableDef{
		Name:       "region",
		Schema:     schema.New(col("r_regionkey", types.KindInt), col("r_name", types.KindString)),
		PrimaryKey: []string{"r_regionkey"},
	})
	if err != nil {
		return err
	}
	for i, name := range regions {
		if err := t.Append(types.Row{types.NewInt(int64(i)), types.NewString(name)}); err != nil {
			return err
		}
	}
	return nil
}

func loadNation(cat *storage.Catalog) error {
	t, err := cat.Create(&schema.TableDef{
		Name: "nation",
		Schema: schema.New(
			col("n_nationkey", types.KindInt),
			col("n_name", types.KindString),
			col("n_regionkey", types.KindInt),
		),
		PrimaryKey: []string{"n_nationkey"},
		ForeignKeys: []schema.ForeignKey{
			{Cols: []string{"n_regionkey"}, RefTable: "region", RefCols: []string{"r_regionkey"}},
		},
	})
	if err != nil {
		return err
	}
	for i, n := range nations {
		if err := t.Append(types.Row{types.NewInt(int64(i)), types.NewString(n.name), types.NewInt(n.region)}); err != nil {
			return err
		}
	}
	return nil
}

func loadSupplier(cat *storage.Catalog, sz Sizes) error {
	t, err := cat.Create(&schema.TableDef{
		Name: "supplier",
		Schema: schema.New(
			col("s_suppkey", types.KindInt),
			col("s_name", types.KindString),
			col("s_nationkey", types.KindInt),
			col("s_acctbal", types.KindFloat),
		),
		PrimaryKey: []string{"s_suppkey"},
		ForeignKeys: []schema.ForeignKey{
			{Cols: []string{"s_nationkey"}, RefTable: "nation", RefCols: []string{"n_nationkey"}},
		},
	})
	if err != nil {
		return err
	}
	r := newRNG(101)
	for i := 1; i <= sz.Suppliers; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Supplier#%09d", i)),
			types.NewInt(r.intn(int64(len(nations)))),
			types.NewFloat(float64(r.rangeInt(-99999, 999999)) / 100),
		}
		if err := t.Append(row); err != nil {
			return err
		}
	}
	return nil
}

// partBrand mirrors dbgen's Brand#MN naming (M, N in 1..5), giving 25
// brands — the covering-range benchmarks select on these.
func partBrand(r *rng) string {
	return fmt.Sprintf("Brand#%d%d", r.rangeInt(1, 5), r.rangeInt(1, 5))
}

// partPrice mirrors dbgen's retail price polynomial so prices spread over
// roughly 900..2100 with partkey-correlated structure.
func partPrice(key int64) float64 {
	return float64(90000+((key/10)%20001)+100*(key%1000)) / 100
}

func loadPart(cat *storage.Catalog, sz Sizes) error {
	t, err := cat.Create(&schema.TableDef{
		Name: "part",
		Schema: schema.New(
			col("p_partkey", types.KindInt),
			col("p_name", types.KindString),
			col("p_brand", types.KindString),
			col("p_size", types.KindInt),
			col("p_retailprice", types.KindFloat),
		),
		PrimaryKey: []string{"p_partkey"},
	})
	if err != nil {
		return err
	}
	r := newRNG(202)
	for i := 1; i <= sz.Parts; i++ {
		name := partAdjectives[r.intn(int64(len(partAdjectives)))] + " " + partNouns[r.intn(int64(len(partNouns)))]
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(name),
			types.NewString(partBrand(r)),
			types.NewInt(r.rangeInt(1, 50)),
			types.NewFloat(partPrice(int64(i))),
		}
		if err := t.Append(row); err != nil {
			return err
		}
	}
	return nil
}

func loadPartSupp(cat *storage.Catalog, sz Sizes) error {
	t, err := cat.Create(&schema.TableDef{
		Name: "partsupp",
		Schema: schema.New(
			col("ps_partkey", types.KindInt),
			col("ps_suppkey", types.KindInt),
			col("ps_availqty", types.KindInt),
			col("ps_supplycost", types.KindFloat),
		),
		PrimaryKey: []string{"ps_partkey", "ps_suppkey"},
		ForeignKeys: []schema.ForeignKey{
			{Cols: []string{"ps_partkey"}, RefTable: "part", RefCols: []string{"p_partkey"}},
			{Cols: []string{"ps_suppkey"}, RefTable: "supplier", RefCols: []string{"s_suppkey"}},
		},
	})
	if err != nil {
		return err
	}
	r := newRNG(303)
	s := int64(sz.Suppliers)
	for p := int64(1); p <= int64(sz.Parts); p++ {
		for i := int64(0); i < suppsPerPart; i++ {
			// Deterministic supplier spread: each part takes 4 consecutive
			// suppliers starting at a part-dependent offset, so pairs are
			// distinct whenever there are ≥4 suppliers and coverage of the
			// supplier domain is uniform.
			supp := ((p-1)*suppsPerPart+i)%s + 1
			row := types.Row{
				types.NewInt(p),
				types.NewInt(supp),
				types.NewInt(r.rangeInt(1, 9999)),
				types.NewFloat(float64(r.rangeInt(100, 100000)) / 100),
			}
			if err := t.Append(row); err != nil {
				return err
			}
		}
	}
	return nil
}

func loadCustomer(cat *storage.Catalog, sz Sizes) error {
	t, err := cat.Create(&schema.TableDef{
		Name: "customer",
		Schema: schema.New(
			col("c_custkey", types.KindInt),
			col("c_name", types.KindString),
			col("c_nationkey", types.KindInt),
			col("c_acctbal", types.KindFloat),
			col("c_mktsegment", types.KindString),
		),
		PrimaryKey: []string{"c_custkey"},
		ForeignKeys: []schema.ForeignKey{
			{Cols: []string{"c_nationkey"}, RefTable: "nation", RefCols: []string{"n_nationkey"}},
		},
	})
	if err != nil {
		return err
	}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	r := newRNG(404)
	for i := 1; i <= sz.Customers; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Customer#%09d", i)),
			types.NewInt(r.intn(int64(len(nations)))),
			types.NewFloat(float64(r.rangeInt(-99999, 999999)) / 100),
			types.NewString(segments[r.intn(int64(len(segments)))]),
		}
		if err := t.Append(row); err != nil {
			return err
		}
	}
	return nil
}

func loadOrders(cat *storage.Catalog, sz Sizes) error {
	t, err := cat.Create(&schema.TableDef{
		Name: "orders",
		Schema: schema.New(
			col("o_orderkey", types.KindInt),
			col("o_custkey", types.KindInt),
			col("o_orderstatus", types.KindString),
			col("o_totalprice", types.KindFloat),
			col("o_orderdate", types.KindDate),
		),
		PrimaryKey: []string{"o_orderkey"},
		ForeignKeys: []schema.ForeignKey{
			{Cols: []string{"o_custkey"}, RefTable: "customer", RefCols: []string{"c_custkey"}},
		},
	})
	if err != nil {
		return err
	}
	statuses := []string{"O", "F", "P"}
	r := newRNG(505)
	for i := 1; i <= sz.Orders; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(r.rangeInt(1, int64(sz.Customers))),
			types.NewString(statuses[r.intn(3)]),
			types.NewFloat(float64(r.rangeInt(90000, 50000000)) / 100),
			types.NewDate(r.rangeInt(8035, 10591)), // 1992-01-01 .. 1998-12-31 as day numbers
		}
		if err := t.Append(row); err != nil {
			return err
		}
	}
	return nil
}

func loadLineitem(cat *storage.Catalog, sz Sizes) error {
	t, err := cat.Create(&schema.TableDef{
		Name: "lineitem",
		Schema: schema.New(
			col("l_orderkey", types.KindInt),
			col("l_partkey", types.KindInt),
			col("l_suppkey", types.KindInt),
			col("l_linenumber", types.KindInt),
			col("l_quantity", types.KindInt),
			col("l_extendedprice", types.KindFloat),
			col("l_discount", types.KindFloat),
		),
		PrimaryKey: []string{"l_orderkey", "l_linenumber"},
		ForeignKeys: []schema.ForeignKey{
			{Cols: []string{"l_orderkey"}, RefTable: "orders", RefCols: []string{"o_orderkey"}},
			{Cols: []string{"l_partkey"}, RefTable: "part", RefCols: []string{"p_partkey"}},
			{Cols: []string{"l_suppkey"}, RefTable: "supplier", RefCols: []string{"s_suppkey"}},
		},
	})
	if err != nil {
		return err
	}
	r := newRNG(606)
	for o := int64(1); o <= int64(sz.Orders); o++ {
		lines := r.rangeInt(1, maxLinesPerOrder)
		for l := int64(1); l <= lines; l++ {
			part := r.rangeInt(1, int64(sz.Parts))
			qty := r.rangeInt(1, 50)
			row := types.Row{
				types.NewInt(o),
				types.NewInt(part),
				types.NewInt(r.rangeInt(1, int64(sz.Suppliers))),
				types.NewInt(l),
				types.NewInt(qty),
				types.NewFloat(partPrice(part) * float64(qty)),
				types.NewFloat(float64(r.rangeInt(0, 10)) / 100),
			}
			if err := t.Append(row); err != nil {
				return err
			}
		}
	}
	return nil
}
