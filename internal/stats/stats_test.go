package stats

import (
	"math"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/tpch"
	"gapplydb/internal/types"
)

func tinyCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, 0.001); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCollectBasics(t *testing.T) {
	cat := tinyCatalog(t)
	s := Collect(cat)
	sz := tpch.SizesFor(0.001)
	if got := s.TableRows("supplier"); got != int64(sz.Suppliers) {
		t.Errorf("supplier rows = %d", got)
	}
	if got := s.TableRows("nosuch"); got != 0 {
		t.Errorf("unknown table rows = %d", got)
	}
	// Primary keys are fully distinct.
	if got := s.ColumnDistinct("part", "p_partkey", 0); got != float64(sz.Parts) {
		t.Errorf("p_partkey distinct = %v", got)
	}
	// ps_suppkey has at most #suppliers distinct values.
	if got := s.ColumnDistinct("partsupp", "ps_suppkey", 0); got > float64(sz.Suppliers) {
		t.Errorf("ps_suppkey distinct = %v", got)
	}
}

func TestColumnDistinctFallbacks(t *testing.T) {
	cat := tinyCatalog(t)
	s := Collect(cat)
	// Unknown table, known column elsewhere: cross-table search.
	if got := s.ColumnDistinct("", "p_partkey", 100); got <= 1 {
		t.Errorf("cross-table distinct = %v", got)
	}
	// Completely unknown column: sqrt heuristic, at least 1.
	if got := s.ColumnDistinct("", "zzz", 100); got != 10 {
		t.Errorf("sqrt fallback = %v", got)
	}
	if got := s.ColumnDistinct("", "zzz", 0); got != 1 {
		t.Errorf("floor = %v", got)
	}
}

func TestNullFraction(t *testing.T) {
	cat := storage.NewCatalog()
	tab, _ := cat.Create(&schema.TableDef{
		Name:   "t",
		Schema: schema.New(schema.Column{Name: "a", Type: types.KindInt}),
	})
	tab.Append(types.Row{types.NewInt(1)})
	tab.Append(types.Row{types.Null})
	tab.Append(types.Row{types.Null})
	tab.Append(types.Row{types.NewInt(2)})
	s := Collect(cat)
	cs := s.Tables["t"].Columns["a"]
	if cs.NullFrac != 0.5 {
		t.Errorf("null frac = %v", cs.NullFrac)
	}
	if cs.Distinct != 2 {
		t.Errorf("distinct = %v", cs.Distinct)
	}
	if cs.Min.Int() != 1 || cs.Max.Int() != 2 {
		t.Errorf("min/max = %v/%v", cs.Min, cs.Max)
	}
}

// TestDistinctMatchesKeyReference: Distinct counts Identical classes, as
// a map of Row.Key strings does, over a numeric column mixing INT and
// FLOAT images of one value, signed zeros, NaN payloads, NULLs and
// integers a float64 cannot tell apart, and a string column holding
// the same digits.
func TestDistinctMatchesKeyReference(t *testing.T) {
	const big = int64(1) << 53
	cat := storage.NewCatalog()
	tab, err := cat.Create(&schema.TableDef{Name: "t", Schema: schema.New(
		schema.Column{Name: "n", Type: types.KindFloat},
		schema.Column{Name: "s", Type: types.KindString},
	)})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []types.Value{
		types.NewInt(2), types.NewFloat(2), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.NaN()), types.NewFloat(-math.NaN()), types.NewFloat(math.Float64frombits(0x7ff8000000000001)),
		types.Null, types.Null, types.NewInt(big), types.NewInt(big + 1), types.NewFloat(float64(big)), types.NewInt(2),
	} {
		s := types.NewString(n.String())
		if n.IsNull() {
			s = types.Null
		}
		if err := tab.Append(types.Row{n, s}); err != nil {
			t.Fatal(err)
		}
	}
	got := Collect(cat).Tables["t"]
	for i, name := range []string{"n", "s"} {
		ref := map[string]bool{}
		for _, r := range tab.Rows {
			if !r[i].IsNull() {
				ref[r.Key([]int{i})] = true
			}
		}
		if d := got.Columns[name].Distinct; d != int64(len(ref)) {
			t.Errorf("column %s: Distinct = %d, reference %d", name, d, len(ref))
		}
	}
	// 2 (twice as INT, once as FLOAT), ±0, NaN, 2^53 (INT and FLOAT), 2^53+1.
	if d := got.Columns["n"].Distinct; d != 5 {
		t.Errorf("numeric Distinct = %d, want 5", d)
	}
}

func TestRangeSelectivity(t *testing.T) {
	cat := tinyCatalog(t)
	s := Collect(cat)
	// p_size spans 1..50 roughly uniformly.
	lo := s.RangeSelectivity("part", "p_size", "<", types.NewInt(10))
	hi := s.RangeSelectivity("part", "p_size", ">", types.NewInt(40))
	if lo > 0.4 || lo < 0.05 {
		t.Errorf("p_size < 10 sel = %v", lo)
	}
	if hi > 0.4 || hi < 0.05 {
		t.Errorf("p_size > 40 sel = %v", hi)
	}
	// Unknown column falls to the Selinger default.
	if got := s.RangeSelectivity("part", "zzz", "<", types.NewInt(1)); got != 1.0/3 {
		t.Errorf("unknown col sel = %v", got)
	}
	// Extremes clamp but never hit zero.
	if got := s.RangeSelectivity("part", "p_size", "<", types.NewInt(-5)); got < 0.001 {
		t.Errorf("clamped sel = %v", got)
	}
}

func scanOf(t *testing.T, cat *storage.Catalog, name string) *core.Scan {
	t.Helper()
	tab, err := cat.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Scan{Table: name, Def: tab.Def}
}

func TestEstimateScanSelectJoin(t *testing.T) {
	cat := tinyCatalog(t)
	est := NewEstimator(Collect(cat))
	sz := tpch.SizesFor(0.001)

	scan := scanOf(t, cat, "part")
	e := est.Estimate(scan)
	if e.Rows != float64(sz.Parts) {
		t.Errorf("scan rows = %v", e.Rows)
	}

	sel := &core.Select{Input: scan, Cond: &core.Cmp{Op: "=", L: core.Col("p_brand"), R: core.LitStr("Brand#11")}}
	se := est.Estimate(sel)
	if se.Rows >= e.Rows || se.Rows <= 0 {
		t.Errorf("brand selection rows = %v of %v", se.Rows, e.Rows)
	}

	join := &core.Join{
		Left:  scanOf(t, cat, "partsupp"),
		Right: scan,
		Cond:  &core.Cmp{Op: "=", L: core.QCol("partsupp", "ps_partkey"), R: core.QCol("part", "p_partkey")},
	}
	je := est.Estimate(join)
	// FK join: |partsupp ⋈ part| = |partsupp|.
	if ratio := je.Rows / float64(sz.PartSupps); ratio < 0.5 || ratio > 2 {
		t.Errorf("join rows = %v, want ≈ %d", je.Rows, sz.PartSupps)
	}
	if je.Cost <= se.Cost {
		t.Error("join must cost more than a selection")
	}
}

func TestEstimateGApplyUniformity(t *testing.T) {
	cat := tinyCatalog(t)
	est := NewEstimator(Collect(cat))
	join := &core.Join{
		Left:  scanOf(t, cat, "partsupp"),
		Right: scanOf(t, cat, "part"),
		Cond:  &core.Cmp{Op: "=", L: core.QCol("partsupp", "ps_partkey"), R: core.QCol("part", "p_partkey")},
	}
	pgq := &core.AggOp{Input: &core.GroupScan{Var: "g"}, Aggs: []core.AggSpec{{Fn: "avg", Arg: core.Col("p_retailprice"), As: "a"}}}
	ga := core.NewGApply(join, []*core.ColRef{core.QCol("partsupp", "ps_suppkey")}, "g", pgq)
	e := est.Estimate(ga)
	suppliers := float64(tpch.SizesFor(0.001).Suppliers)
	// One aggregate row per group ⇒ rows ≈ number of suppliers.
	if e.Rows < suppliers*0.5 || e.Rows > suppliers*2 {
		t.Errorf("GApply rows = %v, want ≈ %v", e.Rows, suppliers)
	}
	// The per-group query must be costed per group: total cost exceeds
	// the outer cost alone.
	outer := est.Estimate(join)
	if e.Cost <= outer.Cost {
		t.Errorf("GApply cost %v must exceed outer cost %v", e.Cost, outer.Cost)
	}
	// Sort partitioning lowers to an enforcer sort under a run cut: the
	// plan costs the hash GApply's, with the hash pass replaced by the
	// sort's n log n and the cut's linear pass.
	gaSort := core.NewGApply(join, []*core.ColRef{core.QCol("partsupp", "ps_suppkey")}, "g", pgq)
	gaSort.Partition = core.PartitionSort
	lowered := core.LowerSortPartition(gaSort)
	if _, ok := lowered.Outer.(*core.OrderBy); !ok || !core.GApplyOuterOrdered(lowered) {
		t.Fatalf("sort partitioning lowers to %s, want a GApply over a sort of its outer", core.Summary(lowered))
	}
	want := e.Cost + sortCost(outer.Rows) + outer.Rows*(cFilterRow-cHashRow)
	if got := est.Estimate(lowered).Cost; math.Abs(got-want) > 1e-6*want {
		t.Errorf("lowered sort partitioning costs %v, want %v (hash %v)", got, want, e.Cost)
	}
}

func TestEstimateApplyCaching(t *testing.T) {
	cat := tinyCatalog(t)
	est := NewEstimator(Collect(cat))
	outer := scanOf(t, cat, "supplier")
	uncorr := &core.AggOp{Input: scanOf(t, cat, "part"), Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	corr := &core.AggOp{
		Input: &core.Select{
			Input: scanOf(t, cat, "part"),
			Cond:  &core.Cmp{Op: "=", L: core.Col("p_partkey"), R: &core.OuterRef{Name: "s_suppkey"}},
		},
		Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}},
	}
	cached := est.Estimate(&core.Apply{Outer: outer, Inner: uncorr})
	reexec := est.Estimate(&core.Apply{Outer: outer, Inner: corr})
	if cached.Cost >= reexec.Cost {
		t.Errorf("uncorrelated apply (%v) must cost less than correlated (%v)", cached.Cost, reexec.Cost)
	}
}

func TestEstimateSelectivityCombinators(t *testing.T) {
	cat := tinyCatalog(t)
	est := NewEstimator(Collect(cat))
	scan := scanOf(t, cat, "part")
	rows := est.Estimate(scan).Rows
	eq := &core.Cmp{Op: "=", L: core.Col("p_brand"), R: core.LitStr("Brand#11")}
	rng := &core.Cmp{Op: ">", L: core.Col("p_size"), R: core.LitInt(25)}
	and := est.selectivity(&core.And{Ops: []core.Expr{eq, rng}}, rows)
	or := est.selectivity(&core.Or{Ops: []core.Expr{eq, rng}}, rows)
	not := est.selectivity(&core.Not{Op: eq}, rows)
	seq := est.selectivity(eq, rows)
	if and >= seq || and <= 0 {
		t.Errorf("AND sel = %v vs %v", and, seq)
	}
	if or <= seq || or > 1 {
		t.Errorf("OR sel = %v", or)
	}
	if not <= 0.5 {
		t.Errorf("NOT of selective pred = %v", not)
	}
}

// TestIndexWindowQError pins the bounded-IndexScan cardinality: an
// equality window is one key (1/ndv), a range window the interpolated
// distance between its bounds, and a Select over the window does not
// re-apply the conjuncts the bounds came from. Before, [17, 17] on
// ps_suppkey was estimated as the product of two one-sided
// selectivities (1 084 of 8 000 rows where 80 qualify) and the Select
// above it applied the same conjuncts again (1.6 rows).
func TestIndexWindowQError(t *testing.T) {
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, 0.01); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(Collect(cat))
	ps := scanOf(t, cat, "partsupp")
	ord, err := ps.Def.Schema.Resolve("partsupp", "ps_suppkey")
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := cat.Lookup("partsupp")
	actual := func(lo, hi int64, hiIncl bool) float64 {
		n := 0
		for _, r := range tab.Rows {
			k := r[ord].Int()
			if k >= lo && (k < hi || hiIncl && k == hi) {
				n++
			}
		}
		return float64(n)
	}
	cmp := func(op string, v int64) core.Expr {
		return &core.Cmp{Op: op, L: core.Col("ps_suppkey"), R: core.LitInt(v)}
	}
	for _, tc := range []struct {
		name   string
		lo, hi int64
		hiIncl bool
		cond   core.Expr
	}{
		{"equality", 17, 17, true, cmp("=", 17)},
		{"two-sided", 17, 41, false, core.AndAll([]core.Expr{cmp(">=", 17), cmp("<", 41)})},
		{"narrow", 60, 62, true, core.AndAll([]core.Expr{cmp(">=", 60), cmp("<=", 62)})},
	} {
		is := &core.IndexScan{
			Table: "partsupp", Def: ps.Def, Index: "idx", Cols: []string{"ps_suppkey"}, Ords: []int{ord},
			Lo: types.NewInt(tc.lo), HasLo: true, LoIncl: true,
			Hi: types.NewInt(tc.hi), HasHi: true, HiIncl: tc.hiIncl,
		}
		want := actual(tc.lo, tc.hi, tc.hiIncl)
		for _, n := range []core.Node{is, &core.Select{Input: is, Cond: tc.cond}} {
			got := est.Estimate(n).Rows
			if q := math.Max(got/want, want/got); q > 2 {
				t.Errorf("%s %s: estimated %.0f rows, actual %.0f (q-error %.1f)", tc.name, core.Summary(n), got, want, q)
			}
		}
	}
}
