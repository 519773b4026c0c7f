package exec

import (
	"reflect"
	"strings"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/oracle"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// The reference interpreter (internal/oracle) is the independent check
// the engine's differentials compare against, so it is itself checked
// here against results computed by hand on this package's fixture: one
// case per logical operator, plus the NULL, cross-type and empty-input
// corners the engine's own tests pin.

var (
	iv = types.NewInt
	fv = types.NewFloat
	sv = types.NewString
	nv = types.Null
)

// oracleCatalog is the fixture plus mix, a table whose key column holds
// NULLs and both INT 2 and FLOAT 2.0:
//
//	mix: (NULL, 1) (2, 2) (2.0, 3) (NULL, 4) (3, 5)
func oracleCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := buildFixtureCatalog()
	mix, err := cat.Create(&schema.TableDef{
		Name:   "mix",
		Schema: schema.New(schema.Column{Name: "k", Type: types.KindFloat}, schema.Column{Name: "v", Type: types.KindInt}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []types.Row{{nv, iv(1)}, {iv(2), iv(2)}, {fv(2), iv(3)}, {nv, iv(4)}, {iv(3), iv(5)}} {
		if err := mix.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.CreateIndex("idx_part_brand", "part", "p_brand"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("idx_part_key", "part", "p_partkey"); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestOracleHandComputed(t *testing.T) {
	cat := oracleCatalog(t)
	tab := func(name string) *core.Scan {
		tb, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return &core.Scan{Table: name, Def: tb.Def}
	}
	indexScan := func(index string) *core.IndexScan {
		ix, err := cat.LookupIndex(index)
		if err != nil {
			t.Fatal(err)
		}
		tb, _ := cat.Lookup("part")
		return &core.IndexScan{Table: "part", Def: tb.Def, Index: index, Cols: ix.Cols, Ords: ix.Ords()}
	}
	cmp := func(op string, l, r core.Expr) core.Expr { return &core.Cmp{Op: op, L: l, R: r} }
	col, qcol := core.Col, core.QCol
	// partsupp rows of the outer supplier.
	supplied := func() core.Node {
		return &core.Select{Input: tab("partsupp"), Cond: cmp("=", col("ps_suppkey"), &core.OuterRef{Name: "s_suppkey"})}
	}
	countStar := core.AggSpec{Fn: "count", Star: true, As: "n"}
	supplierLOJ := func() *core.Join {
		return &core.Join{Kind: core.LeftOuterJoin, Left: tab("supplier"), Right: tab("partsupp"),
			Cond: cmp("=", qcol("supplier", "s_suppkey"), qcol("partsupp", "ps_suppkey"))}
	}

	cases := []struct {
		name string
		plan core.Node
		want []types.Row
	}{
		{"scan", tab("supplier"),
			[]types.Row{{iv(1), sv("alpha")}, {iv(2), sv("beta")}, {iv(3), sv("gamma")}}},
		// Key order, ties in heap order: Brand#A (bolt, washer) before
		// Brand#B (nut, screw).
		{"index-scan-key-order", core.ProjectCols(indexScan("idx_part_brand"), []*core.ColRef{col("p_name")}),
			[]types.Row{{sv("bolt")}, {sv("washer")}, {sv("nut")}, {sv("screw")}}},
		{"index-scan-bounds", core.ProjectCols(func() core.Node {
			is := indexScan("idx_part_key")
			is.Lo, is.HasLo, is.LoIncl = iv(2), true, true
			is.Hi, is.HasHi = fv(3.5), true
			return is
		}(), []*core.ColRef{col("p_name")}),
			[]types.Row{{sv("nut")}, {sv("washer")}}},
		{"select", core.ProjectCols(&core.Select{Input: tab("part"), Cond: cmp(">", col("p_retailprice"), core.LitInt(15))},
			[]*core.ColRef{col("p_name")}),
			[]types.Row{{sv("nut")}, {sv("washer")}, {sv("screw")}}},
		// NULL > 1 is unknown, so NULL keys never pass.
		{"select-null-unknown", core.ProjectCols(&core.Select{Input: tab("mix"), Cond: cmp(">", col("k"), core.LitInt(1))},
			[]*core.ColRef{col("v")}),
			[]types.Row{{iv(2)}, {iv(3)}, {iv(5)}}},
		{"project", core.NewProject(tab("part"),
			[]core.Expr{col("p_name"), &core.BinOp{Op: "*", L: col("p_retailprice"), R: core.LitInt(2)}}, nil),
			[]types.Row{{sv("bolt"), fv(20)}, {sv("nut"), fv(40)}, {sv("washer"), fv(60)}, {sv("screw"), fv(80)}}},
		// NULLs are one value for DISTINCT, and INT 2 = FLOAT 2.0.
		{"distinct", &core.Distinct{Input: core.ProjectCols(tab("mix"), []*core.ColRef{col("k")})},
			[]types.Row{{nv}, {iv(2)}, {iv(3)}}},
		{"join", core.ProjectCols(joinedOn(tab("partsupp"), tab("part")), []*core.ColRef{col("ps_suppkey"), col("p_name")}),
			[]types.Row{{iv(1), sv("bolt")}, {iv(1), sv("nut")}, {iv(1), sv("washer")}, {iv(2), sv("washer")}, {iv(2), sv("screw")}}},
		{"left-outer-join-pads", core.ProjectCols(supplierLOJ(), []*core.ColRef{col("s_name"), col("ps_partkey")}),
			[]types.Row{{sv("alpha"), iv(1)}, {sv("alpha"), iv(2)}, {sv("alpha"), iv(3)}, {sv("beta"), iv(3)}, {sv("beta"), iv(4)}, {sv("gamma"), nv}}},
		// A filter above the join sees gamma's padded NULLs: NULL = NULL
		// is unknown, so the padded row is rejected.
		{"left-outer-pad-rejected", core.ProjectCols(&core.Select{Input: supplierLOJ(), Cond: cmp("=", col("ps_suppkey"), col("ps_suppkey"))},
			[]*core.ColRef{col("s_name")}),
			[]types.Row{{sv("alpha")}, {sv("alpha")}, {sv("alpha")}, {sv("beta")}, {sv("beta")}}},
		// NULL keys group together; INT 2 and FLOAT 2.0 are one group,
		// keyed by its first row. Groups come out in key order.
		{"group-by", &core.GroupBy{Input: tab("mix"), GroupCols: []*core.ColRef{col("k")},
			Aggs: []core.AggSpec{countStar, {Fn: "sum", Arg: col("v")}, {Fn: "count", Arg: col("k")}}},
			[]types.Row{{nv, iv(2), iv(5), iv(0)}, {iv(2), iv(2), iv(5), iv(2)}, {iv(3), iv(1), iv(5), iv(1)}}},
		{"group-by-empty-input", &core.GroupBy{Input: &core.Select{Input: tab("mix"), Cond: cmp("<", col("v"), core.LitInt(0))},
			GroupCols: []*core.ColRef{col("k")}, Aggs: []core.AggSpec{countStar}},
			nil},
		{"aggregate", &core.AggOp{Input: tab("part"), Aggs: []core.AggSpec{
			countStar, {Fn: "avg", Arg: col("p_retailprice")}, {Fn: "min", Arg: col("p_name")}, {Fn: "max", Arg: col("p_retailprice")},
			{Fn: "sum", Arg: col("p_partkey")}, {Fn: "count", Arg: col("p_brand"), Distinct: true}}},
			[]types.Row{{iv(4), fv(25), sv("bolt"), fv(40), iv(10), iv(2)}}},
		// Over no input count is 0 and every other aggregate is NULL.
		{"aggregate-empty-input", &core.AggOp{Input: &core.Select{Input: tab("part"), Cond: cmp(">", col("p_retailprice"), core.LitInt(100))},
			Aggs: []core.AggSpec{countStar, {Fn: "count", Arg: col("p_name")}, {Fn: "sum", Arg: col("p_retailprice")},
				{Fn: "avg", Arg: col("p_retailprice")}, {Fn: "min", Arg: col("p_name")}}},
			[]types.Row{{iv(0), iv(0), nv, nv, nv}}},
		{"order-by", core.ProjectCols(&core.OrderBy{Input: tab("part"),
			Keys: []core.OrderKey{{Expr: col("p_brand"), Desc: true}, {Expr: col("p_retailprice")}}}, []*core.ColRef{col("p_name")}),
			[]types.Row{{sv("nut")}, {sv("screw")}, {sv("bolt")}, {sv("washer")}}},
		// An elided sort is still sorted: the oracle reads no hints.
		{"order-by-elided", core.ProjectCols(&core.OrderBy{Input: tab("part"), Elided: true,
			Keys: []core.OrderKey{{Expr: col("p_name")}}}, []*core.ColRef{col("p_name")}),
			[]types.Row{{sv("bolt")}, {sv("nut")}, {sv("screw")}, {sv("washer")}}},
		{"union-all", &core.UnionAll{Inputs: []core.Node{
			core.ProjectCols(tab("supplier"), []*core.ColRef{col("s_name")}),
			core.ProjectCols(&core.Select{Input: tab("part"), Cond: cmp("<", col("p_partkey"), core.LitInt(3))}, []*core.ColRef{col("p_name")}),
		}},
			[]types.Row{{sv("alpha")}, {sv("beta")}, {sv("gamma")}, {sv("bolt")}, {sv("nut")}}},
		{"apply-correlated", core.ProjectCols(&core.Apply{Outer: tab("supplier"), Inner: supplied()},
			[]*core.ColRef{col("s_name"), col("ps_partkey")}),
			[]types.Row{{sv("alpha"), iv(1)}, {sv("alpha"), iv(2)}, {sv("alpha"), iv(3)}, {sv("beta"), iv(3)}, {sv("beta"), iv(4)}}},
		{"outer-apply-pads", core.ProjectCols(&core.Apply{Kind: core.OuterApply, Outer: tab("supplier"), Inner: supplied()},
			[]*core.ColRef{col("s_name"), col("ps_partkey")}),
			[]types.Row{{sv("alpha"), iv(1)}, {sv("alpha"), iv(2)}, {sv("alpha"), iv(3)}, {sv("beta"), iv(3)}, {sv("beta"), iv(4)}, {sv("gamma"), nv}}},
		// The decorrelated form of a scalar subquery: the aggregate of an
		// empty correlated input is still one row, count 0.
		{"apply-scalar-aggregate", core.ProjectCols(&core.Apply{Outer: tab("supplier"),
			Inner: &core.AggOp{Input: supplied(), Aggs: []core.AggSpec{countStar}}},
			[]*core.ColRef{col("s_name"), col("n")}),
			[]types.Row{{sv("alpha"), iv(3)}, {sv("beta"), iv(2)}, {sv("gamma"), iv(0)}}},
		{"scalar-subquery", core.NewProject(tab("supplier"), []core.Expr{col("s_name"),
			&core.ScalarSubquery{Plan: &core.AggOp{Input: supplied(), Aggs: []core.AggSpec{{Fn: "max", Arg: col("ps_partkey")}}}}}, nil),
			[]types.Row{{sv("alpha"), iv(3)}, {sv("beta"), iv(4)}, {sv("gamma"), nv}}},
		{"exists", core.ProjectCols(&core.Apply{Outer: tab("supplier"), Inner: &core.Exists{Input: supplied()}},
			[]*core.ColRef{col("s_name")}),
			[]types.Row{{sv("alpha")}, {sv("beta")}}},
		{"not-exists", core.ProjectCols(&core.Apply{Outer: tab("supplier"), Inner: &core.Exists{Input: supplied(), Negated: true}},
			[]*core.ColRef{col("s_name")}),
			[]types.Row{{sv("gamma")}}},
		{"exists-expression", core.ProjectCols(&core.Select{Input: tab("supplier"),
			Cond: &core.ExistsExpr{Plan: supplied(), Negated: true}}, []*core.ColRef{col("s_name")}),
			[]types.Row{{sv("gamma")}}},
		// Per supplier: its parts' count and average price.
		{"gapply", core.NewGApply(joinedOn(tab("partsupp"), tab("part")), []*core.ColRef{col("ps_suppkey")}, "g",
			&core.AggOp{Input: &core.GroupScan{Var: "g"}, Aggs: []core.AggSpec{countStar, {Fn: "avg", Arg: col("p_retailprice")}}}),
			[]types.Row{{iv(1), iv(3), fv(20)}, {iv(2), iv(2), fv(35)}}},
		// The group scan reads the bound group; a per-group filter that
		// empties it leaves the scalar aggregate's one row.
		{"gapply-emptied-group", core.NewGApply(tab("mix"), []*core.ColRef{col("k")}, "g",
			&core.AggOp{Input: &core.Select{Input: &core.GroupScan{Var: "g"}, Cond: cmp(">", col("v"), core.LitInt(4))},
				Aggs: []core.AggSpec{countStar, {Fn: "sum", Arg: col("v")}}}),
			[]types.Row{{nv, iv(0), nv}, {iv(2), iv(0), nv}, {iv(3), iv(1), iv(5)}}},
		{"gapply-empty-outer", core.NewGApply(&core.Select{Input: tab("mix"), Cond: cmp("<", col("v"), core.LitInt(0))},
			[]*core.ColRef{col("k")}, "g", &core.AggOp{Input: &core.GroupScan{Var: "g"}, Aggs: []core.AggSpec{countStar}}),
			nil},
		{"gapply-group-scan", core.NewGApply(tab("mix"), []*core.ColRef{col("k")}, "g",
			core.ProjectCols(&core.GroupScan{Var: "g"}, []*core.ColRef{col("v")})),
			[]types.Row{{nv, iv(1)}, {nv, iv(4)}, {iv(2), iv(2)}, {iv(2), iv(3)}, {iv(3), iv(5)}}},
	}
	kinds := map[string]bool{}
	for _, tc := range cases {
		core.Walk(tc.plan, func(n core.Node) { kinds[strings.TrimPrefix(reflect.TypeOf(n).String(), "*core.")] = true })
		t.Run(tc.name, func(t *testing.T) {
			got, err := oracle.Eval(tc.plan, cat)
			if err != nil {
				t.Fatalf("Eval: %v\nplan:\n%s", err, core.Format(tc.plan))
			}
			if len(got) != 0 || len(tc.want) != 0 {
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("got  %v\nwant %v", got, tc.want)
				}
			}
		})
	}
	for _, k := range []string{"Scan", "IndexScan", "GroupScan", "Select", "Project", "Distinct", "Join",
		"GroupBy", "AggOp", "OrderBy", "UnionAll", "Apply", "Exists", "GApply"} {
		if !kinds[k] {
			t.Errorf("no case evaluates a %s", k)
		}
	}
}

// joinedOn is left ⋈ right on the partkey columns.
func joinedOn(left, right core.Node) *core.Join {
	return &core.Join{Left: left, Right: right,
		Cond: &core.Cmp{Op: "=", L: core.QCol("partsupp", "ps_partkey"), R: core.QCol("part", "p_partkey")}}
}

// TestOracleCheckPermitsOnlyTies: an ordered result may permute rows
// whose sort keys tie, and nothing else; an unordered one is a
// multiset, with values equal under types.Compare.
func TestOracleCheckPermitsOnlyTies(t *testing.T) {
	cat := oracleCatalog(t)
	tb, _ := cat.Lookup("part")
	byBrand := core.ProjectCols(&core.OrderBy{Input: &core.Scan{Table: "part", Def: tb.Def},
		Keys: []core.OrderKey{{Expr: core.Col("p_brand")}}}, []*core.ColRef{core.Col("p_name")})
	want, err := oracle.Expect(byBrand, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rows []types.Row
		ok   bool
	}{
		{[]types.Row{{sv("bolt")}, {sv("washer")}, {sv("nut")}, {sv("screw")}}, true},
		{[]types.Row{{sv("washer")}, {sv("bolt")}, {sv("screw")}, {sv("nut")}}, true},
		{[]types.Row{{sv("bolt")}, {sv("nut")}, {sv("washer")}, {sv("screw")}}, false},
		{[]types.Row{{sv("bolt")}, {sv("washer")}, {sv("nut")}}, false},
		{[]types.Row{{sv("bolt")}, {sv("washer")}, {sv("nut")}, {sv("nut")}}, false},
	} {
		if err := want.Check(tc.rows); (err == nil) != tc.ok {
			t.Errorf("Check(%v) = %v, want ok=%t", tc.rows, err, tc.ok)
		}
	}

	mix, _ := cat.Lookup("mix")
	keys, err := oracle.Expect(core.ProjectCols(&core.Scan{Table: "mix", Def: mix.Def}, []*core.ColRef{core.Col("k")}), cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := keys.Check([]types.Row{{iv(3)}, {fv(2)}, {nv}, {iv(2)}, {nv}}); err != nil {
		t.Errorf("unordered result with FLOAT 2.0 for INT 2: %v", err)
	}
	if err := keys.Check([]types.Row{{iv(3)}, {fv(2)}, {nv}, {iv(2)}, {iv(2)}}); err == nil {
		t.Error("a NULL replaced by 2 passed the check")
	}
}
