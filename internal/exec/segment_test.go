package exec

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gapplydb/internal/core"
	"gapplydb/internal/oracle"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// TestSegmentLowering states which subtrees of a per-group query the
// compiled program hosts as iterator trees, read off the program: none
// for the workload's shapes — EXISTS, an invariant scalar and a
// correlated filter among them — and otherwise exactly the operator the
// program has no native node for.
func TestSegmentLowering(t *testing.T) {
	ctx := attached(newTestCatalog(t))
	gs := func() core.Node { return &core.GroupScan{Var: "g"} }
	avgOf := func(col string) core.Node {
		return core.NewProject(
			&core.AggOp{Input: gs(), Aggs: []core.AggSpec{{Fn: "avg", Arg: core.Col(col), As: "a"}}},
			[]core.Expr{core.Col("a")}, []string{"ga"})
	}
	price := core.Col("p_retailprice")
	count := func(in core.Node) core.Node {
		return &core.AggOp{Input: in, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	}
	onGroup := func(inner core.Node) *core.GApply {
		return core.NewGApply(joined(ctx), []*core.ColRef{core.Col("ps_suppkey")}, "g", inner)
	}
	aboveAvg := &core.Select{Input: &core.Apply{Outer: gs(), Inner: avgOf("p_retailprice")},
		Cond: &core.Cmp{Op: ">", L: price, R: core.Col("ga")}}
	items := itemsCatalog(t, 3, 2)
	cases := []struct {
		name   string
		ga     *core.GApply
		hosted []string
	}{
		{"Q1", gapplyQ1(ctx, core.PartitionHash), nil},
		{"Q1 sort", gapplyQ1(ctx, core.PartitionSort), nil},
		{"Q2", gapplyQ2(ctx), nil},
		{"Q3", onGroup(&core.UnionAll{Inputs: []core.Node{
			core.NewProject(&core.Select{Input: &core.Apply{Outer: gs(), Inner: avgOf("p_retailprice")},
				Cond: &core.Cmp{Op: ">=", L: price, R: &core.BinOp{Op: "*", L: core.LitFloat(0.9), R: core.Col("ga")}}},
				[]core.Expr{core.LitInt(0), core.Col("p_name")}, []string{"tag", "name"}),
			core.NewProject(gs(), []core.Expr{core.LitInt(1), core.Col("p_name")}, []string{"tag", "name"}),
		}}), nil},
		{"Q4", onGroup(core.NewProject(aboveAvg, []core.Expr{core.Col("p_name"), price}, nil)), nil},
		{"orders", ordersGApply(items, nil), nil},
		{"count", onGroup(count(gs())), nil},
		{"distinct aggregate", onGroup(&core.AggOp{Input: gs(), Aggs: []core.AggSpec{
			{Fn: "count", Arg: core.Col("p_brand"), Distinct: true, As: "n"}}}), nil},
		{"exists", onGroup(&core.Apply{Outer: gs(), Inner: &core.Exists{Input: &core.Select{Input: gs(),
			Cond: &core.Cmp{Op: ">", L: price, R: core.LitFloat(35)}}}}), nil},
		{"spooled base table", onGroup(&core.Apply{Outer: gs(), Inner: count(scan(ctx, "supplier"))}), nil},
		{"join", onGroup(count(&core.Join{Left: gs(), Right: scan(ctx, "supplier"),
			Cond: &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: core.Col("s_suppkey")}})), []string{"Join"}},
		{"group by", onGroup(&core.GroupBy{Input: gs(), GroupCols: []*core.ColRef{core.Col("p_brand")},
			Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}), []string{"GroupBy"}},
		{"distinct", onGroup(&core.Distinct{Input: core.NewProject(gs(), []core.Expr{core.Col("p_brand")}, nil)}), []string{"Distinct"}},
		{"order by", onGroup(&core.OrderBy{Input: gs(), Keys: []core.OrderKey{{Expr: price}}}), []string{"OrderBy"}},
		{"apply of rows", onGroup(&core.Apply{Outer: gs(),
			Inner: core.NewProject(gs(), []core.Expr{core.Col("p_name")}, []string{"other"})}), []string{"Apply"}},
		{"outer apply", onGroup(&core.Apply{Outer: gs(), Inner: avgOf("p_retailprice"), Kind: core.OuterApply}), []string{"Apply"}},
		{"nested gapply", onGroup(core.NewGApply(gs(), []*core.ColRef{core.Col("p_brand")}, "h",
			count(&core.GroupScan{Var: "h"}))), []string{"GApply"}},
	}
	invariants := map[string]int{"spooled base table": 1, "join": 1}
	for _, c := range cases {
		bctx := ctx
		if c.name == "orders" {
			bctx = attached(items)
		}
		it, err := buildBatchGApply(c.ga, bctx, compileEnv{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g := it.(*bgapply)
		if got := nodeKinds(g.exec.hosted()); !reflect.DeepEqual(got, c.hosted) {
			t.Errorf("%s: hosts %v, want %v", c.name, got, c.hosted)
		}
		if len(g.invs) != invariants[c.name] {
			t.Errorf("%s: %d invariant subtrees, want %d", c.name, len(g.invs), invariants[c.name])
		}
	}

	// An OuterRef in a filter compiles natively, and keeps the GApply
	// serial.
	corr := onGroup(&core.Select{Input: gs(),
		Cond: &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Name: "s_suppkey"}}})
	it, err := buildBatchGApply(corr, ctx, compileEnv{}.push(scan(ctx, "supplier").Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if g := it.(*bgapply); len(g.exec.hosted()) > 0 || g.degree() != 1 {
		t.Errorf("correlated filter: hosts %v, degree %d", nodeKinds(g.exec.hosted()), g.degree())
	}
}

// nodeKinds names the kinds of plan nodes ns, in order.
func nodeKinds(ns []core.Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, strings.TrimPrefix(fmt.Sprintf("%T", n), "*core."))
	}
	return out
}

// edgeCatalog holds edge(k, v, s), its rows shuffled: a one-row group
// (k=0), a NULL-keyed group mixing INT, FLOAT and NULL (v), an all-NULL
// group (k=1), a 600-row group (k=2) whose output spans several batches
// and whose INT and FLOAT values collide under DISTINCT, and 41 groups
// of one to three rows — 44 groups in all, not a multiple of any task
// cut — and dim.
func edgeCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	var rows []types.Row
	add := func(k, v types.Value, s string) { rows = append(rows, types.Row{k, v, types.NewString(s)}) }
	add(types.NewInt(0), types.NewInt(5), "one")
	add(types.Null, types.NewInt(1), "n1")
	add(types.Null, types.NewFloat(2.5), "n2")
	add(types.Null, types.Null, "n3")
	for i := 0; i < 3; i++ {
		add(types.NewInt(1), types.Null, fmt.Sprintf("z%d", i))
	}
	for i := 0; i < 600; i++ {
		v := types.NewInt(int64(i % 7))
		if i%2 == 1 {
			v = types.NewFloat(float64(i % 7))
		}
		add(types.NewInt(2), v, fmt.Sprintf("b%03d", i))
	}
	for k := 3; k < 44; k++ {
		for j := 0; j <= k%3; j++ {
			add(types.NewInt(int64(k)), types.NewInt(int64(k*10+j)), fmt.Sprintf("s%d.%d", k, j))
		}
	}
	rand.New(rand.NewSource(19)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	cat := storage.NewCatalog()
	tab, err := cat.Create(edgeDef)
	if err != nil {
		t.Fatal(err)
	}
	tab.Rows = rows
	addDim(t, cat)
	return cat
}

// edgeDef is edge(k, v, s).
var edgeDef = &schema.TableDef{Name: "edge", Schema: schema.New(
	schema.Column{Name: "k", Type: types.KindInt},
	schema.Column{Name: "v", Type: types.KindFloat},
	schema.Column{Name: "s", Type: types.KindString},
)}

// dimDef is dim(d, w), an invariant table the per-group queries over
// edge join or aggregate: w is 1.5 d, and one row's d is NULL.
var dimDef = &schema.TableDef{Name: "dim", Schema: schema.New(
	schema.Column{Name: "d", Type: types.KindInt},
	schema.Column{Name: "w", Type: types.KindFloat},
)}

func addDim(t testing.TB, cat *storage.Catalog) {
	t.Helper()
	tab, err := cat.Create(dimDef)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int64{0, 1, 2, 5, 30, 31, 100, 101, 130, 300, 420} {
		tab.Rows = append(tab.Rows, types.Row{types.NewInt(d), types.NewFloat(1.5 * float64(d))})
	}
	tab.Rows = append(tab.Rows, types.Row{types.Null, types.NewFloat(7)})
}

func dimScan() core.Node { return &core.Scan{Table: "dim", Def: dimDef} }

// edgeShapes are per-group queries over edge's $g.
func edgeShapes() map[string]func() core.Node {
	gs := func() core.Node { return &core.GroupScan{Var: "g"} }
	v := core.Col("v")
	scalar := func(fn string) core.Node {
		return core.NewProject(&core.AggOp{Input: gs(), Aggs: []core.AggSpec{{Fn: fn, Arg: v, As: "a"}}},
			[]core.Expr{core.Col("a")}, []string{"x"})
	}
	against := func(in core.Node, fn, op string, scale float64) core.Node {
		var bound core.Expr = core.Col("x")
		if scale != 1 {
			bound = &core.BinOp{Op: "*", L: core.LitFloat(scale), R: bound}
		}
		return &core.Select{Input: &core.Apply{Outer: in, Inner: scalar(fn)},
			Cond: &core.Cmp{Op: op, L: v, R: bound}}
	}
	count := func(in core.Node) core.Node {
		return &core.AggOp{Input: in, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	}
	lit := func(i int64) core.Expr { return core.LitInt(i) }
	null := &core.Lit{}
	return map[string]func() core.Node{
		// Q2 / the orders view: the all-NULL group's avg is NULL, so both
		// filters are UNKNOWN and both counts are 0 — rows still emitted.
		"orders": func() core.Node {
			return &core.UnionAll{Inputs: []core.Node{
				core.NewProject(count(against(gs(), "avg", ">=", 1)), []core.Expr{lit(0), core.Col("n"), null}, []string{"t", "above", "below"}),
				core.NewProject(count(against(gs(), "avg", "<", 1)), []core.Expr{lit(1), null, core.Col("n")}, []string{"t", "above", "below"}),
			}}
		},
		// Q1: the group's rows, then its average.
		"rows and avg": func() core.Node {
			return &core.UnionAll{Inputs: []core.Node{
				core.NewProject(gs(), []core.Expr{lit(0), core.Col("s"), v, null}, []string{"t", "s", "v", "a"}),
				core.NewProject(&core.AggOp{Input: gs(), Aggs: []core.AggSpec{{Fn: "avg", Arg: v, As: "m"}}},
					[]core.Expr{lit(1), null, null, core.Col("m")}, []string{"t", "s", "v", "a"}),
			}}
		},
		// Q3: rows near the group's max, and near its min.
		"near extremes": func() core.Node {
			return &core.UnionAll{Inputs: []core.Node{
				core.NewProject(against(gs(), "max", ">=", 0.9), []core.Expr{lit(0), core.Col("s")}, []string{"t", "s"}),
				core.NewProject(against(gs(), "min", "<=", 1.1), []core.Expr{lit(1), core.Col("s")}, []string{"t", "s"}),
			}}
		},
		// Q4: rows above the group's average.
		"above avg": func() core.Node {
			return core.NewProject(against(gs(), "avg", ">", 1), []core.Expr{core.Col("s"), v}, nil)
		},
		// Every aggregate, DISTINCT included; sum mixes INT and FLOAT.
		"aggregates": func() core.Node {
			return &core.AggOp{Input: gs(), Aggs: []core.AggSpec{
				{Fn: "count", Star: true, As: "n"},
				{Fn: "count", Arg: v, As: "nv"},
				{Fn: "count", Arg: v, Distinct: true, As: "dv"},
				{Fn: "sum", Arg: v, As: "sv"},
				{Fn: "sum", Arg: v, Distinct: true, As: "sdv"},
				{Fn: "avg", Arg: v, As: "av"},
				{Fn: "min", Arg: v, As: "lo"},
				{Fn: "max", Arg: core.Col("s"), As: "hi"},
			}}
		},
		// The same without DISTINCT: every aggregate folds its column a
		// window at a time.
		"folded aggregates": func() core.Node {
			return &core.AggOp{Input: gs(), Aggs: []core.AggSpec{
				{Fn: "count", Star: true, As: "n"},
				{Fn: "count", Arg: v, As: "nv"},
				{Fn: "sum", Arg: v, As: "sv"},
				{Fn: "avg", Arg: v, As: "av"},
				{Fn: "min", Arg: v, As: "lo"},
				{Fn: "max", Arg: v, As: "hi"},
				{Fn: "min", Arg: core.Col("s"), As: "first"},
			}}
		},
		// A filter that rejects every row still counts 0.
		"empty branch count": func() core.Node {
			return count(&core.Select{Input: gs(), Cond: &core.Cmp{Op: ">", L: v, R: core.LitInt(1000)}})
		},
		// An Apply whose outer yields no rows in some groups never
		// evaluates its inner there.
		"filtered apply outer": func() core.Node {
			return count(against(&core.Select{Input: gs(), Cond: &core.Cmp{Op: ">", L: v, R: core.LitInt(1)}}, "avg", ">=", 1))
		},
		// Row filter and arithmetic projection.
		"filtered rows": func() core.Node {
			return core.NewProject(&core.Select{Input: gs(), Cond: &core.Cmp{Op: ">", L: v, R: core.LitInt(2)}},
				[]core.Expr{core.Col("s"), &core.BinOp{Op: "*", L: v, R: core.LitInt(2)}}, []string{"s", "v2"})
		},
		// A union input that is not a projection carries the Apply's
		// column as a row column, widened.
		"widened union input": func() core.Node {
			return &core.UnionAll{Inputs: []core.Node{
				against(gs(), "avg", ">=", 1),
				core.NewProject(gs(), []core.Expr{core.Col("k"), v, core.Col("s"), null}, []string{"k", "v", "s", "x"}),
			}}
		},
		// An Apply over a filtered projection regathers rows whose values
		// do not outlive their window; the projection above reads the
		// scalar and computes with it.
		"projected apply outer": func() core.Node {
			outer := core.NewProject(&core.Select{Input: gs(), Cond: &core.Cmp{Op: ">", L: v, R: core.LitInt(1)}},
				[]core.Expr{core.Col("s"), &core.BinOp{Op: "*", L: v, R: core.LitInt(2)}}, []string{"s", "v"})
			return core.NewProject(against(outer, "max", "<", 1.5),
				[]core.Expr{core.Col("s"), core.Col("x"), &core.BinOp{Op: "-", L: core.Col("x"), R: v}}, []string{"s", "x", "gap"})
		},
		// Group selection: a group's rows when it holds a row above 30, or
		// none; and the complement.
		"exists": func() core.Node {
			return core.NewProject(&core.Apply{Outer: gs(), Inner: exists(gt(v, 30), false)}, []core.Expr{core.Col("s"), v}, nil)
		},
		"not exists": func() core.Node {
			return core.NewProject(&core.Apply{Outer: gs(), Inner: exists(gt(v, 30), true)}, []core.Expr{core.Col("s")}, nil)
		},
		// An Exists whose filter empties its input: no group qualifies, yet
		// every outer row is read; negated, every group does.
		"exists of an empty filter": func() core.Node {
			return core.NewProject(&core.Apply{Outer: gs(), Inner: exists(gt(v, 1000), false)}, []core.Expr{core.Col("s")}, nil)
		},
		"not exists of an empty filter": func() core.Node {
			return &core.Apply{Outer: gs(), Inner: exists(gt(v, 1000), true)}
		},
		// An invariant scalar: dim's count, materialized once per Open.
		"spooled base table": func() core.Node {
			return core.NewProject(&core.Apply{Outer: gs(), Inner: count(dimScan())}, []core.Expr{core.Col("s"), core.Col("n")}, nil)
		},
		// Q4j: a native aggregate over a hosted join of $g with an
		// invariant filter of dim; and Q3j, the join's rows projected.
		"Q4j": func() core.Node {
			return &core.AggOp{Input: dimJoin(gs(), &core.Select{Input: dimScan(), Cond: &core.Cmp{Op: "<", L: core.Col("w"), R: core.LitInt(200)}}),
				Aggs: []core.AggSpec{{Fn: "min", Arg: core.Col("w"), As: "lo"}, {Fn: "count", Star: true, As: "n"}}}
		},
		"Q3j": func() core.Node {
			return core.NewProject(dimJoin(gs(), dimScan()), []core.Expr{core.Col("s"), core.Col("w")}, nil)
		},
		// A nested-loops join, no equality to hash on, keeps its drain
		// of the materialization across groups too.
		"nested-loops join": func() core.Node {
			return core.NewProject(&core.Join{Left: gs(), Right: dimScan(), Cond: &core.Cmp{Op: ">", L: v, R: core.Col("w")}},
				[]core.Expr{core.Col("s"), core.Col("d")}, nil)
		},
		// A union read by a consumer rather than emitted: a filter and an
		// aggregate over the union of the group's small and large rows,
		// and an Exists over a union whose first input is empty.
		"select over union": func() core.Node {
			return &core.Select{Input: &core.UnionAll{Inputs: []core.Node{
				core.NewProject(gs(), []core.Expr{lit(0), core.Col("s"), v}, []string{"t", "s", "v"}),
				core.NewProject(&core.Select{Input: gs(), Cond: gt(v, 3)}, []core.Expr{lit(1), core.Col("s"), v}, []string{"t", "s", "v"}),
			}}, Cond: gt(v, 2)}
		},
		"aggregate over union": func() core.Node {
			return &core.AggOp{Input: &core.UnionAll{Inputs: []core.Node{
				&core.Select{Input: gs(), Cond: gt(v, 4)},
				gs(),
			}}, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}, {Fn: "sum", Arg: v, As: "sv"}, {Fn: "max", Arg: core.Col("s"), As: "hi"}}}
		},
		"exists over union": func() core.Node {
			return core.NewProject(&core.Apply{Outer: gs(), Inner: &core.Exists{Input: &core.UnionAll{Inputs: []core.Node{
				&core.Select{Input: gs(), Cond: gt(v, 1000)},
				&core.Select{Input: gs(), Cond: gt(v, 30)},
			}}}}, []core.Expr{core.Col("s")}, nil)
		},
		// A nested GApply, hosted, whose inner reads the enclosing group.
		"nested gapply": func() core.Node {
			inner := core.NewProject(&core.Apply{Outer: &core.GroupScan{Var: "h"}, Inner: count(gs())},
				[]core.Expr{core.Col("s"), core.Col("n")}, nil)
			return core.NewGApply(&core.GroupScan{Var: "g", Sch: edgeDef.Schema}, []*core.ColRef{v}, "h", inner)
		},
	}
}

// exists is EXISTS (or NOT EXISTS) over the rows of $g that pass cond.
func exists(cond core.Expr, negated bool) core.Node {
	return &core.Exists{Input: &core.Select{Input: &core.GroupScan{Var: "g"}, Cond: cond}, Negated: negated}
}

func gt(e core.Expr, i int64) core.Expr { return &core.Cmp{Op: ">", L: e, R: core.LitInt(i)} }

// dimJoin joins in with right on v = d.
func dimJoin(in, right core.Node) core.Node {
	return &core.Join{Left: in, Right: right, Cond: &core.Cmp{Op: "=", L: core.Col("v"), R: core.Col("d")}}
}

// correlatedOverDim is GApply over edge under an Apply over dim, whose
// per-group query keeps the group's rows whose v is the outer row's d.
func correlatedOverDim(hint core.PartitionHint) core.Node {
	inner := core.NewProject(&core.Select{Input: &core.GroupScan{Var: "g"},
		Cond: &core.Cmp{Op: "=", L: core.Col("v"), R: &core.OuterRef{Name: "d"}}}, []core.Expr{core.Col("s")}, nil)
	return &core.Apply{Outer: dimScan(), Inner: onEdge(inner, hint)}
}

// sortedOuterUnion is the sorted outer union's shape outside any
// GApply: a filter over the union of two projections of edge joined
// with dim.
func sortedOuterUnion(core.PartitionHint) core.Node {
	branch := func(tag int64, col string) core.Node {
		return core.NewProject(dimJoin(&core.Scan{Table: "edge", Def: edgeDef}, dimScan()),
			[]core.Expr{core.LitInt(tag), core.Col("k"), core.Col(col)}, []string{"t", "k", "x"})
	}
	return &core.Select{Input: &core.UnionAll{Inputs: []core.Node{branch(0, "w"), branch(1, "v")}},
		Cond: gt(core.Col("x"), 4)}
}

// onEdge is a GApply of inner over edge grouped by k, under the hint.
func onEdge(inner core.Node, hint core.PartitionHint) core.Node {
	ga := core.NewGApply(&core.Scan{Table: "edge", Def: edgeDef}, []*core.ColRef{core.Col("k")}, "g", inner)
	ga.Partition = hint
	return core.LowerSortPartition(ga)
}

// edgeErrorShapes are per-group queries over edge's $g that
// fail, some in more than one node of the same group, so the error
// reported first shows the evaluation order.
func edgeErrorShapes() map[string]func() core.Node {
	gs := func() core.Node { return &core.GroupScan{Var: "g"} }
	v := core.Col("v")
	return map[string]func() core.Node{
		// A window's filter runs over the whole window before the
		// projection sees a row: 1/(v-1) divides by zero in the NULL-keyed
		// group and in k=2 before abs meets a VARCHAR.
		"filter then projection": func() core.Node {
			return core.NewProject(&core.Select{Input: gs(),
				Cond: &core.Cmp{Op: "<>", L: &core.BinOp{Op: "/", L: core.LitInt(1), R: &core.BinOp{Op: "-", L: v, R: core.LitInt(1)}}, R: core.LitInt(0)}},
				[]core.Expr{&core.Func{Name: "abs", Args: []core.Expr{core.Col("s")}}}, []string{"a"})
		},
		// sum(s) fails on its first non-NULL row, count(*) never; min(v)
		// never, sum(v) never.
		"aggregate over text": func() core.Node {
			return &core.AggOp{Input: gs(), Aggs: []core.AggSpec{
				{Fn: "count", Star: true, As: "n"},
				{Fn: "min", Arg: v, As: "lo"},
				{Fn: "sum", Arg: core.Col("s"), As: "bad"},
				{Fn: "sum", Arg: v, As: "sv"},
			}}
		},
	}
}

// windowCatalog holds edge(k, v, s): one 600-row group (k=2) in row
// order, v its position, and a 3-row group (k=0), so a shape can place
// a failure in a chosen window.
func windowCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create(edgeDef)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tab.Rows = append(tab.Rows, types.Row{types.NewInt(0), types.NewInt(int64(i)), types.NewString(fmt.Sprintf("r%d", i))})
	}
	for i := 0; i < 600; i++ {
		tab.Rows = append(tab.Rows, types.Row{types.NewInt(2), types.NewInt(int64(i)), types.NewString(fmt.Sprintf("w%03d", i))})
	}
	return cat
}

// windowShapes read windowCatalog's run: an Apply whose outer keeps
// rows 201 on, so its first outer window has 55 rows and it regathers
// rows from the next window before its consumer sees any. The outer
// divides by zero at row 300 — in its second window — when fail is set.
func windowShapes(fail bool) map[string]func() core.Node {
	gs := func() core.Node { return &core.GroupScan{Var: "g"} }
	v := core.Col("v")
	outer := func() core.Node {
		var cond core.Expr = &core.Cmp{Op: ">", L: v, R: core.LitInt(200)}
		if fail {
			cond = &core.And{Ops: []core.Expr{cond, &core.Cmp{Op: "<>",
				L: &core.BinOp{Op: "/", L: core.LitFloat(1), R: &core.BinOp{Op: "-", L: v, R: core.LitInt(300)}}, R: core.LitInt(0)}}}
		}
		return &core.Select{Input: gs(), Cond: cond}
	}
	scalar := func(fn, col string) core.Node {
		return core.NewProject(&core.AggOp{Input: gs(), Aggs: []core.AggSpec{{Fn: fn, Arg: core.Col(col), As: "a"}}},
			[]core.Expr{core.Col("a")}, []string{"x"})
	}
	abs := &core.Func{Name: "abs", Args: []core.Expr{core.Col("s")}}
	if !fail {
		return map[string]func() core.Node{
			"regathered apply outer": func() core.Node {
				return core.NewProject(&core.Select{Input: &core.Apply{Outer: outer(), Inner: scalar("avg", "v")},
					Cond: &core.Cmp{Op: "<", L: v, R: &core.BinOp{Op: "*", L: core.LitFloat(1.2), R: core.Col("x")}}},
					[]core.Expr{core.Col("s"), core.Col("x")}, []string{"s", "x"})
			},
			// The Exists finds its first row in its input's second window.
			"regathered exists": func() core.Node {
				return core.NewProject(&core.Apply{Outer: outer(), Inner: exists(gt(v, 500), false)}, []core.Expr{core.Col("s")}, nil)
			},
			"exists of an empty filter": func() core.Node {
				return &core.Apply{Outer: outer(), Inner: exists(gt(v, 1000), false)}
			},
			"not exists of an empty filter": func() core.Node {
				return core.NewProject(&core.Apply{Outer: outer(), Inner: exists(gt(v, 1000), true)}, []core.Expr{core.Col("s")}, nil)
			},
		}
	}
	return map[string]func() core.Node{
		// The tree reads the outer's second window, and fails there, before
		// the projection sees a row.
		"apply outer fails past its first window": func() core.Node {
			return core.NewProject(&core.Apply{Outer: outer(), Inner: scalar("avg", "v")}, []core.Expr{abs}, []string{"a"})
		},
		// The inner runs after the outer's first window, before its
		// second: sum(s) fails first.
		"inner fails before the outer": func() core.Node {
			return core.NewProject(&core.Apply{Outer: outer(), Inner: scalar("sum", "s")}, []core.Expr{abs}, []string{"a"})
		},
		// EXISTS and NOT EXISTS read the outer's second window, and fail
		// there, whether or not the inner yields a row.
		"exists outer fails past its first window": func() core.Node {
			return core.NewProject(&core.Apply{Outer: outer(), Inner: exists(gt(v, 1), false)}, []core.Expr{abs}, []string{"a"})
		},
		"not exists outer fails past its first window": func() core.Node {
			return core.NewProject(&core.Apply{Outer: outer(), Inner: exists(gt(v, 1), true)}, []core.Expr{abs}, []string{"a"})
		},
		// The Exists' input has no row in its first window and fails in
		// its second.
		"exists input fails in a later window": func() core.Node {
			return core.NewProject(&core.Apply{Outer: gs(), Inner: exists(&core.And{Ops: []core.Expr{gt(v, 280),
				&core.Cmp{Op: "<>", L: &core.BinOp{Op: "/", L: core.LitFloat(1), R: &core.BinOp{Op: "-", L: v, R: core.LitInt(300)}}, R: core.LitInt(0)}}}, false)},
				[]core.Expr{core.Col("s")}, nil)
		},
	}
}

// segRun is one execution of a GApply: its rows, counters and the
// inner nodes' (describe, rows, opens), in plan order, or its error.
type segRun struct {
	rows     []string
	counters Counters
	nodes    []string
	err      string
}

// runGApply executes plan at dop, with its GApply's whole inner hosted
// as one node when tree is set: built by buildBatch, re-opened per group
// and pulled through bProgram, rather than pushed through the GApply's
// own program.
func runGApply(t *testing.T, cat *storage.Catalog, plan core.Node, dop int, tree, prof bool) segRun {
	t.Helper()
	ctx := attached(cat)
	ctx.DOP = dop
	if prof {
		ctx.Prof = NewProfile()
	}
	it, err := buildBatch(plan, ctx, compileEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if g := gapplyIn(it); tree && g != nil {
		g.compile = hostWhole
		if g.exec, err = g.buildExec(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := drainBatchRows(it, ctx)
	if err != nil {
		return segRun{err: err.Error()}
	}
	out := segRun{rows: renderRows(rows), counters: ctx.Counters}
	if prof {
		core.Walk(plan, func(n core.Node) {
			s := ctx.Prof.Stats(n)
			out.nodes = append(out.nodes, fmt.Sprintf("%s rows=%d opens=%d", n.Describe(), s.Rows, s.Opens))
		})
	}
	return out
}

// gapplyIn is the GApply an iterator tree runs: the root, or an Apply's
// inner; nil when it runs none.
func gapplyIn(it BatchIterator) *bgapply {
	for {
		switch x := it.(type) {
		case *batchProbe:
			it = x.inner
		case *bJoin:
			if x.method != joinApply {
				return nil
			}
			it = x.right
		default:
			g, _ := it.(*bgapply)
			return g
		}
	}
}

// hostWhole compiles g's program with the whole inner hosted as one
// node: the iterator buildBatch builds for it, re-opened per group.
func hostWhole(g *bgapply, ctx *Context) (*segProgram, error) {
	c := newSegCompiler(g, ctx)
	root, sh, err := c.host(g.plan.Inner, nil)
	if err != nil {
		return nil, err
	}
	return c.finish(root, sh), nil
}

// segShapeCase is one plan of the segment differentials: a GApply of
// a per-group query, but for the top-level sorted outer union.
type segShapeCase struct {
	cat   *storage.Catalog
	plan  func(core.PartitionHint) core.Node
	fails bool
}

// segmentShapes are the segment differentials' plans, by name.
func segmentShapes(t testing.TB) map[string]segShapeCase {
	edge, window := edgeCatalog(t), windowCatalog(t)
	shapes := map[string]segShapeCase{
		"edge/correlated":         {edge, correlatedOverDim, false},
		"edge/sorted outer union": {edge, sortedOuterUnion, false},
	}
	for _, c := range []struct {
		name   string
		cat    *storage.Catalog
		inners map[string]func() core.Node
		fails  bool
	}{
		{"edge", edge, edgeShapes(), false},
		{"edge", edge, edgeErrorShapes(), true},
		{"window", window, windowShapes(false), false},
		{"window", window, windowShapes(true), true},
	} {
		for name, inner := range c.inners {
			shapes[c.name+"/"+name] = segShapeCase{c.cat, func(hint core.PartitionHint) core.Node { return onEdge(inner(), hint) }, c.fails}
		}
	}
	return shapes
}

var updateCounters = flag.Bool("update", false, "rewrite the counter goldens in testdata")

// TestSegmentCountersGolden pins, for every segment differential shape
// at dop 1, 2 and 8 under both partition hints, the counters and the
// per-node rows and opens of a profiled run, or its error, to a golden
// recorded from the iterator tree's own Select, Project, scalar
// aggregate, UNION ALL, Exists and Apply before programs replaced them.
// Regenerate it with -update only for a change that means to move a
// counter.
func TestSegmentCountersGolden(t *testing.T) {
	shapes := segmentShapes(t)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		c := shapes[name]
		for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
			for _, dop := range []int{1, 2, 8} {
				fmt.Fprintf(&b, "%s %v dop %d\n", name, hint, dop)
				plain := runGApply(t, c.cat, c.plan(hint), dop, false, false)
				prof := runGApply(t, c.cat, c.plan(hint), dop, false, true)
				if plain.err != prof.err || plain.counters != prof.counters {
					t.Errorf("%s/%v/dop %d: a profile changes the run: %q %+v, profiled %q %+v",
						name, hint, dop, plain.err, plain.counters, prof.err, prof.counters)
				}
				if prof.err != "" {
					fmt.Fprintf(&b, "  error: %s\n", prof.err)
					continue
				}
				fmt.Fprintf(&b, "  %+v\n", prof.counters)
				for _, n := range prof.nodes {
					fmt.Fprintf(&b, "  %s\n", n)
				}
			}
		}
	}
	checkGolden(t, "segment_counters.golden", b.String())
}

// TestSegmentMatchesTree is the segment program's differential: over
// the edge cases, at dop 1, 2 and 8 under both partition strategies, a
// GApply's program pushing each group through its sink produces the
// rows of the same inner hosted whole and pulled (hostWhole) in the same
// order, the same counters, and — profiled — the same per-operator rows
// and loops, or fails with the same error. Both run the one
// implementation of each operator, so the independent references are
// the reference interpreter, whose rows they match and which fails
// where they fail, and the counter golden (TestSegmentCountersGolden).
func TestSegmentMatchesTree(t *testing.T) {
	shapes := segmentShapes(t)
	for name, c := range shapes {
		for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
			// Both arms run the same operators, so the reference interpreter
			// is the independent check of a failure too.
			if plan := c.plan(hint); !c.fails {
				checkOracle(t, plan, c.cat, mustRun(t, plan, NewContext(c.cat, new(Store))).Rows)
			} else if _, err := oracle.Eval(plan, c.cat); err == nil {
				t.Fatalf("%s/%v: the reference interpreter does not fail", name, hint)
			}
			for _, dop := range []int{1, 2, 8} {
				for _, prof := range []bool{false, true} {
					seg := runGApply(t, c.cat, c.plan(hint), dop, false, prof)
					tree := runGApply(t, c.cat, c.plan(hint), dop, true, prof)
					what := fmt.Sprintf("%s/%v/dop %d/profiled %v", name, hint, dop, prof)
					if seg.err != tree.err {
						t.Fatalf("%s: errors differ:\nsegment %q\ntree    %q", what, seg.err, tree.err)
					}
					if (seg.err != "") != c.fails {
						t.Fatalf("%s: error %q, want failure %v", what, seg.err, c.fails)
					}
					if !reflect.DeepEqual(seg.rows, tree.rows) {
						t.Fatalf("%s: rows differ:\nsegment %v\ntree    %v", what, seg.rows, tree.rows)
					}
					if seg.counters != tree.counters {
						t.Errorf("%s: counters differ:\nsegment %+v\ntree    %+v", what, seg.counters, tree.counters)
					}
					if !reflect.DeepEqual(seg.nodes, tree.nodes) {
						t.Errorf("%s: profiles differ:\nsegment %v\ntree    %v", what, seg.nodes, tree.nodes)
					}
				}
			}
		}
	}
}

// TestUnreadInvariantTalliesNothing: an invariant subtree no group
// reads — its Apply's outer is empty in every group — is never built:
// it tallies no build, no scan and no profile, and charges the
// partition budget nothing beyond the partition phase's own rows, at
// every dop alike.
func TestUnreadInvariantTalliesNothing(t *testing.T) {
	cat := edgeCatalog(t)
	count := &core.AggOp{Input: dimScan(), Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	inner := &core.Apply{Outer: &core.Select{Input: &core.GroupScan{Var: "g"}, Cond: gt(core.Col("v"), 100000)}, Inner: count}
	var serial Counters
	var serialBytes int64
	for _, dop := range []int{1, 8} {
		ctx := NewContext(cat, new(Store))
		ctx.DOP = dop
		ctx.Prof = NewProfile()
		// The partition meter counts only under a budget.
		ctx.Budget = &Budget{MaxPartitionBytes: 1 << 40}
		if res := mustRun(t, onEdge(inner, core.PartitionHash), ctx); len(res.Rows) != 0 {
			t.Fatalf("dop %d: %d rows, want none", dop, len(res.Rows))
		}
		got, bytes := ctx.Counters, ctx.Budget.partitionBytes.Load()
		if dop > 1 && got.ParallelGroupExecs == 0 {
			t.Fatalf("dop %d ran serially", dop)
		}
		got.SerialGroupExecs, got.ParallelGroupExecs = 0, 0
		if dop == 1 {
			serial, serialBytes = got, bytes
		} else if got != serial || bytes != serialBytes {
			t.Errorf("dop %d: counters %+v, %d partition bytes; serially %+v, %d bytes", dop, got, bytes, serial, serialBytes)
		}
		if got.SpoolBuilds != 0 || ctx.Prof.Stats(count) != (NodeStats{}) {
			t.Errorf("dop %d: %d builds, profile %+v", dop, got.SpoolBuilds, ctx.Prof.Stats(count))
		}
	}
}

// TestInvariantBuildUnderPool: at dop > 1 an invariant subtree is
// built by whichever worker reads it first, under the pool's derived
// context, so shutting the pool down (a Close from an early-stopping
// parent) interrupts a build in progress instead of waiting for it.
func TestInvariantBuildUnderPool(t *testing.T) {
	cat := edgeCatalog(t)
	count := &core.AggOp{Input: dimScan(), Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	inner := &core.Apply{Outer: &core.GroupScan{Var: "g"}, Inner: count}
	ctx := NewContext(cat, new(Store))
	ctx.Ctx, ctx.DOP = context.Background(), 8
	it, err := BuildBatch(onEdge(inner, core.PartitionHash), ctx)
	defer ctx.ReleaseArena()
	if err != nil {
		t.Fatal(err)
	}
	g, ok := it.(*bgapply)
	if !ok || len(g.invs) != 1 {
		t.Fatalf("built %T, want a GApply with one invariant subtree", it)
	}
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	if g.par == nil {
		t.Fatal("ran serially")
	}
	build := g.invs[0].ctx.Ctx
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-build.Done():
	default:
		t.Fatal("the pool's shutdown does not reach the invariant's build context")
	}
}

// TestSegmentOrdersCounters pins the counters of the orders shape, by
// hand: 1 001 groups of 3 rows, each evaluating two branches whose
// Apply reads its outer (3 rows) and evaluates the average (3 more)
// once, serving the other two rows from that result.
func TestSegmentOrdersCounters(t *testing.T) {
	const groups, per = 1001, 3
	cat := itemsCatalog(t, groups, per)
	for _, dop := range []int{1, 2, 8} {
		ctx := NewContext(cat, new(Store))
		ctx.DOP = dop
		res := mustRun(t, ordersGApply(cat, nil), ctx)
		if len(res.Rows) != 2*groups {
			t.Fatalf("dop %d: %d rows, want %d", dop, len(res.Rows), 2*groups)
		}
		want := Counters{
			RowsScanned: groups * per, GroupScanRows: 2 * 2 * per * groups,
			Groups: groups, InnerExecs: groups,
			ApplyExecs: 2 * groups, ApplyCacheHits: 2 * (per - 1) * groups,
		}
		if dop == 1 {
			want.SerialGroupExecs = groups
		} else {
			want.ParallelGroupExecs = groups
		}
		if ctx.Counters != want {
			t.Errorf("dop %d: counters %+v, want %+v", dop, ctx.Counters, want)
		}
	}
}

// TestSegmentPartitionBudget: the partition phase's byte meter kills a
// GApply on the row that crosses the limit, at every dop.
func TestSegmentPartitionBudget(t *testing.T) {
	cat := itemsCatalog(t, 200, 4)
	tab, err := cat.Lookup("items")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 10000
	var used int64
	for _, r := range tab.Rows {
		if used += int64(r.Bytes()); used > limit {
			break
		}
	}
	for _, dop := range []int{1, 8} {
		ctx := NewContext(cat, new(Store))
		ctx.DOP = dop
		ctx.Budget = &Budget{MaxPartitionBytes: limit}
		ga := ordersGApply(cat, nil)
		_, err := Run(ga, ctx)
		var re *ResourceError
		if !errors.As(err, &re) || re.Limit != LimitPartitionBytes || re.Used != used {
			t.Errorf("dop %d: err = %v, want a partition-bytes kill at %d bytes", dop, err, used)
		}
	}
}

// TestSegmentOutputRowsTruncation: a cursor over a GApply
// delivers exactly MaxOutputRows rows — the unbudgeted run's first ones,
// the last batch truncated — then the budget error.
func TestSegmentOutputRowsTruncation(t *testing.T) {
	cat := itemsCatalog(t, 400, 3)
	want := renderRows(mustRun(t, ordersGApply(cat, nil), NewContext(cat, new(Store))).Rows)
	const limit = 300
	for _, dop := range []int{1, 8} {
		ctx := NewContext(cat, new(Store))
		ctx.DOP = dop
		ctx.Budget = &Budget{MaxOutputRows: limit}
		cur, err := Start(ordersGApply(cat, nil), ctx)
		if err != nil {
			t.Fatal(err)
		}
		var got []types.Row
		for {
			b, err := cur.NextBatch()
			if err != nil {
				var re *ResourceError
				if !errors.As(err, &re) || re.Limit != LimitOutputRows || re.Used != limit+1 {
					t.Errorf("dop %d: err = %v, want the output-row budget error", dop, err)
				}
				break
			}
			if b == nil {
				t.Fatalf("dop %d: stream ended without the budget error", dop)
			}
			got = b.AppendRows(got)
		}
		cur.Close()
		if r := renderRows(got); !reflect.DeepEqual(r, want[:limit]) {
			t.Errorf("dop %d: delivered %d rows, not the first %d of the unbudgeted run", dop, len(r), limit)
		}
	}
}

// TestPartitionStrategiesAgree: hash partitioning and the sort-hinted
// GApply's enforcer sort under the run cut hold every input row itself,
// not a copy, and form the same groups (hash in first-appearance order,
// sort in key order), over hostile keys.
func TestPartitionStrategiesAgree(t *testing.T) {
	cat := edgeCatalog(t)
	tab, err := cat.Lookup("edge")
	if err != nil {
		t.Fatal(err)
	}
	in := tab.Rows
	groupsOf := func(name string) map[string][]string {
		out := make(map[string][]string)
		n := 0
		err := partitioners[name](in, []int{0}, attached(cat), nil, func(g []types.Row) {
			key := g[0].Key([]int{0})
			if _, dup := out[key]; dup {
				t.Fatalf("%s: key %v split into two groups", name, g[0][0])
			}
			out[key] = renderRows(g)
			n += len(g)
			for _, r := range g {
				if !aliases(r, in) {
					t.Fatalf("%s: partition holds a copy of row %v instead of the row itself", name, r)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(in) {
			t.Fatalf("%s: %d rows partitioned, want %d", name, n, len(in))
		}
		return out
	}
	if !reflect.DeepEqual(groupsOf("sort"), groupsOf("hash")) {
		t.Error("sort and hash partitioning form different groups")
	}
}

// joinedCatalog is itemsCatalog's 500 keys of 80 items plus tags(t,
// label), one row per key, so that joinedOuter, items ⋈ tags on k = t,
// is a 40 000-row hash-join emission in 500 groups: Q2's outer at sf
// 0.05.
func joinedCatalog(tb testing.TB) *storage.Catalog {
	tb.Helper()
	cat := itemsCatalog(tb, 500, 80)
	tags, err := cat.Create(&schema.TableDef{Name: "tags", Schema: schema.New(
		schema.Column{Name: "t", Type: types.KindInt},
		schema.Column{Name: "label", Type: types.KindString},
	)})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tags.Append(types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("tag#%d", i))}); err != nil {
			tb.Fatal(err)
		}
	}
	return cat
}

func joinedOuter(cat *storage.Catalog) core.Node {
	scan := func(name string) core.Node {
		tab, err := cat.Lookup(name)
		if err != nil {
			panic(err)
		}
		return &core.Scan{Table: name, Def: tab.Def}
	}
	return &core.Join{Left: scan("items"), Right: scan("tags"), Cond: &core.Cmp{Op: "=", L: core.Col("k"), R: core.Col("t")}}
}

// allocated returns the bytes and the allocation count of one run,
// averaged over a few runs after a warm-up.
func allocated(run func()) (bytes, count float64) {
	const runs = 4
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestPartitionAllocsPerRow pins what the hash partition phase of a
// GApply over a 40 000-row join allocates beyond the join's own
// emission: the row headers and group ids, never the row values. Each
// arm runs on one store, warmed by allocated's first run, as a
// database's executions are, so the values' storage shows on the
// stores' Value shelves rather than in the allocations: the two arms
// must shelve the same Value slabs.
func TestPartitionAllocsPerRow(t *testing.T) {
	const rows, perRow = 40000, 64
	cat := joinedCatalog(t)
	joinStore, gapplyStore := new(Store), new(Store)
	join, _ := allocated(func() {
		ctx := NewContext(cat, joinStore)
		it, err := BuildBatch(joinedOuter(cat), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n := drainCount(t, it); n != rows {
			t.Fatalf("join emits %d rows, want %d", n, rows)
		}
		ctx.ReleaseArena()
	})
	gapply, _ := allocated(func() {
		ctx := NewContext(cat, gapplyStore)
		ctx.DOP = 1
		count := &core.AggOp{Input: &core.GroupScan{Var: "g"}, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
		it, err := BuildBatch(core.NewGApply(joinedOuter(cat), []*core.ColRef{core.Col("k")}, "g", count), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(); err != nil { // the partition phase, at dop 1
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		ctx.ReleaseArena()
	})
	if j, g := shelved(&joinStore.vals), shelved(&gapplyStore.vals); g != j {
		t.Errorf("partition phase takes Value slabs: %d B against the join's %d B", g, j)
	}
	per := (gapply - join) / rows
	if per > perRow {
		t.Errorf("partition phase allocates %.0f B per outer row beyond the join's emission, want ≤ %d", per, perRow)
	}
	t.Logf("%.1f B per outer row (join %.0f B, gapply %.0f B)", per, join, gapply)
}

// shelved returns the bytes of the free slabs on sh.
func shelved[T any](sh *shelf[T]) (bytes int) {
	for _, class := range sh {
		for _, s := range class {
			bytes += int(unsafe.Sizeof(s[0])) * cap(s)
		}
	}
	return bytes
}

// TestParallelPhaseAllocs pins the parallel execution phase's cost to
// per-worker state: a Q2-shaped GApply (40 000 rows, 500 groups, 125
// tasks) allocates at dop 2 what it does at dop 1, plus each worker's
// compile of its private per-group program, plus a few dozen
// allocations for the pool — nothing per task. A program's compile is
// itself bounded: each node's schema is derived once, from its input's.
func TestParallelPhaseAllocs(t *testing.T) {
	const slack, perProgram = 64, 60
	cat := joinedCatalog(t)
	q2 := func() *core.GApply {
		return core.NewGApply(joinedOuter(cat), []*core.ColRef{core.Col("k")}, "g", ordersInner(nil))
	}
	mallocs := func(dop int) float64 {
		_, n := allocated(func() {
			ctx := NewContext(cat, new(Store))
			ctx.DOP = dop
			if res := mustRun(t, q2(), ctx); len(res.Rows) != 1000 {
				t.Fatalf("dop %d: %d rows, want 1000", dop, len(res.Rows))
			}
		})
		return n
	}
	it, err := BuildBatch(q2(), NewContext(cat, new(Store)))
	if err != nil {
		t.Fatal(err)
	}
	st := new(Store)
	_, build := allocated(func() {
		if _, err := it.(*bgapply).buildExec(NewContext(cat, st)); err != nil {
			t.Fatal(err)
		}
	})
	if build > perProgram {
		t.Errorf("compiling a worker's program makes %.0f allocations, want at most %d", build, perProgram)
	}
	one, two := mallocs(1), mallocs(2)
	if two > one+2*build+slack {
		t.Errorf("dop 2 makes %.0f allocations, dop 1 %.0f and a worker's program %.0f: want at most %d more than dop 1 and two programs",
			two, one, build, slack)
	}
	t.Logf("dop 1: %.0f allocations, dop 2: %.0f, one program: %.0f", one, two, build)
}

// aliases reports whether r is one of rows: the same values, not equal
// ones.
func aliases(r types.Row, rows []types.Row) bool {
	for _, in := range rows {
		if len(r) > 0 && len(in) > 0 && &r[0] == &in[0] {
			return true
		}
	}
	return false
}

// itemsCatalog holds items(k, name, price): groups keys of perGroup rows
// each, the keys interleaved the way a join delivers them, plus a
// one-row table unit(u) for inners that host a join.
func itemsCatalog(tb testing.TB, groups, perGroup int) *storage.Catalog {
	tb.Helper()
	cat := storage.NewCatalog()
	items, err := cat.Create(&schema.TableDef{Name: "items", Schema: schema.New(
		schema.Column{Name: "k", Type: types.KindInt},
		schema.Column{Name: "name", Type: types.KindString},
		schema.Column{Name: "price", Type: types.KindFloat},
	)})
	if err != nil {
		tb.Fatal(err)
	}
	n := groups * perGroup
	for i := 0; i < n; i++ {
		k := (i * 7919) % groups
		r := types.Row{types.NewInt(int64(k)), types.NewString("item"), types.NewFloat(float64((i * 37) % 1000))}
		if err := items.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	unit, err := cat.Create(&schema.TableDef{Name: "unit", Schema: schema.New(schema.Column{Name: "u", Type: types.KindInt})})
	if err != nil {
		tb.Fatal(err)
	}
	if err := unit.Append(types.Row{types.NewInt(1)}); err != nil {
		tb.Fatal(err)
	}
	return cat
}

// ordersGApply is the benchmark's orders view over items: per key, how
// many of the group's items cost at least, and less than, the group's
// average price — Q2's shape over small groups. A non-nil extra is
// joined into each branch's Apply outer, which keeps the rows but makes
// the program host the join.
func ordersGApply(cat *storage.Catalog, extra func() core.Node) *core.GApply {
	tab, err := cat.Lookup("items")
	if err != nil {
		panic(err)
	}
	return core.NewGApply(&core.Scan{Table: "items", Def: tab.Def}, []*core.ColRef{core.Col("k")}, "g", ordersInner(extra))
}

// ordersInner is ordersGApply's per-group query over $g, which needs
// only a price column.
func ordersInner(extra func() core.Node) core.Node {
	gs := func() core.Node { return &core.GroupScan{Var: "g"} }
	branch := func(tag int64, op string) core.Node {
		var outer core.Node = gs()
		if extra != nil {
			outer = &core.Join{Left: outer, Right: extra()}
		}
		avg := core.NewProject(
			&core.AggOp{Input: gs(), Aggs: []core.AggSpec{{Fn: "avg", Arg: core.Col("price"), As: "a"}}},
			[]core.Expr{core.Col("a")}, []string{"gavg"})
		sel := &core.Select{
			Input: &core.Apply{Outer: outer, Inner: avg},
			Cond:  &core.Cmp{Op: op, L: core.Col("price"), R: core.Col("gavg")},
		}
		agg := &core.AggOp{Input: sel, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "c"}}}
		cols := []core.Expr{core.LitInt(tag), core.Col("c"), &core.Lit{}}
		if tag == 1 {
			cols[1], cols[2] = cols[2], cols[1]
		}
		return core.NewProject(agg, cols, []string{"tag", "above", "below"})
	}
	return &core.UnionAll{Inputs: []core.Node{branch(0, ">="), branch(1, "<")}}
}

func unitScan(cat *storage.Catalog) func() core.Node {
	return func() core.Node {
		tab, err := cat.Lookup("unit")
		if err != nil {
			panic(err)
		}
		return &core.Scan{Table: "unit", Def: tab.Def}
	}
}

// BenchmarkGApplyGroups runs per-group queries over 10 000 groups of 4
// rows — scan, partition and execution phase: the orders shape, whose
// program is all native nodes, at dop 1 and on two workers; the same
// joined to a one-row table, whose program hosts the join (hosted); and
// xml_suppliers' group selection, a projection of the group's rows if
// it holds one above a price (exists); all at dop 1 — and the orders
// shape over 500 groups of 80 rows (wide), Q2's groups at sf 0.05, at
// dop 1. Per group: ns end to end, and exec-ns the execution phase
// alone, the drain after Open has partitioned the outer.
func BenchmarkGApplyGroups(b *testing.B) {
	for _, tc := range []struct {
		name        string
		groups, per int
		hosted      bool
		dop         int
	}{
		{"lowered", 10000, 4, false, 1},
		{"dop2", 10000, 4, false, 2},
		{"hosted", 10000, 4, true, 1},
		{"exists", 10000, 4, false, 1},
		{"wide", 500, 80, false, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cat := itemsCatalog(b, tc.groups, tc.per)
			var extra func() core.Node
			if tc.hosted {
				extra = unitScan(cat)
			}
			ga := ordersGApply(cat, extra)
			if tc.name == "exists" {
				ga = core.NewGApply(ga.Outer, ga.GroupCols, "g", suppliersInner())
			}
			ctx := NewContext(cat, new(Store))
			ctx.DOP = tc.dop
			it, err := BuildBatch(ga, ctx)
			if err != nil {
				b.Fatal(err)
			}
			if hosted := it.(*bgapply).exec.hosted(); (len(hosted) > 0) != tc.hosted {
				b.Fatalf("hosts %v", nodeKinds(hosted))
			}
			drainCount(b, it)
			var exec time.Duration
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := it.Open(); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				for {
					out, err := it.NextBatch()
					if err != nil {
						b.Fatal(err)
					}
					if out == nil {
						break
					}
				}
				exec += time.Since(start)
				if err := it.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N * tc.groups)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/group")
			b.ReportMetric(float64(exec.Nanoseconds())/total, "exec-ns/group")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/group")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/group")
		})
	}
}

// suppliersInner is xml_suppliers' per-group query over items: the
// group's rows, tagged, when the group holds an item priced above 500.
func suppliersInner() core.Node {
	gs := func() core.Node { return &core.GroupScan{Var: "g"} }
	qualifies := &core.Exists{Input: core.NewProject(&core.Select{Input: gs(),
		Cond: &core.Cmp{Op: ">", L: core.Col("price"), R: core.LitInt(500)}}, []core.Expr{core.Col("k")}, nil)}
	return core.NewProject(&core.Apply{Outer: gs(), Inner: qualifies},
		[]core.Expr{core.LitInt(0), core.Col("name"), core.Col("price")}, nil)
}

// BenchmarkPartition partitions 40 000 interleaved rows into 10 000
// groups by hashing, and by sorting then cutting the sorted runs, as a
// sort-hinted GApply does, and cuts a clustered copy of them into the
// same groups as a streaming GApply does, per row, each run with fresh
// scratch, as a query's first Open on a new database has: an arena of a
// new store. The recycled arm hashes with an arena of one store attached
// and released each run, as a request does.
func BenchmarkPartition(b *testing.B) {
	cat := itemsCatalog(b, 10000, 4)
	tab, err := cat.Lookup("items")
	if err != nil {
		b.Fatal(err)
	}
	clustered := clusteredRows(cat)
	for _, name := range []string{"hash", "hash/recycled", "sort", "streamed"} {
		b.Run(name, func(b *testing.B) {
			rows := tab.Rows
			part := partitioners[strings.TrimSuffix(name, "/recycled")]
			if name == "streamed" {
				rows = clustered
				part = func(rows []types.Row, ords []int, ctx *Context, plan *core.GApply, visit func([]types.Row)) error {
					return eachCut(cutter(rowSource(rows), ords, ctx, plan), visit)
				}
			}
			st := new(Store)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if name != "hash/recycled" {
					st = new(Store)
				}
				ctx := NewContext(cat, st)
				ctx.attachArena()
				if err := part(rows, []int{0}, ctx, nil, func([]types.Row) {}); err != nil {
					b.Fatal(err)
				}
				ctx.ReleaseArena()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N * len(rows))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/row")
		})
	}
}
