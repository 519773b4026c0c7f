package exec

import (
	"strings"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/oracle"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// fixture builds a small catalog:
//
//	supplier: (1, alpha) (2, beta) (3, gamma)        — gamma supplies nothing
//	part:     (1, bolt, 10, Brand#A) (2, nut, 20, Brand#B)
//	          (3, washer, 30, Brand#A) (4, screw, 40, Brand#B)
//	partsupp: s1 → p1, p2, p3;  s2 → p3, p4
func fixture(t *testing.T) *Context {
	t.Helper()
	return NewContext(newTestCatalog(t), new(Store))
}

// attached returns a context over cat with an arena of a new store
// attached, as BuildBatch leaves one, for tests that build or drive
// operators directly.
func attached(cat *storage.Catalog) *Context {
	ctx := NewContext(cat, new(Store))
	ctx.attachArena()
	return ctx
}

func newTestCatalog(t *testing.T) *catalogT {
	t.Helper()
	c := buildFixtureCatalog()
	return c
}

func scan(ctx *Context, table string) *core.Scan {
	tab, err := ctx.Catalog.Lookup(table)
	if err != nil {
		panic(err)
	}
	return &core.Scan{Table: table, Def: tab.Def}
}

// joined returns partsupp ⋈ part on partkey.
func joined(ctx *Context) *core.Join {
	return &core.Join{
		Left:  scan(ctx, "partsupp"),
		Right: scan(ctx, "part"),
		Cond:  &core.Cmp{Op: "=", L: core.QCol("partsupp", "ps_partkey"), R: core.QCol("part", "p_partkey")},
	}
}

func mustRun(t *testing.T, n core.Node, ctx *Context) *Result {
	t.Helper()
	res, err := Run(n, ctx)
	if err != nil {
		t.Fatalf("Run: %v\nplan:\n%s", err, core.Format(n))
	}
	return res
}

// checkOracle fails the test unless rows match the reference
// interpreter's evaluation of plan over cat (see internal/oracle).
func checkOracle(t *testing.T, plan core.Node, cat *storage.Catalog, rows []types.Row) {
	t.Helper()
	want, err := oracle.Expect(plan, cat)
	if err != nil {
		t.Fatalf("oracle: %v\nplan:\n%s", err, core.Format(plan))
	}
	if err := want.Check(rows); err != nil {
		t.Fatalf("%v\nplan:\n%s", err, core.Format(plan))
	}
}

func TestTableScan(t *testing.T) {
	ctx := fixture(t)
	res := mustRun(t, scan(ctx, "part"), ctx)
	if len(res.Rows) != 4 {
		t.Fatalf("part scan = %d rows", len(res.Rows))
	}
	if ctx.Counters.RowsScanned != 4 {
		t.Errorf("RowsScanned = %d", ctx.Counters.RowsScanned)
	}
	if res.Schema.Cols[0].QualifiedName() != "part.p_partkey" {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestSelectAndProject(t *testing.T) {
	ctx := fixture(t)
	plan := core.NewProject(
		&core.Select{
			Input: scan(ctx, "part"),
			Cond:  &core.Cmp{Op: ">", L: core.Col("p_retailprice"), R: core.LitFloat(15)},
		},
		[]core.Expr{core.Col("p_name"), &core.BinOp{Op: "*", L: core.Col("p_retailprice"), R: core.LitInt(2)}},
		[]string{"", "twice"},
	)
	res := mustRun(t, plan, ctx)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "nut" || res.Rows[0][1].Float() != 40 {
		t.Errorf("first row = %v", res.Rows[0])
	}
}

func TestSelectNullSemantics(t *testing.T) {
	ctx := fixture(t)
	// p_retailprice <> p_retailprice is UNKNOWN only for NULL, false
	// otherwise, so nothing qualifies; NOT of it qualifies all non-NULL.
	sel := &core.Select{
		Input: scan(ctx, "part"),
		Cond:  &core.Cmp{Op: "<>", L: core.Col("p_retailprice"), R: core.Col("p_retailprice")},
	}
	if res := mustRun(t, sel, ctx); len(res.Rows) != 0 {
		t.Errorf("x <> x selected %d rows", len(res.Rows))
	}
}

func TestHashJoin(t *testing.T) {
	ctx := fixture(t)
	res := mustRun(t, joined(ctx), ctx)
	if len(res.Rows) != 5 {
		t.Fatalf("join rows = %d, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].Int() != r[2].Int() { // ps_partkey = p_partkey
			t.Errorf("join produced mismatched row %v", r)
		}
	}
	if ctx.Counters.JoinProbes != 5 {
		t.Errorf("JoinProbes = %d", ctx.Counters.JoinProbes)
	}
}

func TestNestedLoopsJoinMatchesHash(t *testing.T) {
	ctx := fixture(t)
	h := joined(ctx)
	hres := mustRun(t, h, ctx)
	n := joined(ctx)
	n.Method = core.JoinNestedLoops
	nres := mustRun(t, n, ctx)
	if len(hres.Rows) != len(nres.Rows) {
		t.Fatalf("hash %d vs nl %d rows", len(hres.Rows), len(nres.Rows))
	}
	// Same multiset of rows.
	seen := make(map[string]int)
	for _, r := range hres.Rows {
		seen[r.KeyAll()]++
	}
	for _, r := range nres.Rows {
		seen[r.KeyAll()]--
	}
	for k, v := range seen {
		if v != 0 {
			t.Errorf("row multiset mismatch at %q: %d", k, v)
		}
	}
}

func TestLeftOuterJoin(t *testing.T) {
	ctx := fixture(t)
	j := &core.Join{
		Kind:  core.LeftOuterJoin,
		Left:  scan(ctx, "supplier"),
		Right: scan(ctx, "partsupp"),
		Cond:  &core.Cmp{Op: "=", L: core.QCol("supplier", "s_suppkey"), R: core.QCol("partsupp", "ps_suppkey")},
	}
	res := mustRun(t, j, ctx)
	// s1 has 3 partsupps, s2 has 2, s3 none but is padded: 6 rows.
	if len(res.Rows) != 6 {
		t.Fatalf("left outer rows = %d, want 6", len(res.Rows))
	}
	padded := 0
	for _, r := range res.Rows {
		if r[2].IsNull() {
			padded++
			if r[0].Int() != 3 {
				t.Errorf("padded row for supplier %v, want 3", r[0])
			}
		}
	}
	if padded != 1 {
		t.Errorf("padded rows = %d", padded)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	ctx := fixture(t)
	// Add a partsupp row with NULL partkey; inner join must drop it.
	ps, _ := ctx.Catalog.Lookup("partsupp")
	ps.Rows = append(ps.Rows, types.Row{types.Null, types.NewInt(1)})
	res := mustRun(t, joined(ctx), ctx)
	if len(res.Rows) != 5 {
		t.Errorf("NULL key row joined: %d rows", len(res.Rows))
	}
}

func TestGroupBy(t *testing.T) {
	ctx := fixture(t)
	g := &core.GroupBy{
		Input:     joined(ctx),
		GroupCols: []*core.ColRef{core.Col("ps_suppkey")},
		Aggs: []core.AggSpec{
			{Fn: "avg", Arg: core.Col("p_retailprice"), As: "avgprice"},
			{Fn: "count", Star: true, As: "n"},
			{Fn: "min", Arg: core.Col("p_name"), As: "first_name"},
		},
	}
	res := mustRun(t, g, ctx)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	byKey := map[int64]types.Row{}
	for _, r := range res.Rows {
		byKey[r[0].Int()] = r
	}
	if r := byKey[1]; r[1].Float() != 20 || r[2].Int() != 3 || r[3].Str() != "bolt" {
		t.Errorf("supplier 1 aggregates = %v", r)
	}
	if r := byKey[2]; r[1].Float() != 35 || r[2].Int() != 2 {
		t.Errorf("supplier 2 aggregates = %v", r)
	}
}

func TestGroupByEmptyInputIsEmpty(t *testing.T) {
	ctx := fixture(t)
	g := &core.GroupBy{
		Input: &core.Select{
			Input: scan(ctx, "part"),
			Cond:  &core.Cmp{Op: ">", L: core.Col("p_retailprice"), R: core.LitFloat(1e9)},
		},
		GroupCols: []*core.ColRef{core.Col("p_brand")},
		Aggs:      []core.AggSpec{{Fn: "count", Star: true}},
	}
	if res := mustRun(t, g, ctx); len(res.Rows) != 0 {
		t.Errorf("groupby of empty input = %v", res.Rows)
	}
}

func TestScalarAggEmptyInput(t *testing.T) {
	ctx := fixture(t)
	a := &core.AggOp{
		Input: &core.Select{
			Input: scan(ctx, "part"),
			Cond:  &core.Cmp{Op: ">", L: core.Col("p_retailprice"), R: core.LitFloat(1e9)},
		},
		Aggs: []core.AggSpec{
			{Fn: "count", Star: true, As: "n"},
			{Fn: "avg", Arg: core.Col("p_retailprice"), As: "a"},
			{Fn: "sum", Arg: core.Col("p_retailprice"), As: "s"},
			{Fn: "min", Arg: core.Col("p_retailprice"), As: "lo"},
		},
	}
	res := mustRun(t, a, ctx)
	if len(res.Rows) != 1 {
		t.Fatalf("scalar agg of empty input must emit one row, got %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].Int() != 0 || !r[1].IsNull() || !r[2].IsNull() || !r[3].IsNull() {
		t.Errorf("empty-input aggregates = %v (want 0, NULL, NULL, NULL)", r)
	}
}

func TestAggregateDistinctAndNulls(t *testing.T) {
	ctx := fixture(t)
	part, _ := ctx.Catalog.Lookup("part")
	part.Rows = append(part.Rows, types.Row{types.NewInt(5), types.NewString("rivet"), types.Null, types.NewString("Brand#A")})
	a := &core.AggOp{
		Input: scan(ctx, "part"),
		Aggs: []core.AggSpec{
			{Fn: "count", Star: true, As: "all"},
			{Fn: "count", Arg: core.Col("p_retailprice"), As: "nonnull"},
			{Fn: "count", Arg: core.Col("p_brand"), Distinct: true, As: "brands"},
			{Fn: "sum", Arg: core.Col("p_retailprice"), As: "total"},
		},
	}
	res := mustRun(t, a, ctx)
	r := res.Rows[0]
	if r[0].Int() != 5 {
		t.Errorf("count(*) = %v", r[0])
	}
	if r[1].Int() != 4 {
		t.Errorf("count(col) must skip NULL: %v", r[1])
	}
	if r[2].Int() != 2 {
		t.Errorf("count(distinct brand) = %v", r[2])
	}
	if r[3].Float() != 100 {
		t.Errorf("sum = %v", r[3])
	}
}

func TestSumIntegerStaysInteger(t *testing.T) {
	ctx := fixture(t)
	a := &core.AggOp{
		Input: scan(ctx, "partsupp"),
		Aggs:  []core.AggSpec{{Fn: "sum", Arg: core.Col("ps_partkey"), As: "s"}},
	}
	res := mustRun(t, a, ctx)
	if res.Rows[0][0].K != types.KindInt || res.Rows[0][0].Int() != 13 {
		t.Errorf("sum of int column = %v", res.Rows[0][0])
	}
}

func TestOrderBy(t *testing.T) {
	ctx := fixture(t)
	o := &core.OrderBy{
		Input: scan(ctx, "part"),
		Keys:  []core.OrderKey{{Expr: core.Col("p_retailprice"), Desc: true}},
	}
	res := mustRun(t, o, ctx)
	prices := make([]float64, len(res.Rows))
	for i, r := range res.Rows {
		prices[i] = r[2].Float()
	}
	for i := 1; i < len(prices); i++ {
		if prices[i] > prices[i-1] {
			t.Fatalf("not descending: %v", prices)
		}
	}
}

func TestDistinct(t *testing.T) {
	ctx := fixture(t)
	d := &core.Distinct{Input: core.ProjectCols(joined(ctx), []*core.ColRef{core.Col("ps_suppkey")})}
	res := mustRun(t, d, ctx)
	if len(res.Rows) != 2 {
		t.Errorf("distinct suppliers = %d", len(res.Rows))
	}
}

func TestUnionAll(t *testing.T) {
	ctx := fixture(t)
	p := core.ProjectCols(scan(ctx, "part"), []*core.ColRef{core.Col("p_partkey")})
	u := &core.UnionAll{Inputs: []core.Node{p, p, p}}
	res := mustRun(t, u, ctx)
	if len(res.Rows) != 12 {
		t.Errorf("union all = %d rows", len(res.Rows))
	}
	// Arity mismatch is rejected at build time.
	bad := &core.UnionAll{Inputs: []core.Node{p, scan(ctx, "part")}}
	if _, err := Run(bad, ctx); err == nil {
		t.Error("union arity mismatch must fail")
	}
}

func TestExistsOperator(t *testing.T) {
	ctx := fixture(t)
	nonEmpty := &core.Exists{Input: scan(ctx, "part")}
	res := mustRun(t, nonEmpty, ctx)
	if len(res.Rows) != 1 || len(res.Rows[0]) != 0 {
		t.Errorf("exists(nonempty) = %v", res.Rows)
	}
	empty := &core.Exists{Input: &core.Select{
		Input: scan(ctx, "part"),
		Cond:  &core.Cmp{Op: "<", L: core.Col("p_retailprice"), R: core.LitFloat(0)},
	}}
	if res := mustRun(t, empty, ctx); len(res.Rows) != 0 {
		t.Errorf("exists(empty) = %v", res.Rows)
	}
	negated := &core.Exists{Negated: true, Input: empty.Input}
	if res := mustRun(t, negated, ctx); len(res.Rows) != 1 {
		t.Errorf("not exists(empty) = %v", res.Rows)
	}
}

func TestApplyCorrelated(t *testing.T) {
	ctx := fixture(t)
	// For each supplier, count its partsupp rows via a correlated inner.
	inner := &core.AggOp{
		Input: &core.Select{
			Input: scan(ctx, "partsupp"),
			Cond:  &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Table: "supplier", Name: "s_suppkey"}},
		},
		Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}},
	}
	a := &core.Apply{Outer: scan(ctx, "supplier"), Inner: inner}
	res := mustRun(t, a, ctx)
	if len(res.Rows) != 3 {
		t.Fatalf("apply rows = %d", len(res.Rows))
	}
	want := map[int64]int64{1: 3, 2: 2, 3: 0}
	for _, r := range res.Rows {
		if r[2].Int() != want[r[0].Int()] {
			t.Errorf("supplier %v count = %v, want %v", r[0], r[2], want[r[0].Int()])
		}
	}
	if ctx.Counters.ApplyExecs != 3 {
		t.Errorf("ApplyExecs = %d (correlated must re-execute per row)", ctx.Counters.ApplyExecs)
	}
	if ctx.Counters.ApplyCacheHits != 0 {
		t.Errorf("correlated inner must not be cached")
	}
}

func TestApplyUncorrelatedCached(t *testing.T) {
	ctx := fixture(t)
	inner := &core.AggOp{
		Input: scan(ctx, "part"),
		Aggs:  []core.AggSpec{{Fn: "avg", Arg: core.Col("p_retailprice"), As: "a"}},
	}
	a := &core.Apply{Outer: scan(ctx, "supplier"), Inner: inner}
	res := mustRun(t, a, ctx)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[2].Float() != 25 {
			t.Errorf("avg = %v", r[2])
		}
	}
	if ctx.Counters.ApplyExecs != 1 {
		t.Errorf("ApplyExecs = %d, want 1 (uncorrelated cache)", ctx.Counters.ApplyExecs)
	}
	if ctx.Counters.ApplyCacheHits != 2 {
		t.Errorf("ApplyCacheHits = %d, want 2", ctx.Counters.ApplyCacheHits)
	}
}

func TestApplyExistsSelectsRows(t *testing.T) {
	ctx := fixture(t)
	// Suppliers that supply some part: Apply + Exists keeps the outer row
	// exactly when the inner is nonempty (S × {φ} = S).
	inner := &core.Exists{Input: &core.Select{
		Input: scan(ctx, "partsupp"),
		Cond:  &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Table: "supplier", Name: "s_suppkey"}},
	}}
	a := &core.Apply{Outer: scan(ctx, "supplier"), Inner: inner}
	res := mustRun(t, a, ctx)
	if len(res.Rows) != 2 {
		t.Fatalf("semijoin rows = %d", len(res.Rows))
	}
	if res.Schema.Len() != 2 {
		t.Errorf("apply+exists schema = %v (must equal outer schema)", res.Schema)
	}
}

func TestOuterApplyPadsNulls(t *testing.T) {
	ctx := fixture(t)
	inner := &core.Select{
		Input: scan(ctx, "partsupp"),
		Cond: &core.And{Ops: []core.Expr{
			&core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Table: "supplier", Name: "s_suppkey"}},
			&core.Cmp{Op: "=", L: core.Col("ps_partkey"), R: core.LitInt(1)},
		}},
	}
	a := &core.Apply{Outer: scan(ctx, "supplier"), Inner: inner, Kind: core.OuterApply}
	res := mustRun(t, a, ctx)
	if len(res.Rows) != 3 {
		t.Fatalf("outer apply rows = %d", len(res.Rows))
	}
	nulls := 0
	for _, r := range res.Rows {
		if r[2].IsNull() && r[3].IsNull() {
			nulls++
		}
	}
	if nulls != 2 {
		t.Errorf("padded rows = %d, want 2 (suppliers 2 and 3)", nulls)
	}
}

func TestResultString(t *testing.T) {
	ctx := fixture(t)
	res := mustRun(t, scan(ctx, "supplier"), ctx)
	s := res.String()
	if !strings.Contains(s, "supplier.s_suppkey") || !strings.Contains(s, "gamma") {
		t.Errorf("Result.String:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // header, rule, 3 rows
		t.Errorf("line count = %d:\n%s", len(lines), s)
	}
}

func TestBuildErrors(t *testing.T) {
	ctx := fixture(t)
	// Unknown column.
	bad := &core.Select{Input: scan(ctx, "part"), Cond: &core.Cmp{Op: "=", L: core.Col("nosuch"), R: core.LitInt(1)}}
	if _, err := Run(bad, ctx); err == nil {
		t.Error("unknown column must fail at build")
	}
	// Unknown table.
	if _, err := Run(&core.Scan{Table: "nosuch"}, ctx); err == nil {
		t.Error("unknown table must fail")
	}
	// Unbound group variable fails at Open.
	gs := &core.GroupScan{Var: "nope", Sch: schema.New()}
	if _, err := Run(gs, ctx); err == nil {
		t.Error("unbound group var must fail")
	}
	// Unresolvable outer ref fails at build.
	badOuter := &core.Select{Input: scan(ctx, "part"), Cond: &core.Cmp{Op: "=", L: &core.OuterRef{Name: "zzz"}, R: core.LitInt(1)}}
	if _, err := Run(&core.Apply{Outer: scan(ctx, "supplier"), Inner: badOuter}, ctx); err == nil {
		t.Error("unresolvable outer ref must fail")
	}
	// Un-normalized subquery expression is rejected.
	sq := &core.Select{Input: scan(ctx, "part"), Cond: &core.ExistsExpr{Plan: scan(ctx, "part")}}
	if _, err := Run(sq, ctx); err == nil {
		t.Error("raw ExistsExpr must be rejected by the executor")
	}
}
