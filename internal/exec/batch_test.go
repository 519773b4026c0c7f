package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/oracle"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// These tests pin the batch engine's load-bearing internals: the
// slab-carving allocators and their stability guarantees, the
// residual-free and Select-into-Join fusion decisions (and their
// gating), cursor-level budget truncation, and cancellation — the parts
// a plan-level differential can pass by luck.

func TestRowSlabCarveStability(t *testing.T) {
	s := rowSlab{width: 4, arena: newArena()}
	var rows []types.Row
	// Enough carves to force several slab replacements.
	for i := 0; i < 1000; i++ {
		r := s.carve(4)
		if len(r) != 4 || cap(r) != 4 {
			t.Fatalf("carve %d: len %d cap %d, want 4/4 (three-index isolation)", i, len(r), cap(r))
		}
		for j := range r {
			r[j] = types.NewInt(int64(i*4 + j))
		}
		rows = append(rows, r)
	}
	// Every previously carved row must be intact: no carve may alias or
	// clobber another's storage.
	for i, r := range rows {
		for j, v := range r {
			if v.Int() != int64(i*4+j) {
				t.Fatalf("row %d col %d = %v, want %d", i, j, v, i*4+j)
			}
		}
	}
}

func TestJoinOutSlabPersistsAcrossResets(t *testing.T) {
	o := joinOut{slab: rowSlab{arena: newArena()}}
	a := types.Row{types.NewInt(1), types.NewString("left")}
	b := types.Row{types.NewInt(2), types.NewString("right")}
	var emitted []types.Row
	for batch := 0; batch < 50; batch++ {
		o.reset()
		for i := 0; i < 10; i++ {
			o.add(a, b)
		}
		if len(o.rows) != 10 {
			t.Fatalf("batch %d: %d rows", batch, len(o.rows))
		}
		emitted = append(emitted, o.rows...)
	}
	want := types.Row{types.NewInt(1), types.NewString("left"), types.NewInt(2), types.NewString("right")}
	for i, r := range emitted {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("emitted row %d corrupted: %v", i, r)
		}
	}
	// 500 width-4 rows at a batchSize*width cap means a handful of slabs,
	// not one per reset: the whole point of persisting the slab.
	if cap(o.slab.slab) < 8*4 {
		t.Fatalf("slab cap %d never grew past the minimum", cap(o.slab.slab))
	}
}

// TestChunkedStore: values come back by index across the growing chunks
// and past the cap, chunk sizes follow the geometric schedule, and a
// refill after reset reuses the chunks instead of allocating.
func TestChunkedStore(t *testing.T) {
	const full = batchSize << chunkLog
	var c chunked[int32]
	for _, n := range []int{0, 1, batchSize + 1, 3*full + 7, 200} {
		c.reset()
		for i := 0; i < n; i++ {
			c.add(int32(i))
		}
		if c.n != n {
			t.Fatalf("n = %d after %d adds", c.n, n)
		}
		for i := 0; i < n; i++ {
			if got := c.at(i); got != int32(i) {
				t.Fatalf("%d values: at(%d) = %d", n, i, got)
			}
		}
		for k, ch := range c.chunks {
			if want := batchSize << min(k, chunkLog); cap(ch) != want {
				t.Fatalf("%d values: chunk %d has capacity %d, want %d", n, k, cap(ch), want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, func() {
		c.reset()
		for i := 0; i < 3*full; i++ {
			c.add(int32(i))
		}
	}); allocs != 0 {
		t.Errorf("a refill allocates %.0f times, want 0", allocs)
	}
}

// priceFilter returns a Select over in with cond p_retailprice > 15.
func priceFilter(in core.Node) *core.Select {
	return &core.Select{
		Input: in,
		Cond:  &core.Cmp{Op: ">", L: core.Col("p_retailprice"), R: core.LitFloat(15)},
	}
}

func TestSelectOverJoinFusesAsPostFilter(t *testing.T) {
	ctx := attached(newTestCatalog(t))
	it, err := buildBatch(priceFilter(joined(ctx)), ctx, compileEnv{})
	if err != nil {
		t.Fatal(err)
	}
	hj, ok := it.(*bHashJoin)
	if !ok {
		t.Fatalf("Select over equi-join built %T, want *bHashJoin (fused post-filter)", it)
	}
	if hj.pred != nil {
		t.Error("join condition is exactly its equi-pair, pred should be dropped (residual-free)")
	}
	if hj.post == nil {
		t.Error("fused Select should compile into the join's post filter")
	}
	rows, err := drainBatchRows(it, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// partsupp ⋈ part has 5 matches; prices 10 and 20,30,40 — p1 (price
	// 10) joins once, so 4 survive the filter.
	if len(rows) != 4 {
		t.Fatalf("fused join+filter = %d rows, want 4", len(rows))
	}
}

func TestJoinFusionGatedByProfile(t *testing.T) {
	ctx := attached(newTestCatalog(t))
	ctx.Prof = NewProfile()
	it, err := buildBatch(priceFilter(joined(ctx)), ctx, compileEnv{})
	if err != nil {
		t.Fatal(err)
	}
	// Under EXPLAIN ANALYZE every operator keeps its identity: the Select
	// must stay a distinct (probe-wrapped) operator, not vanish into the
	// join, or per-operator actuals change shape.
	if _, fused := it.(*bHashJoin); fused {
		t.Fatal("Select fused into join despite active profile")
	}
}

// TestProjectOverSelectSameOperators: a Project over a Select builds a
// bProject over a bFilter whether or not a profile is attached, so
// EXPLAIN ANALYZE times the operators the plain run executes. Over
// column, literal, NULL and computed cells, under a kernelized and a
// row-predicate filter, the rows match the reference interpreter and
// the counters agree; where an expression fails on a later row, both
// runs and the reference fail, with the same first error.
func TestProjectOverSelectSameOperators(t *testing.T) {
	cat := newTestCatalog(t)
	price, key := core.Col("p_retailprice"), core.Col("p_partkey")
	// 1/(p_partkey-4) divides by zero on part 4, the filter's last row.
	failing := &core.BinOp{Op: "/", L: core.LitInt(1), R: &core.BinOp{Op: "-", L: key, R: core.LitInt(4)}}
	cells := []core.Expr{core.Col("p_name"), core.LitInt(7), &core.Lit{V: types.Null}, &core.BinOp{Op: "*", L: price, R: core.LitInt(2)}}
	kernel := &core.Cmp{Op: ">", L: price, R: core.LitFloat(15)}
	row := &core.Cmp{Op: ">", L: &core.BinOp{Op: "*", L: price, R: core.LitInt(1)}, R: core.LitFloat(15)}
	for _, c := range []struct {
		name  string
		cond  core.Expr
		exprs []core.Expr
		fails bool
	}{
		{"kernel filter", kernel, cells, false},
		{"row filter", row, cells, false},
		{"projection fails on a later row", kernel, append(cells[:2:2], failing), true},
		{"filter fails on a later row", &core.Cmp{Op: "<>", L: failing, R: core.LitInt(0)}, cells, true},
	} {
		plan := core.NewProject(&core.Select{Input: heapScan(t, cat, "part"), Cond: c.cond}, c.exprs, nil)
		var kinds [2][]string
		var errs [2]string
		var counters [2]Counters
		for i, prof := range []bool{false, true} {
			ctx := attached(cat)
			if prof {
				ctx.Prof = NewProfile()
			}
			it, err := buildBatch(plan, ctx, compileEnv{})
			if err != nil {
				t.Fatal(err)
			}
			kinds[i] = operatorKinds(it)
			rows, err := drainBatchRows(it, ctx)
			if err != nil {
				errs[i] = err.Error()
			} else {
				checkOracle(t, plan, cat, rows)
			}
			counters[i] = ctx.Counters
			ctx.ReleaseArena()
		}
		if want := []string{"*exec.bProject", "*exec.bFilter", "*exec.bScan"}; !reflect.DeepEqual(kinds[0], want) || !reflect.DeepEqual(kinds[1], want) {
			t.Errorf("%s: built %v unprofiled and %v profiled, want %v", c.name, kinds[0], kinds[1], want)
		}
		if errs[0] != errs[1] || (errs[0] != "") != c.fails {
			t.Errorf("%s: errors %q unprofiled and %q profiled, want failure %v", c.name, errs[0], errs[1], c.fails)
		}
		if _, oerr := oracle.Eval(plan, cat); (oerr != nil) != c.fails {
			t.Errorf("%s: reference error %v, want failure %v", c.name, oerr, c.fails)
		}
		if counters[0] != counters[1] {
			t.Errorf("%s: counters %+v unprofiled and %+v profiled", c.name, counters[0], counters[1])
		}
	}
}

// operatorKinds lists the operators of a chain of single-input
// iterators, root first, looking through profile probes.
func operatorKinds(it BatchIterator) []string {
	var out []string
	for it != nil {
		if p, ok := it.(*batchProbe); ok {
			it = p.inner
			continue
		}
		out = append(out, fmt.Sprintf("%T", it))
		switch x := it.(type) {
		case *bProject:
			it = x.input
		case *bFilter:
			it = x.input
		default:
			it = nil
		}
	}
	return out
}

// TestBatchEngineParityOnJoinFusionShapes checks the Select-over-Join
// shapes, fused (no profile) and unfused (profiled), against the
// reference interpreter.
func TestBatchEngineParityOnJoinFusionShapes(t *testing.T) {
	outerJoin := func(ctx *Context) *core.Join {
		return &core.Join{
			Kind:  core.LeftOuterJoin,
			Left:  scan(ctx, "supplier"),
			Right: scan(ctx, "partsupp"),
			Cond:  &core.Cmp{Op: "=", L: core.QCol("supplier", "s_suppkey"), R: core.QCol("partsupp", "ps_suppkey")},
		}
	}
	cases := []struct {
		name string
		plan func(ctx *Context) core.Node
	}{
		{"select-over-inner-join", func(ctx *Context) core.Node { return priceFilter(joined(ctx)) }},
		{"project-select-join", func(ctx *Context) core.Node {
			return core.NewProject(priceFilter(joined(ctx)),
				[]core.Expr{core.Col("p_name"), core.Col("p_retailprice")}, []string{"", ""})
		}},
		// gamma supplies nothing: the padded row passes this filter, so
		// the fused post predicate must run on NULL-padded rows too.
		{"select-over-outer-join-pad-passes", func(ctx *Context) core.Node {
			return &core.Select{
				Input: outerJoin(ctx),
				Cond:  &core.Cmp{Op: ">=", L: core.Col("s_suppkey"), R: core.LitInt(2)},
			}
		}},
		// NULL = NULL is UNKNOWN: the same padded row must be rejected
		// when the filter touches the padded side.
		{"select-over-outer-join-pad-rejected", func(ctx *Context) core.Node {
			return &core.Select{
				Input: outerJoin(ctx),
				Cond:  &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: core.Col("ps_suppkey")},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, prof := range []bool{false, true} {
				ctx := fixture(t)
				if prof {
					ctx.Prof = NewProfile()
				}
				plan := tc.plan(ctx)
				checkOracle(t, plan, ctx.Catalog, mustRun(t, plan, ctx).Rows)
			}
		})
	}
}

func TestCursorBatchBudgetTruncation(t *testing.T) {
	ctx := fixture(t)
	ctx.Budget = &Budget{MaxOutputRows: 3}
	cur, err := Start(scan(ctx, "part"), ctx) // 4 rows
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got int
	var rerr error
	for {
		b, err := cur.NextBatch()
		if err != nil {
			rerr = err
			break
		}
		if b == nil {
			break
		}
		got += b.Len()
	}
	if got != 3 {
		t.Fatalf("delivered %d rows before the budget error, want exactly the 3 budgeted", got)
	}
	var re *ResourceError
	if !errors.As(rerr, &re) {
		t.Fatalf("error = %v, want *ResourceError", rerr)
	}
	if re.Limit != LimitOutputRows || re.Used != 4 {
		t.Fatalf("ResourceError = %+v, want limit %s used 4", re, LimitOutputRows)
	}
}

func TestRunBatchCancellation(t *testing.T) {
	ctx := fixture(t)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Ctx = cctx
	if _, err := Run(joined(ctx), ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a cancelled context = %v, want context.Canceled", err)
	}
}

// TestSelectCmpConstMatchesCompare: the column-against-constant kernel,
// its inline FLOAT comparison included, keeps exactly the rows
// types.Compare passes, for every operator and either operand order,
// over NULLs, NaN, signed zeros, infinities, INTs beside FLOATs and text.
func TestSelectCmpConstMatchesCompare(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []types.Value{types.Null, types.NewFloat(nan), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(inf), types.NewFloat(-inf), types.NewFloat(2.5), types.NewFloat(3), types.NewInt(3),
		types.NewInt(-7), types.NewInt(1 << 60), types.NewString("3")}
	var rows []types.Row
	for _, v := range vals {
		rows = append(rows, types.Row{types.NewInt(0), v})
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		test, _ := cmpTest(op)
		for _, flip := range []bool{false, true} {
			for _, c := range vals {
				got := selectCmpConst(rows, identitySel(nil, len(rows)), 1, c, outcomeMask(test, flip))
				var want []int
				for i, r := range rows {
					a, b := r[1], c
					if flip {
						a, b = b, a
					}
					if cmp, ok := types.Compare(a, b); ok && test(cmp) {
						want = append(want, i)
					}
				}
				if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Errorf("%v %s %v (flipped %v): kept %v, want %v", vals, op, c, flip, got, want)
				}
			}
		}
	}
}

// BenchmarkProject: projections of a 40 000-row, 5-column heap scan, per
// output row, each request building on an arena of one store: pure
// columns, the sorted outer union's branch shape (an INT tag, a column
// and NULL padding), and a computed column; then each over a Select
// keeping a tenth of the rows.
func BenchmarkProject(b *testing.B) {
	cat := storage.NewCatalog()
	wideTable(b, cat, "w", 40000, 5, func(i int) int { return (i * 7919) % 10000 })
	col := func(c int) core.Expr { return core.Col(fmt.Sprintf("w_c%d", c)) }
	null := &core.Lit{V: types.Null}
	arms := []struct {
		name  string
		exprs []core.Expr
	}{
		{"cols", []core.Expr{col(0), col(2), col(4)}},
		{"padded", []core.Expr{core.LitInt(2), col(0), null, null, col(3), null}},
		{"expr", []core.Expr{col(0), &core.BinOp{Op: "*", L: col(2), R: core.LitFloat(0.9)}}},
	}
	for _, sel := range []bool{false, true} {
		for _, arm := range arms {
			var in core.Node = heapScan(b, cat, "w")
			name := arm.name
			if sel {
				in = &core.Select{Input: in, Cond: &core.Cmp{Op: "<", L: col(0), R: core.LitInt(1000)}}
				name = "select/" + name
			}
			plan := core.NewProject(in, arm.exprs, nil)
			b.Run(name, func(b *testing.B) { benchRun(b, cat, plan, 0, true) })
		}
	}
}
