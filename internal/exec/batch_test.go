package exec

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"gapplydb/internal/core"
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
