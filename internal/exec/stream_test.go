package exec

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/oracle"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// rowSource delivers rows in batches.
func rowSource(rows []types.Row) *sliceSource {
	src := &sliceSource{}
	src.win.reset(rows)
	return src
}

// cutter returns a streaming GApply's partition phase over outer, ready
// to cut: nothing but the cutter and the fields it reads.
func cutter(outer BatchIterator, ords []int, ctx *Context, plan *core.GApply) *bgapply {
	g := &bgapply{ctx: ctx, ords: ords, plan: plan}
	g.cut.outer = outer
	return g
}

// eachCut cuts g's outer group by group, calling visit on each closed
// group before the next is cut.
func eachCut(g *bgapply, visit func([]types.Row)) error {
	if err := g.cut.start(); err != nil {
		return err
	}
	defer g.cut.stop()
	for {
		closed, err := g.cut.cutGroup(g, true)
		if err != nil || !closed {
			return err
		}
		visit(g.cut.rows)
		g.cut.rows = g.cut.rows[:0]
	}
}

// cutGroups runs the streaming cutter over rows and returns copies of
// its groups, in order.
func cutGroups(rows []types.Row, ords []int, ctx *Context, plan *core.GApply) ([][]types.Row, error) {
	var groups [][]types.Row
	err := eachCut(cutter(rowSource(rows), ords, ctx, plan), func(g []types.Row) {
		groups = append(groups, slices.Clone(g))
	})
	return groups, err
}

// countingSource counts the batches its consumer pulls.
type countingSource struct {
	in    BatchIterator
	pulls int
}

func (c *countingSource) Open() error { return c.in.Open() }
func (c *countingSource) NextBatch() (*Batch, error) {
	b, err := c.in.NextBatch()
	if b != nil {
		c.pulls++
	}
	return b, err
}
func (c *countingSource) Close() error { return c.in.Close() }

// claimedOrder is an outer the plan claims arrives in k order — an
// elided sort — whether or not the table really is.
func claimedOrder(ctx *Context, table string) core.Node {
	return &core.OrderBy{Input: scan(ctx, table), Keys: []core.OrderKey{{Expr: core.Col("k")}}, Elided: true}
}

func countInner() core.Node {
	return &core.AggOp{Input: &core.GroupScan{Var: "g"}, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
}

// TestStreamFirstBatchAfterFirstGroup: a streaming GApply hands out its
// first batch once the outer batches that close the first group are
// cut, one more at most (the one the next group starts in); the
// materializing phases pull the whole outer first. Every dop streams.
func TestStreamFirstBatchAfterFirstGroup(t *testing.T) {
	const first, groups, per = 300, 200, 4 // group 0 spans two batches
	var keys []types.Value
	for i := 0; i < first; i++ {
		keys = append(keys, types.NewInt(0))
	}
	for k := 1; k <= groups; k++ {
		for i := 0; i < per; i++ {
			keys = append(keys, types.NewInt(int64(k)))
		}
	}
	cat := keyTable(t, types.KindInt, keys)
	want := []string{fmt.Sprint(types.Row{types.NewInt(0), types.NewInt(first)})}
	for k := 1; k <= groups; k++ {
		want = append(want, fmt.Sprint(types.Row{types.NewInt(int64(k)), types.NewInt(per)}))
	}
	for _, dop := range []int{1, 8} {
		for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
			ctx := NewContext(cat, new(Store))
			ctx.DOP = dop
			ga := core.NewGApply(claimedOrder(ctx, "obs"), []*core.ColRef{core.Col("k")}, "g", countInner())
			ga.Partition = hint
			ga = core.LowerSortPartition(ga)
			it, err := BuildBatch(ga, ctx)
			if err != nil {
				t.Fatal(err)
			}
			g := it.(*bgapply)
			if !g.streaming {
				t.Fatalf("dop %d %v: GApply over a claimed order does not stream", dop, hint)
			}
			src := &countingSource{in: g.outer}
			g.outer, g.cut.outer = src, src
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			b, err := it.NextBatch()
			if err != nil || b == nil {
				t.Fatalf("dop %d %v: first batch %v, err %v", dop, hint, b, err)
			}
			if limit := (first+batchSize-1)/batchSize + 1; src.pulls > limit {
				t.Errorf("dop %d %v: first batch after %d outer batches, want ≤ %d", dop, hint, src.pulls, limit)
			}
			got := renderRows(b.AppendRows(nil))
			for {
				b, err := it.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				got = append(got, renderRows(b.AppendRows(nil))...)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("dop %d %v: streamed %d rows, want %d: %v…", dop, hint, len(got), len(want), got[:min(3, len(got))])
			}
			if ctx.Counters.Groups != groups+1 || ctx.Counters.SerialGroupExecs != groups+1 || ctx.Counters.ParallelGroupExecs != 0 {
				t.Errorf("dop %d %v: counters %+v, want %d groups run serially", dop, hint, ctx.Counters, groups+1)
			}
		}
	}
}

// TestStreamPartitionAllocsPerRow: cutting 40 000 key-ordered rows into
// 10 000 groups allocates the cutter's buffers — the open group's
// headers and two keys — and nothing per row: a few allocations for the
// whole outer.
func TestStreamPartitionAllocsPerRow(t *testing.T) {
	const rows, maxAllocs = 40000, 16
	in := clusteredRows(itemsCatalog(t, 10000, 4))
	ctx := NewContext(nil, new(Store))
	n := 0
	bytes, count := allocated(func() {
		n = 0
		if err := eachCut(cutter(rowSource(in), []int{0}, ctx, nil), func(g []types.Row) { n += len(g) }); err != nil {
			t.Fatal(err)
		}
	})
	if n != rows {
		t.Fatalf("cut %d rows, want %d", n, rows)
	}
	if count > maxAllocs || bytes/rows >= 1 {
		t.Errorf("the stream allocates %.0f times, %.2f B per outer row; want ≤ %d allocations, nothing per row", count, bytes/rows, maxAllocs)
	}
	t.Logf("%.0f allocations, %.3f B per outer row", count, bytes/rows)
}

// clusteredRows is the items table's rows stably sorted by key: the
// same rows, as a heap written in key order would hold them.
func clusteredRows(cat *storage.Catalog) []types.Row {
	tab, err := cat.Lookup("items")
	if err != nil {
		panic(err)
	}
	rows := slices.Clone(tab.Rows)
	slices.SortStableFunc(rows, func(a, b types.Row) int { return int(a[0].Int() - b[0].Int()) })
	return rows
}

// TestStreamBrokenOrderFails: an outer that claims a group-key order it
// does not have fails with the typed error at the first descent, before
// the group it closes runs: no row of that group, or of any after it,
// is emitted.
func TestStreamBrokenOrderFails(t *testing.T) {
	cat := keyTable(t, types.KindInt, []types.Value{
		types.NewInt(1), types.NewInt(1), types.NewInt(2), types.NewInt(2), types.NewInt(0), types.NewInt(3),
	})
	ctx := NewContext(cat, new(Store))
	ga := core.NewGApply(claimedOrder(ctx, "obs"), []*core.ColRef{core.Col("k")}, "g",
		core.ProjectCols(&core.GroupScan{Var: "g"}, []*core.ColRef{core.Col("v")}))
	it, err := BuildBatch(ga, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	var got []types.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			var oe *OrderError
			if !errors.As(err, &oe) {
				t.Fatalf("err = %v, want *OrderError", err)
			}
			if !reflect.DeepEqual(oe.Prev, types.Row{types.NewInt(2)}) || !reflect.DeepEqual(oe.Next, types.Row{types.NewInt(0)}) {
				t.Errorf("OrderError keys %v → %v, want (2) → (0)", oe.Prev, oe.Next)
			}
			break
		}
		if b == nil {
			t.Fatal("a broken order claim ran to completion")
		}
		got = b.AppendRows(got)
	}
	it.Close()
	for _, r := range got {
		if r[0].Int() != 1 {
			t.Errorf("emitted %v before failing, want at most group 1's rows", got)
			break
		}
	}
}

// streamCatalog is a heap written in key order — items(k, name, price),
// 300 keys of 1 to 5 rows — with tags(t, label) for two keys in three,
// the one-row unit table, and built single-column indexes on items.k
// and tags.t: the orders view's shape, small.
func streamCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := itemsCatalog(t, 0, 0)
	items, _ := cat.Lookup("items")
	tags, err := cat.Create(&schema.TableDef{Name: "tags", Schema: schema.New(
		schema.Column{Name: "t", Type: types.KindInt},
		schema.Column{Name: "label", Type: types.KindString},
	)})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 300; k++ {
		for i := 0; i <= k%5; i++ {
			r := types.Row{types.NewInt(int64(k)), types.NewString(fmt.Sprintf("item%d", i)), types.NewFloat(float64((k*37 + i*101) % 1000))}
			if err := items.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if k%3 != 0 {
			if err := tags.Append(types.Row{types.NewInt(int64(k)), types.NewString(fmt.Sprintf("tag#%d", k))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ix := range []struct{ name, table, col string }{{"idx_items_k", "items", "k"}, {"idx_tags_t", "tags", "t"}} {
		index, err := cat.CreateIndex(ix.name, ix.table, ix.col)
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := cat.Lookup(ix.table)
		index.Run(tab)
	}
	return cat
}

// TestStreamMatchesOracle is the streaming differential: a GApply over
// a heap-order seek on a heap in key order, joined inner or left outer,
// by hash or by merge probe, with an inner the program runs natively and
// one ("tree") that hosts a join, matches the reference interpreter at dop 1, 2 and 8 — and rows,
// counters and every operator's actual rows and opens are the same at
// every dop.
func TestStreamMatchesOracle(t *testing.T) {
	cat := streamCatalog(t)
	ix, err := cat.LookupIndex("idx_items_k")
	if err != nil {
		t.Fatal(err)
	}
	if !ix.HeapSorted() {
		t.Fatal("items was written in key order, but its index does not say so")
	}
	table := func(name string) *schema.TableDef {
		tab, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return tab.Def
	}
	outer := func(kind core.JoinKind, method core.JoinMethod) core.Node {
		seek := &core.IndexScan{Table: "items", Def: table("items"), Index: ix.Name, Cols: ix.Cols, Ords: ix.Ords(),
			Hi: types.NewInt(250), HasHi: true, HiIncl: true, HeapOrder: true, HeapSorted: ix.HeapSorted()}
		left := &core.Select{Input: seek, Cond: &core.Cmp{Op: "<=", L: core.Col("k"), R: core.LitInt(250)}}
		var right core.Node = &core.Scan{Table: "tags", Def: table("tags")}
		if method == core.JoinMerge {
			right = &core.IndexScan{Table: "tags", Def: table("tags"), Index: "idx_tags_t", Cols: []string{"t"}, Ords: []int{0}}
		}
		return &core.Join{Left: left, Right: right, Kind: kind, Method: method,
			Cond: &core.Cmp{Op: "=", L: core.Col("k"), R: core.Col("t")}}
	}
	for _, kind := range []core.JoinKind{core.InnerJoin, core.LeftOuterJoin} {
		for _, method := range []core.JoinMethod{core.JoinHash, core.JoinMerge} {
			for _, inner := range []struct {
				name  string
				extra func() core.Node
			}{{"lowered", nil}, {"tree", unitScan(cat)}} {
				name := fmt.Sprintf("kind%d/method%d/%s", kind, method, inner.name)
				t.Run(name, func(t *testing.T) {
					plan := core.NewGApply(outer(kind, method), []*core.ColRef{core.Col("k")}, "g", ordersInner(inner.extra))
					if !core.GApplyOuterOrdered(plan) {
						t.Fatalf("the outer does not provide its group order:\n%s", core.Format(plan))
					}
					it, err := BuildBatch(plan, NewContext(cat, new(Store)))
					if err != nil {
						t.Fatal(err)
					}
					if g := it.(*bgapply); !g.streaming || (len(g.exec.hosted()) == 0) != (inner.extra == nil) {
						t.Fatalf("streaming %v, hosted %v", g.streaming, nodeKinds(g.exec.hosted()))
					}
					want, err := oracle.Expect(plan, cat)
					if err != nil {
						t.Fatal(err)
					}
					var rows0 []string
					var counters0 Counters
					var actuals0 map[string]NodeStats
					for _, dop := range []int{1, 2, 8} {
						ctx := NewContext(cat, new(Store))
						ctx.DOP = dop
						ctx.Prof = NewProfile()
						res := mustRun(t, plan, ctx)
						if err := want.Check(res.Rows); err != nil {
							t.Fatalf("dop %d: %v", dop, err)
						}
						actuals := make(map[string]NodeStats)
						core.Walk(plan, func(n core.Node) {
							s := ctx.Prof.Stats(n)
							actuals[fmt.Sprintf("%p %s", n, n.Describe())] = NodeStats{Rows: s.Rows, Opens: s.Opens}
						})
						if dop == 1 {
							rows0, counters0, actuals0 = renderRows(res.Rows), ctx.Counters, actuals
							continue
						}
						if got := renderRows(res.Rows); !reflect.DeepEqual(got, rows0) {
							t.Errorf("dop %d: rows differ from dop 1", dop)
						}
						if ctx.Counters != counters0 {
							t.Errorf("dop %d: counters %+v, dop 1 %+v", dop, ctx.Counters, counters0)
						}
						if !reflect.DeepEqual(actuals, actuals0) {
							t.Errorf("dop %d: actuals %v, dop 1 %v", dop, actuals, actuals0)
						}
					}
					if counters0.Groups == 0 || counters0.ParallelGroupExecs != 0 {
						t.Errorf("counters %+v: want groups, all run serially", counters0)
					}
				})
			}
		}
	}
}
