package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// TestSegmentLowering states which per-group query shapes compile to a
// segment program and which keep the iterator tree re-opened per group.
func TestSegmentLowering(t *testing.T) {
	ctx := fixture(t)
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
		name  string
		ga    *core.GApply
		lower bool
	}{
		{"Q1", gapplyQ1(ctx, core.PartitionHash), true},
		{"Q1 sort", gapplyQ1(ctx, core.PartitionSort), true},
		{"Q2", gapplyQ2(ctx), true},
		{"Q3", onGroup(&core.UnionAll{Inputs: []core.Node{
			core.NewProject(&core.Select{Input: &core.Apply{Outer: gs(), Inner: avgOf("p_retailprice")},
				Cond: &core.Cmp{Op: ">=", L: price, R: &core.BinOp{Op: "*", L: core.LitFloat(0.9), R: core.Col("ga")}}},
				[]core.Expr{core.LitInt(0), core.Col("p_name")}, []string{"tag", "name"}),
			core.NewProject(gs(), []core.Expr{core.LitInt(1), core.Col("p_name")}, []string{"tag", "name"}),
		}}), true},
		{"Q4", onGroup(core.NewProject(aboveAvg, []core.Expr{core.Col("p_name"), price}, nil)), true},
		{"orders", ordersGApply(items, nil), true},
		{"count", onGroup(count(gs())), true},
		{"distinct aggregate", onGroup(&core.AggOp{Input: gs(), Aggs: []core.AggSpec{
			{Fn: "count", Arg: core.Col("p_brand"), Distinct: true, As: "n"}}}), true},
		{"join", onGroup(count(&core.Join{Left: gs(), Right: scan(ctx, "supplier"),
			Cond: &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: core.Col("s_suppkey")}})), false},
		{"group by", onGroup(&core.GroupBy{Input: gs(), GroupCols: []*core.ColRef{core.Col("p_brand")},
			Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}), false},
		{"distinct", onGroup(&core.Distinct{Input: core.NewProject(gs(), []core.Expr{core.Col("p_brand")}, nil)}), false},
		{"exists", onGroup(&core.Apply{Outer: gs(), Inner: &core.Exists{Input: &core.Select{Input: gs(),
			Cond: &core.Cmp{Op: ">", L: price, R: core.LitFloat(35)}}}}), false},
		{"order by", onGroup(&core.OrderBy{Input: gs(), Keys: []core.OrderKey{{Expr: price}}}), false},
		{"spooled base table", onGroup(&core.Apply{Outer: gs(), Inner: count(scan(ctx, "supplier"))}), false},
		{"apply of rows", onGroup(&core.Apply{Outer: gs(),
			Inner: core.NewProject(gs(), []core.Expr{core.Col("p_name")}, []string{"other"})}), false},
		{"outer apply", onGroup(&core.Apply{Outer: gs(), Inner: avgOf("p_retailprice"), Kind: core.OuterApply}), false},
		{"nested gapply", onGroup(core.NewGApply(gs(), []*core.ColRef{core.Col("p_brand")}, "h",
			count(&core.GroupScan{Var: "h"}))), false},
	}
	for _, c := range cases {
		bctx := ctx
		if c.name == "orders" {
			bctx = NewContext(items)
		}
		it, err := buildBatchGApply(c.ga, bctx, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g := it.(*bgapply)
		_, isSeg := g.exec.(*segProgram)
		if g.lowered != c.lower || isSeg != c.lower || SegmentLowers(c.ga) != c.lower {
			t.Errorf("%s: lowered = %v (program %v, SegmentLowers %v), want %v",
				c.name, g.lowered, isSeg, SegmentLowers(c.ga), c.lower)
		}
		if c.name == "spooled base table" && g.spools == nil {
			t.Errorf("%s: the fallback lost its spool", c.name)
		}
	}

	// An OuterRef anywhere in the inner keeps the tree, serially.
	corr := onGroup(&core.Select{Input: gs(),
		Cond: &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Name: "s_suppkey"}}})
	it, err := buildBatchGApply(corr, ctx, compileEnv{}.push(scan(ctx, "supplier").Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if g := it.(*bgapply); g.lowered || SegmentLowers(corr) {
		t.Error("an OuterRef-correlated inner must not lower")
	}
}

// edgeCatalog holds edge(k, v, s), its rows shuffled: a one-row group
// (k=0), a NULL-keyed group mixing INT, FLOAT and NULL (v), an all-NULL
// group (k=1), a 600-row group (k=2) whose output spans several batches
// and whose INT and FLOAT values collide under DISTINCT, and 41 groups
// of one to three rows — 44 groups in all, not a multiple of any task
// cut.
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
	tab, err := cat.Create(&schema.TableDef{Name: "edge", Schema: schema.New(
		schema.Column{Name: "k", Type: types.KindInt},
		schema.Column{Name: "v", Type: types.KindFloat},
		schema.Column{Name: "s", Type: types.KindString},
	)})
	if err != nil {
		t.Fatal(err)
	}
	tab.Rows = rows
	return cat
}

// edgeShapes are lowerable per-group queries over edge's $g.
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
	}
}

// segRun is one execution of a GApply: its rows, counters and the
// inner nodes' (describe, rows, opens), in plan order.
type segRun struct {
	rows     []string
	counters Counters
	nodes    []string
}

// runGApply executes ga at dop, with its inner forced onto the iterator
// tree when tree is set — the reference a segment program must match.
func runGApply(t *testing.T, cat *storage.Catalog, ga *core.GApply, dop int, tree, prof bool) segRun {
	t.Helper()
	ctx := NewContext(cat)
	ctx.DOP = dop
	if prof {
		ctx.Prof = NewProfile()
	}
	it, err := buildBatchGApply(ga, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := it.(*bgapply)
	if !g.lowered {
		t.Fatalf("inner does not lower:\n%s", core.Format(ga.Inner))
	}
	if tree {
		g.lowered = false
		if g.exec, err = g.buildExec(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := drainBatchRows(it, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := segRun{rows: renderRows(rows), counters: ctx.Counters}
	if prof {
		core.Walk(ga.Inner, func(n core.Node) {
			s := ctx.Prof.Stats(n)
			out.nodes = append(out.nodes, fmt.Sprintf("%s rows=%d opens=%d", n.Describe(), s.Rows, s.Opens))
		})
	}
	return out
}

// TestSegmentMatchesTree is the segment program's differential: over
// the edge cases, at dop 1, 2 and 8 under both partition strategies, it
// produces the iterator tree's rows in the same order, the same
// counters, and — profiled — the same per-operator rows and loops; and
// the rows match the reference interpreter.
func TestSegmentMatchesTree(t *testing.T) {
	cat := edgeCatalog(t)
	tab, err := cat.Lookup("edge")
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range edgeShapes() {
		for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
			mk := func() *core.GApply {
				ga := core.NewGApply(&core.Scan{Table: "edge", Def: tab.Def}, []*core.ColRef{core.Col("k")}, "g", inner())
				ga.Partition = hint
				return ga
			}
			plan := mk()
			res := mustRun(t, plan, NewContext(cat))
			checkOracle(t, plan, cat, res.Rows)
			for _, dop := range []int{1, 2, 8} {
				for _, prof := range []bool{false, true} {
					seg := runGApply(t, cat, mk(), dop, false, prof)
					tree := runGApply(t, cat, mk(), dop, true, prof)
					what := fmt.Sprintf("%s/%v/dop %d/profiled %v", name, hint, dop, prof)
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

// TestSegmentOrdersCounters pins the counters of the orders shape, by
// hand: 1 001 groups of 3 rows, each evaluating two branches whose
// Apply reads its outer (3 rows) and evaluates the average (3 more)
// once, serving the other two rows from that result.
func TestSegmentOrdersCounters(t *testing.T) {
	const groups, per = 1001, 3
	cat := itemsCatalog(t, groups, per)
	for _, dop := range []int{1, 2, 8} {
		ctx := NewContext(cat)
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
// lowered GApply on the row that crosses the limit, at every dop.
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
		ctx := NewContext(cat)
		ctx.DOP = dop
		ctx.Budget = &Budget{MaxPartitionBytes: limit}
		ga := ordersGApply(cat, nil)
		if !SegmentLowers(ga) {
			t.Fatal("orders shape does not lower")
		}
		_, err := Run(ga, ctx)
		var re *ResourceError
		if !errors.As(err, &re) || re.Limit != LimitPartitionBytes || re.Used != used {
			t.Errorf("dop %d: err = %v, want a partition-bytes kill at %d bytes", dop, err, used)
		}
	}
}

// TestSegmentOutputRowsTruncation: a cursor over a lowered GApply
// delivers exactly MaxOutputRows rows — the unbudgeted run's first ones,
// the last batch truncated — then the budget error.
func TestSegmentOutputRowsTruncation(t *testing.T) {
	cat := itemsCatalog(t, 400, 3)
	want := renderRows(mustRun(t, ordersGApply(cat, nil), NewContext(cat)).Rows)
	const limit = 300
	for _, dop := range []int{1, 8} {
		ctx := NewContext(cat)
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

// TestPartitionStrategiesAgree: hash and sort partitioning hold every
// input row itself, not a copy, and form the same groups (hash in
// first-appearance order, sort in key order), over hostile keys; so
// does the streaming cutter over the rows in key order.
func TestPartitionStrategiesAgree(t *testing.T) {
	cat := edgeCatalog(t)
	tab, err := cat.Lookup("edge")
	if err != nil {
		t.Fatal(err)
	}
	in := tab.Rows
	groupsOf := func(name string, rows []types.Row) map[string][]string {
		ctx := NewContext(cat)
		p, err := partitioners[name](rows, []int{0}, ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]string)
		n := 0
		for i := 0; i < p.groups(); i++ {
			g := p.group(i)
			key := g[0].Key([]int{0})
			if _, dup := out[key]; dup {
				t.Fatalf("%s: key %v split into two groups", name, g[0][0])
			}
			out[key] = renderRows(g)
			n += len(g)
		}
		if n != len(rows) {
			t.Fatalf("%s: %d rows partitioned, want %d", name, n, len(rows))
		}
		for _, r := range p.rows {
			if !aliases(r, rows) {
				t.Fatalf("%s: partition holds a copy of row %v instead of the row itself", name, r)
			}
		}
		return out
	}
	hash := groupsOf("hash", in)
	if got := groupsOf("sort", in); !reflect.DeepEqual(got, hash) {
		t.Error("sort and hash partitioning form different groups")
	}
	ctx := NewContext(cat)
	sorted, err := partitioners["sort"](in, []int{0}, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := cutGroups(sorted.rows, []int{0}, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(map[string][]string)
	for _, g := range cut {
		streamed[g[0].Key([]int{0})] = renderRows(g)
		for _, r := range g {
			if !aliases(r, in) {
				t.Fatalf("stream holds a copy of row %v instead of the row itself", r)
			}
		}
	}
	if !reflect.DeepEqual(streamed, hash) {
		t.Error("the stream over sorted input forms different groups than hash partitioning")
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
// emission: the row headers and group ids, never the row values.
func TestPartitionAllocsPerRow(t *testing.T) {
	const rows, perRow = 40000, 64
	cat := joinedCatalog(t)
	join, _ := allocated(func() {
		it, err := BuildBatch(joinedOuter(cat), NewContext(cat))
		if err != nil {
			t.Fatal(err)
		}
		if n := drainCount(t, it); n != rows {
			t.Fatalf("join emits %d rows, want %d", n, rows)
		}
	})
	gapply, _ := allocated(func() {
		ctx := NewContext(cat)
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
	})
	per := (gapply - join) / rows
	if per > perRow {
		t.Errorf("partition phase allocates %.0f B per outer row beyond the join's emission, want ≤ %d", per, perRow)
	}
	t.Logf("%.1f B per outer row", per)
}

// TestParallelPhaseAllocs pins the parallel execution phase's cost to
// per-worker state: a Q2-shaped GApply (40 000 rows, 500 groups, 125
// tasks) allocates at dop 2 what it does at dop 1, plus each worker's
// compile of its private per-group program, plus a few dozen
// allocations for the pool — nothing per task.
func TestParallelPhaseAllocs(t *testing.T) {
	const slack = 64
	cat := joinedCatalog(t)
	q2 := func() *core.GApply {
		return core.NewGApply(joinedOuter(cat), []*core.ColRef{core.Col("k")}, "g", ordersInner(nil))
	}
	mallocs := func(dop int) float64 {
		_, n := allocated(func() {
			ctx := NewContext(cat)
			ctx.DOP = dop
			if res := mustRun(t, q2(), ctx); len(res.Rows) != 1000 {
				t.Fatalf("dop %d: %d rows, want 1000", dop, len(res.Rows))
			}
		})
		return n
	}
	it, err := BuildBatch(q2(), NewContext(cat))
	if err != nil {
		t.Fatal(err)
	}
	_, build := allocated(func() {
		if _, err := it.(*bgapply).buildExec(NewContext(cat)); err != nil {
			t.Fatal(err)
		}
	})
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
// one-row table unit(u) for inners that must not lower.
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
// joined into each branch's Apply outer, which keeps the rows but stops
// the inner lowering.
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

// BenchmarkGApplyGroups runs the orders shape over 10 000 groups of 4
// rows — scan, partition and execution phase — with the inner lowered to
// a segment program, at dop 1 and on two workers, and, joined to a
// one-row table, as the iterator tree re-opened per group at dop 1; per
// group.
func BenchmarkGApplyGroups(b *testing.B) {
	const groups = 10000
	cat := itemsCatalog(b, groups, 4)
	for _, tc := range []struct {
		name  string
		extra func() core.Node
		dop   int
	}{{"lowered", nil, 1}, {"dop2", nil, 2}, {"fallback", unitScan(cat), 1}} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := NewContext(cat)
			ctx.DOP = tc.dop
			it, err := BuildBatch(ordersGApply(cat, tc.extra), ctx)
			if err != nil {
				b.Fatal(err)
			}
			if lowered := it.(*bgapply).lowered; lowered != (tc.extra == nil) {
				b.Fatalf("lowered = %v", lowered)
			}
			drainCount(b, it)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				drainCount(b, it)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N * groups)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/group")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/group")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/group")
		})
	}
}

// BenchmarkPartition partitions 40 000 interleaved rows into 10 000
// groups by hashing and by sorting, and cuts a clustered copy of them
// into the same groups as a streaming GApply does, per row, each run
// with fresh scratch, as a query's first Open has.
func BenchmarkPartition(b *testing.B) {
	cat := itemsCatalog(b, 10000, 4)
	tab, err := cat.Lookup("items")
	if err != nil {
		b.Fatal(err)
	}
	clustered := clusteredRows(cat)
	for _, name := range []string{"hash", "sort", "streamed"} {
		b.Run(name, func(b *testing.B) {
			rows := tab.Rows
			part := partitioners[name]
			if name == "streamed" {
				rows = clustered
				part = func(rows []types.Row, ords []int, ctx *Context, plan *core.GApply) (partition, error) {
					return partition{}, eachCut(cutter(rows, ords, ctx, plan), func([]types.Row) {})
				}
			}
			ctx := NewContext(cat)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := part(rows, []int{0}, ctx, nil); err != nil {
					b.Fatal(err)
				}
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
