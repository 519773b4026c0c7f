package exec

import (
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

// These tests pin the two index access paths below the planner: the
// merge join that probes an index's stored run in place, on the shapes
// SQL cannot reach (left-outer with a bare index right side, a fused
// post-filter), and its allocation profile. The root package's
// access-path differential covers the planner-placed shapes end to end.

// addTable creates table name with int key column k and int payload
// column v and appends rows. A nil key is NULL.
func addTable(t testing.TB, cat *storage.Catalog, name string, keys []any) {
	t.Helper()
	tab, err := cat.Create(&schema.TableDef{
		Name: name,
		Schema: schema.New(
			schema.Column{Name: name + "_k", Type: types.KindInt},
			schema.Column{Name: name + "_v", Type: types.KindInt},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		key := types.Null
		if k != nil {
			key = types.NewInt(int64(k.(int)))
		}
		if err := tab.Append(types.Row{key, types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// keyIndexScan is a bare key-order scan of table through its key index.
func keyIndexScan(t testing.TB, cat *storage.Catalog, table string) *core.IndexScan {
	t.Helper()
	ix, err := cat.LookupIndex("idx_" + table)
	if err != nil {
		if ix, err = cat.CreateIndex("idx_"+table, table, table+"_k"); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := cat.Lookup(table)
	if err != nil {
		t.Fatal(err)
	}
	return &core.IndexScan{Table: table, Def: tab.Def, Index: ix.Name, Cols: ix.Cols, Ords: ix.Ords()}
}

func heapScan(t testing.TB, cat *storage.Catalog, table string) *core.Scan {
	t.Helper()
	tab, err := cat.Lookup(table)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Scan{Table: table, Def: tab.Def}
}

// probeCatalog: l has NULL and duplicate keys and keys r lacks; r is
// inserted in shuffled key order with duplicate and NULL keys, so the
// index run permutes the heap and equal ranges span several rows.
func probeCatalog(t testing.TB) *storage.Catalog {
	cat := storage.NewCatalog()
	rng := rand.New(rand.NewSource(7))
	var l, r []any
	for i := 0; i < 60; i++ {
		l = append(l, rng.Intn(25))
	}
	l[3], l[17] = nil, nil
	for i := 0; i < 80; i++ {
		r = append(r, rng.Intn(20))
	}
	r[5], r[40] = nil, nil
	addTable(t, cat, "l", l)
	addTable(t, cat, "r", r)
	return cat
}

func TestProbedMergeJoinMatchesHashJoin(t *testing.T) {
	eq := &core.Cmp{Op: "=", L: core.QCol("l", "l_k"), R: core.QCol("r", "r_k")}
	residual := core.AndAll([]core.Expr{eq, &core.Cmp{Op: "<", L: core.QCol("l", "l_v"), R: core.QCol("r", "r_v")}})
	post := &core.Cmp{Op: ">", L: core.QCol("r", "r_v"), R: core.LitInt(30)}
	postPad := &core.Cmp{Op: ">", L: core.QCol("l", "l_v"), R: core.LitInt(10)}
	cases := []struct {
		name string
		kind core.JoinKind
		cond core.Expr
		post core.Expr // a Select over the join, fused into it by the batch engine
	}{
		{"inner", core.InnerJoin, eq, nil},
		{"inner-residual", core.InnerJoin, residual, nil},
		{"inner-post", core.InnerJoin, residual, post},
		{"left-outer", core.LeftOuterJoin, eq, nil},
		{"left-outer-residual", core.LeftOuterJoin, residual, nil},
		// The post-filter sees NULL-padded rows: r_v > 30 rejects them,
		// l_v > 10 lets them through.
		{"left-outer-post-rejects-pads", core.LeftOuterJoin, residual, post},
		{"left-outer-post-keeps-pads", core.LeftOuterJoin, eq, postPad},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := func(cat *storage.Catalog, probe bool) core.Node {
				j := &core.Join{Left: heapScan(t, cat, "l"), Right: heapScan(t, cat, "r"), Kind: tc.kind, Cond: tc.cond, Method: core.JoinHash}
				if probe {
					j.Right, j.Method = keyIndexScan(t, cat, "r"), core.JoinMerge
					if _, ok := j.ProbedIndex(); !ok {
						t.Fatal("plan is not a probed merge join")
					}
				}
				if tc.post == nil {
					return j
				}
				return &core.Select{Input: j, Cond: tc.post}
			}
			cat := probeCatalog(t)
			want := mustRun(t, plan(cat, false), NewContext(cat, new(Store))).Rows
			checkOracle(t, plan(cat, true), cat, want)
			var scanned []int64
			for _, prof := range []bool{false, true} {
				ctx := NewContext(cat, new(Store))
				if prof {
					ctx.Prof = NewProfile()
				}
				p := plan(cat, true)
				got := mustRun(t, p, ctx).Rows
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("prof=%t: probed join diverged from the hash join:\ngot  %v\nwant %v", prof, got, want)
				}
				scanned = append(scanned, ctx.Counters.RowsScanned)
				if prof {
					var j *core.Join
					core.Walk(p, func(n core.Node) {
						if x, ok := n.(*core.Join); ok {
							j = x
						}
					})
					st := ctx.Prof.Stats(j.Right)
					if st.Opens != 1 || st.Rows != ctx.Counters.RowsScanned-60 {
						t.Errorf("probed IndexScan stats %+v, want 1 loop and %d rows", st, ctx.Counters.RowsScanned-60)
					}
				}
			}
			if scanned[1] != scanned[0] {
				t.Fatalf("RowsScanned differs with instrumentation: %v", scanned)
			}
		})
	}
}

// TestProbeDecidedFromPlan: the probe path is chosen from the plan, so
// a Profile (which wraps every built iterator) does not turn it off.
func TestProbeDecidedFromPlan(t *testing.T) {
	cat := probeCatalog(t)
	j := &core.Join{
		Left: heapScan(t, cat, "l"), Right: keyIndexScan(t, cat, "r"), Method: core.JoinMerge,
		Cond: &core.Cmp{Op: "=", L: core.QCol("l", "l_k"), R: core.QCol("r", "r_k")},
	}
	for _, prof := range []bool{false, true} {
		ctx := NewContext(cat, new(Store))
		if prof {
			ctx.Prof = NewProfile()
		}
		it, _, err := buildBatchJoin(j, nil, nil, ctx, compileEnv{})
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := it.(*bMergeJoin); !ok || m.probe == nil || m.right != nil {
			t.Fatalf("prof=%t: built %T without an index probe", prof, it)
		}
	}
}

// TestHeapOrderWindowSorted: a heap-order range window over a shuffled
// heap comes out in heap position order — the heap scan's filtered rows
// and the reference interpreter's — and a re-Open against the same run
// reuses the resolved window.
func TestHeapOrderWindowSorted(t *testing.T) {
	cat := probeCatalog(t)
	is := keyIndexScan(t, cat, "r")
	is.HeapOrder = true
	is.Lo, is.HasLo, is.LoIncl = types.NewInt(5), true, true
	is.Hi, is.HasHi = types.NewInt(12), true
	cond := core.AndAll([]core.Expr{
		&core.Cmp{Op: ">=", L: core.QCol("r", "r_k"), R: core.LitInt(5)},
		&core.Cmp{Op: "<", L: core.QCol("r", "r_k"), R: core.LitInt(12)},
	})
	want := mustRun(t, &core.Select{Input: heapScan(t, cat, "r"), Cond: cond}, NewContext(cat, new(Store))).Rows
	if len(want) < 10 {
		t.Fatalf("window too small to exercise the sort: %d rows", len(want))
	}
	ctx := NewContext(cat, new(Store))
	got := mustRun(t, is, ctx).Rows
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("heap-order window\ngot  %v\nwant %v", got, want)
	}
	if ctx.Counters.RowsScanned != int64(len(want)) {
		t.Errorf("RowsScanned = %d, want the window's %d rows", ctx.Counters.RowsScanned, len(want))
	}
	checkOracle(t, is, cat, got)
	c := &indexCursor{plan: is, ctx: NewContext(cat, new(Store))}
	if err := c.open(); err != nil {
		t.Fatal(err)
	}
	first := c.pos
	if err := c.open(); err != nil {
		t.Fatal(err)
	}
	if &first[0] != &c.pos[0] {
		t.Error("re-Open against the same run re-resolved the window")
	}
}

// drainCount opens it, counts live rows to exhaustion and closes it.
func drainCount(tb testing.TB, it BatchIterator) int {
	if err := it.Open(); err != nil {
		tb.Fatal(err)
	}
	n := 0
	for {
		b, err := it.NextBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if b == nil {
			break
		}
		n += b.Len()
	}
	if err := it.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestProbeAllocsPerLeftRow pins the probe's allocation profile after
// warm-up: nothing per left row and nothing per Open — no drain, no run,
// no key encoding of the right side. Matches land in the join's output
// slab, which is replaced once per batch of output rows (row values are
// immutable once emitted), so the matching case may allocate at that
// rate and no faster.
func TestProbeAllocsPerLeftRow(t *testing.T) {
	cat := storage.NewCatalog()
	var left, miss, right []any
	for i := 0; i < 2048; i++ {
		left = append(left, i%1000)
		miss = append(miss, 5000+i)
	}
	for i := 0; i < 1000; i++ {
		right = append(right, i)
	}
	addTable(t, cat, "hit", left)
	addTable(t, cat, "miss", miss)
	addTable(t, cat, "r", right)
	for _, tc := range []struct {
		left    string
		maxPerL float64
	}{{"miss", 0}, {"hit", 1.0 / batchSize}} {
		j := &core.Join{
			Left: heapScan(t, cat, tc.left), Right: keyIndexScan(t, cat, "r"), Method: core.JoinMerge,
			Cond: &core.Cmp{Op: "=", L: core.QCol(tc.left, tc.left+"_k"), R: core.QCol("r", "r_k")},
		}
		ctx := attached(cat)
		it, _, err := buildBatchJoin(j, nil, nil, ctx, compileEnv{})
		if err != nil {
			t.Fatal(err)
		}
		drainCount(t, it) // warm-up: key buffer, output containers
		allocs := testing.AllocsPerRun(20, func() { drainCount(t, it) })
		if perLeft := allocs / float64(len(left)); perLeft > tc.maxPerL {
			t.Errorf("%s: %.0f allocs per run = %.4f per left row, want ≤ %.4f", tc.left, allocs, perLeft, tc.maxPerL)
		}
	}
}

// TestHashJoinBuildAllocs pins the hash join's build after warm-up: a
// re-Opened join drains its 10 000-row build side, keys it and lays it
// out in buffers kept from the last Open, so it allocates nothing per
// build row — only the probe's output slab.
func TestHashJoinBuildAllocs(t *testing.T) {
	const build = 10000
	cat := storage.NewCatalog()
	var left, right []any
	for i := 0; i < 64; i++ {
		left = append(left, i*131%build)
	}
	for i := 0; i < build; i++ {
		right = append(right, (i*7919)%(build/2)) // two build rows per key
	}
	right[5] = nil // a NULL key, never built
	addTable(t, cat, "l", left)
	addTable(t, cat, "r", right)
	j := &core.Join{
		Left: heapScan(t, cat, "l"), Right: heapScan(t, cat, "r"), Method: core.JoinHash,
		Cond: &core.Cmp{Op: "=", L: core.QCol("l", "l_k"), R: core.QCol("r", "r_k")},
	}
	ctx := attached(cat)
	it, _, err := buildBatchJoin(j, nil, nil, ctx, compileEnv{})
	if err != nil {
		t.Fatal(err)
	}
	drainCount(t, it)
	allocs := testing.AllocsPerRun(20, func() { drainCount(t, it) })
	if perRow := allocs / build; perRow > 0.01 {
		t.Errorf("%.0f allocs per run = %.4f per build row, want ≤ 0.01", allocs, perRow)
	}
}

// benchCatalog is the entity_serving shape at sf 0.05: a 40 000-row
// fact table whose 500 keys each own 80 scattered rows, a 10 000-row
// dimension, and probe tables of 80 and 40 000 rows.
func benchCatalog(b *testing.B) *storage.Catalog {
	cat := storage.NewCatalog()
	var fact, dim, p80, p40k []any
	for i := 0; i < 40000; i++ {
		fact = append(fact, (i*131)%500)
		p40k = append(p40k, (i*7919)%10000)
	}
	for i := 0; i < 10000; i++ {
		dim = append(dim, i)
	}
	for i := 0; i < 80; i++ {
		p80 = append(p80, (i*7919)%10000)
	}
	addTable(b, cat, "fact", fact)
	addTable(b, cat, "dim", dim)
	addTable(b, cat, "p80", p80)
	addTable(b, cat, "p40000", p40k)
	return cat
}

// benchRun drains plan once per iteration on the batch engine and
// reports ns, allocations and bytes per row: per output row, or per input
// row when inputRows is set. A plain run re-opens one tree, whose arena
// is never released: past its cap its slabs are plain makes the GC
// reclaims. A recycled run is a request's life — build on an arena of
// the one store, drain, release — so its storage comes back each
// iteration.
func benchRun(b *testing.B, cat *storage.Catalog, plan core.Node, inputRows int, recycled bool) {
	build := func(ctx *Context) BatchIterator {
		it, err := BuildBatch(plan, ctx)
		if err != nil {
			b.Fatal(err)
		}
		return it
	}
	it := build(NewContext(cat, new(Store)))
	drain := func() int { return drainCount(b, it) }
	if recycled {
		st := new(Store)
		drain = func() int {
			ctx := NewContext(cat, st)
			defer ctx.ReleaseArena()
			return drainCount(b, build(ctx))
		}
	}
	rows := drain()
	if inputRows > 0 {
		rows = inputRows
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		drain()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N * rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/row")
}

// BenchmarkSelectiveScan: the one-supplier filter over the fact table,
// as a heap Scan+Select and as a heap-order seek (same rows, same
// order), per output row.
func BenchmarkSelectiveScan(b *testing.B) {
	cat := benchCatalog(b)
	cond := &core.Cmp{Op: "=", L: core.QCol("fact", "fact_k"), R: core.LitInt(17)}
	seek := keyIndexScan(b, cat, "fact")
	seek.HeapOrder = true
	seek.Lo, seek.Hi, seek.HasLo, seek.HasHi, seek.LoIncl, seek.HiIncl = types.NewInt(17), types.NewInt(17), true, true, true, true
	b.Run("scan", func(b *testing.B) {
		benchRun(b, cat, &core.Select{Input: heapScan(b, cat, "fact"), Cond: cond}, 0, false)
	})
	b.Run("seek", func(b *testing.B) { benchRun(b, cat, &core.Select{Input: seek, Cond: cond}, 0, false) })
}

// BenchmarkJoinProbe: a probe table joined to the 10 000-row dimension
// by a hash join (build + probe per execution), also with its storage
// recycled, and by a merge join probing the dimension's index in place,
// per output row.
func BenchmarkJoinProbe(b *testing.B) {
	cat := benchCatalog(b)
	for _, left := range []string{"p80", "p40000"} {
		cond := &core.Cmp{Op: "=", L: core.QCol(left, left+"_k"), R: core.QCol("dim", "dim_k")}
		hash := &core.Join{Left: heapScan(b, cat, left), Right: heapScan(b, cat, "dim"), Cond: cond, Method: core.JoinHash}
		probe := &core.Join{Left: heapScan(b, cat, left), Right: keyIndexScan(b, cat, "dim"), Cond: cond, Method: core.JoinMerge}
		b.Run(fmt.Sprintf("hash/%s", left), func(b *testing.B) { benchRun(b, cat, hash, 0, false) })
		b.Run(fmt.Sprintf("hash/%s/recycled", left), func(b *testing.B) { benchRun(b, cat, hash, 0, true) })
		b.Run(fmt.Sprintf("probe/%s", left), func(b *testing.B) { benchRun(b, cat, probe, 0, false) })
	}
}

// keyedScan is a scan of a 40 000-row table whose rows (k, 3k) take
// keys distinct values, interleaved, for the grouping benchmarks.
func keyedScan(b *testing.B, keys int) (*storage.Catalog, core.Node) {
	cat := storage.NewCatalog()
	tab, err := cat.Create(&schema.TableDef{Name: "x", Schema: schema.New(
		schema.Column{Name: "x_k", Type: types.KindInt},
		schema.Column{Name: "x_v", Type: types.KindInt},
	)})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40000; i++ {
		k := int64((i * 7919) % keys)
		if err := tab.Append(types.Row{types.NewInt(k), types.NewInt(3 * k)}); err != nil {
			b.Fatal(err)
		}
	}
	return cat, heapScan(b, cat, "x")
}

// BenchmarkGroupBy: hash grouping of 40 000 rows into 500 and 2 000
// keys, count(*) and sum per group, per input row, re-opened and with
// its storage recycled.
func BenchmarkGroupBy(b *testing.B) {
	for _, keys := range []int{500, 2000} {
		cat, scan := keyedScan(b, keys)
		plan := &core.GroupBy{Input: scan, GroupCols: []*core.ColRef{core.Col("x_k")},
			Aggs: []core.AggSpec{{Fn: "count", Star: true}, {Fn: "sum", Arg: core.Col("x_v")}}}
		b.Run(fmt.Sprintf("k%d", keys), func(b *testing.B) { benchRun(b, cat, plan, 40000, false) })
		b.Run(fmt.Sprintf("k%d/recycled", keys), func(b *testing.B) { benchRun(b, cat, plan, 40000, true) })
	}
}

// BenchmarkDistinct: SELECT DISTINCT over 40 000 rows holding 500 and
// 2 000 distinct rows, and count(DISTINCT k) over them, per input row.
func BenchmarkDistinct(b *testing.B) {
	for _, keys := range []int{500, 2000} {
		cat, scan := keyedScan(b, keys)
		count := &core.AggOp{Input: scan, Aggs: []core.AggSpec{{Fn: "count", Distinct: true, Arg: core.Col("x_k")}}}
		b.Run(fmt.Sprintf("rows/k%d", keys), func(b *testing.B) { benchRun(b, cat, &core.Distinct{Input: scan}, 40000, false) })
		b.Run(fmt.Sprintf("count/k%d", keys), func(b *testing.B) { benchRun(b, cat, count, 40000, false) })
	}
}
