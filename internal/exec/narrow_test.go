package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/oracle"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// These tests pin narrow join emission below the planner: a join emits
// exactly the columns its consumer reads — rows of that width and no
// wider — with the values the full-width join would have carried there,
// under every join method, outer padding and fused post-filter. The
// root package's narrowing differential covers the SQL-reachable shapes
// end to end. BenchmarkSort and BenchmarkJoinEmit measure the sort
// kernel and narrow emission per row; the GroupBy and Distinct
// allocation pins are here too.

// narrowJoins are l ⋈ r (probeCatalog: duplicate and NULL keys on both
// sides, r shuffled) under every join method, and (l ⋈ r) ⋈ r2, whose
// left input is itself narrowed.
func narrowJoins(t testing.TB, cat *storage.Catalog, kind core.JoinKind) map[string]*core.Join {
	eq := &core.Cmp{Op: "=", L: core.QCol("l", "l_k"), R: core.QCol("r", "r_k")}
	residual := core.AndAll([]core.Expr{eq, &core.Cmp{Op: "<", L: core.QCol("l", "l_v"), R: core.QCol("r", "r_v")}})
	drained := &core.Select{Input: keyIndexScan(t, cat, "r"), Cond: &core.Cmp{Op: ">=", L: core.QCol("r", "r_v"), R: core.LitInt(0)}}
	r2 := heapScan(t, cat, "r")
	r2.Alias = "r2"
	return map[string]*core.Join{
		"nested": {
			Left:  &core.Join{Left: heapScan(t, cat, "l"), Right: heapScan(t, cat, "r"), Kind: kind, Cond: eq, Method: core.JoinHash},
			Right: r2, Kind: kind, Method: core.JoinHash,
			Cond: &core.Cmp{Op: "=", L: core.QCol("r", "r_v"), R: core.QCol("r2", "r_k")},
		},
		"hash":          {Left: heapScan(t, cat, "l"), Right: heapScan(t, cat, "r"), Kind: kind, Cond: eq, Method: core.JoinHash},
		"hash-residual": {Left: heapScan(t, cat, "l"), Right: heapScan(t, cat, "r"), Kind: kind, Cond: residual, Method: core.JoinHash},
		"merge-probe":   {Left: heapScan(t, cat, "l"), Right: keyIndexScan(t, cat, "r"), Kind: kind, Cond: eq, Method: core.JoinMerge},
		"merge-drain":   {Left: heapScan(t, cat, "l"), Right: drained, Kind: kind, Cond: residual, Method: core.JoinMerge},
		"nested-loops":  {Left: heapScan(t, cat, "l"), Right: heapScan(t, cat, "r"), Kind: kind, Cond: residual, Method: core.JoinNestedLoops},
	}
}

// TestJoinEmitsItsNeed: every emitted row has len == cap == len(need),
// and holds exactly the need's columns of the full-width join's row, in
// the full join's order.
func TestJoinEmitsItsNeed(t *testing.T) {
	cat := probeCatalog(t)
	post := &core.Cmp{Op: ">", L: core.QCol("r", "r_v"), R: core.LitInt(30)}
	needs := [][]int{{}, {1}, {3}, {0, 3}, {1, 2}, {0, 1, 2, 3}, {1, 5}, {4}}
	for _, kind := range []core.JoinKind{core.InnerJoin, core.LeftOuterJoin} {
		for name, j := range narrowJoins(t, cat, kind) {
			for _, postCond := range []core.Expr{nil, post} {
				full := drainJoin(t, j, postCond, nil, cat)
				if postCond == nil && len(full) == 0 {
					t.Fatalf("%s: empty join", name)
				}
				for _, need := range needs {
					if len(need) > 0 && need[len(need)-1] >= j.Schema().Len() {
						continue
					}
					got := drainJoin(t, j, postCond, need, cat)
					if len(got) != len(full) {
						t.Fatalf("%s kind=%d post=%v need=%v: %d rows, full join %d", name, kind, postCond != nil, need, len(got), len(full))
					}
					for i, r := range got {
						if len(r) != len(need) || cap(r) != len(need) {
							t.Fatalf("%s need=%v: row %d has len %d cap %d", name, need, i, len(r), cap(r))
						}
						if want := full[i].Project(need); !reflect.DeepEqual(r, want) {
							t.Fatalf("%s kind=%d post=%v need=%v: row %d = %v, want %v", name, kind, postCond != nil, need, i, r, want)
						}
					}
				}
			}
		}
	}
}

func drainJoin(t testing.TB, j *core.Join, postCond core.Expr, need []int, cat *storage.Catalog) []types.Row {
	t.Helper()
	ctx := attached(cat)
	it, emit, err := buildBatchJoin(j, postCond, need, ctx, compileEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(emit, need) {
		t.Fatalf("join reports emission %v for need %v", emit, need)
	}
	rows, err := drainBatchRows(it, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestProjectOfEmissionIsTheJoin: a pure-column Project whose list is
// exactly the join's emission, in order, compiles to the join itself; a
// reordered list keeps its projection.
func TestProjectOfEmissionIsTheJoin(t *testing.T) {
	ctx := fixture(t)
	for _, tc := range []struct {
		cols []*core.ColRef
		join bool
	}{
		{[]*core.ColRef{core.Col("ps_suppkey"), core.Col("p_name")}, true},
		{[]*core.ColRef{core.Col("p_name"), core.Col("ps_suppkey")}, false},
		{[]*core.ColRef{core.Col("ps_suppkey"), core.Col("ps_suppkey")}, false},
	} {
		it, err := BuildBatch(core.ProjectCols(joined(ctx), tc.cols), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if j, isJoin := it.(*bJoin); isJoin != tc.join || isJoin && j.method != joinHash {
			t.Errorf("Project %v built %T", tc.cols, it)
		}
	}
}

// TestNarrowingKeepsCompileErrors: a reference that does not resolve
// against the full join schema — here an unqualified column both sides
// of a self-join carry — turns narrowing off, so the build fails with
// the error resolving against the full schema gives (the reference
// interpreter's) rather than compiling against a projection where the
// name happens to be unique.
func TestNarrowingKeepsCompileErrors(t *testing.T) {
	cat := probeCatalog(t)
	l, err := cat.Lookup("l")
	if err != nil {
		t.Fatal(err)
	}
	self := &core.Join{
		Left:  &core.Scan{Table: "l", Def: l.Def, Alias: "a"},
		Right: &core.Scan{Table: "l", Def: l.Def, Alias: "b"},
		Cond:  &core.Cmp{Op: "=", L: core.QCol("a", "l_k"), R: core.QCol("b", "l_k")},
	}
	for _, plan := range []core.Node{
		core.ProjectCols(self, []*core.ColRef{core.QCol("a", "l_k"), core.Col("l_v")}),
		&core.GroupBy{Input: self, GroupCols: []*core.ColRef{core.Col("l_v")}},
		&core.AggOp{Input: self, Aggs: []core.AggSpec{{Fn: "sum", Arg: core.Col("l_v")}}},
	} {
		_, berr := BuildBatch(plan, NewContext(cat, new(Store)))
		_, oerr := oracle.Eval(plan, cat)
		if berr == nil || oerr == nil || berr.Error() != oerr.Error() {
			t.Errorf("%s: build error %v, reference error %v", core.Summary(plan), berr, oerr)
		}
	}
}

// TestGroupByAllocsPerInputRow: after warm-up, grouping allocates per
// output batch, never per input row, and — the key table and the
// accumulator slab being reused — not per group either.
func TestGroupByAllocsPerInputRow(t *testing.T) {
	for _, groups := range []int{10, 2000} {
		cat := storage.NewCatalog()
		keys := make([]any, 10000)
		for i := range keys {
			keys[i] = i % groups
		}
		addTable(t, cat, "g", keys)
		plan := &core.GroupBy{
			Input:     heapScan(t, cat, "g"),
			GroupCols: []*core.ColRef{core.Col("g_k")},
			Aggs:      []core.AggSpec{{Fn: "count", Star: true}, {Fn: "sum", Arg: core.Col("g_v")}},
		}
		it, err := BuildBatch(plan, NewContext(cat, new(Store)))
		if err != nil {
			t.Fatal(err)
		}
		if n := drainCount(t, it); n != groups {
			t.Fatalf("%d groups, want %d", n, groups)
		}
		allocs := testing.AllocsPerRun(20, func() { drainCount(t, it) })
		if perRow := allocs / float64(len(keys)); perRow > 0.01 {
			t.Errorf("%d groups: %.0f allocs per run = %.4f per input row, want ≤ 0.01", groups, allocs, perRow)
		}
	}
}

// TestDistinctAllocsPerInputRow: after warm-up, SELECT DISTINCT and
// count(DISTINCT …) allocate nothing per input row — neither encodes a
// key per row.
func TestDistinctAllocsPerInputRow(t *testing.T) {
	const rows, distinct = 10000, 2000
	cat := storage.NewCatalog()
	tab, err := cat.Create(&schema.TableDef{Name: "d", Schema: schema.New(
		schema.Column{Name: "d_k", Type: types.KindInt},
		schema.Column{Name: "d_s", Type: types.KindString},
	)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		k := i % distinct
		if err := tab.Append(types.Row{types.NewInt(int64(k)), types.NewString(fmt.Sprintf("s%d", k))}); err != nil {
			t.Fatal(err)
		}
	}
	scan := heapScan(t, cat, "d")
	for _, tc := range []struct {
		plan core.Node
		out  int
	}{
		{&core.Distinct{Input: scan}, distinct},
		{&core.AggOp{Input: scan, Aggs: []core.AggSpec{{Fn: "count", Distinct: true, Arg: core.Col("d_s")}}}, 1},
	} {
		it, err := BuildBatch(tc.plan, NewContext(cat, new(Store)))
		if err != nil {
			t.Fatal(err)
		}
		if n := drainCount(t, it); n != tc.out {
			t.Fatalf("%s: %d rows, want %d", core.Summary(tc.plan), n, tc.out)
		}
		allocs := testing.AllocsPerRun(20, func() { drainCount(t, it) })
		if perRow := allocs / rows; perRow > 0.01 {
			t.Errorf("%s: %.0f allocs per run = %.4f per input row, want ≤ 0.01", core.Summary(tc.plan), allocs, perRow)
		}
	}
}

// sortRows is a 40 000-row table (the partsupp cardinality at sf 0.05)
// with an int key of 500 distinct values (so ties run 80 deep), a string
// key of 2 000 values, and an int payload.
func sortRows() []types.Row {
	rng := rand.New(rand.NewSource(17))
	rows := make([]types.Row, 40000)
	for i := range rows {
		k := rng.Intn(500)
		rows[i] = types.Row{types.NewInt(int64(k)), types.NewString(fmt.Sprintf("Supplier#%09d", rng.Intn(2000))), types.NewInt(int64(i))}
	}
	return rows
}

// sliceSource is a BatchIterator over a fixed row slice.
type sliceSource struct{ win rowWindow }

func (s *sliceSource) Open() error                { s.win.pos = 0; return nil }
func (s *sliceSource) NextBatch() (*Batch, error) { return s.win.next(), nil }
func (s *sliceSource) Close() error               { return nil }

// BenchmarkSort: ORDER BY over 40 000 rows — an int key with deep ties
// (the sorted outer union's shape), a string key, and an asc+desc pair —
// per input row.
func BenchmarkSort(b *testing.B) {
	rows := sortRows()
	col := func(i int) evalFn {
		return func(r types.Row, _ *Context) (types.Value, error) { return r[i], nil }
	}
	for _, tc := range []struct {
		name string
		keys []compiledKey
	}{
		{"int", []compiledKey{{fn: col(0)}}},
		{"string", []compiledKey{{fn: col(1)}}},
		{"asc-desc", []compiledKey{{fn: col(0)}, {fn: col(1), desc: true}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			src := &sliceSource{}
			src.win.reset(rows)
			ctx := NewContext(storage.NewCatalog(), new(Store))
			s := &bSort{input: src, keys: tc.keys, ctx: ctx, in: chunked[types.Row]{arena: ctx.arena}}
			drainCount(b, s)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				drainCount(b, s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		})
	}
}

// wideTable creates table name with n rows of width int columns
// name_c0, name_c1, …: column 0 of row i is key(i), column c is i*c.
func wideTable(b *testing.B, cat *storage.Catalog, name string, n, width int, key func(int) int) {
	cols := make([]schema.Column, width)
	for c := range cols {
		cols[c] = schema.Column{Name: fmt.Sprintf("%s_c%d", name, c), Type: types.KindInt}
	}
	tab, err := cat.Create(&schema.TableDef{Name: name, Schema: schema.New(cols...)})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := make(types.Row, width)
		r[0] = types.NewInt(int64(key(i)))
		for c := 1; c < width; c++ {
			r[c] = types.NewInt(int64(i * c))
		}
		if err := tab.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinEmit: the sorted outer union's Q1 join at sf 0.05 — 40 000
// partsupp-shaped rows (5 columns) against 10 000 part-shaped rows (9
// columns), every left row matching once — by a hash join emitting all
// 14 columns and one emitting the 3 Q1's Project reads, per output row.
// The full and narrow arms re-open one tree, whose arena is never
// released: past its cap its emission slabs are plain makes the GC
// reclaims. The recycled arm is a request's life — attach an arena of
// the one store, build, drain, release — so its slabs come back each
// iteration.
func BenchmarkJoinEmit(b *testing.B) {
	cat := storage.NewCatalog()
	wideTable(b, cat, "ps", 40000, 5, func(i int) int { return (i * 7919) % 10000 })
	wideTable(b, cat, "pt", 10000, 9, func(i int) int { return i })
	j := &core.Join{
		Left: heapScan(b, cat, "ps"), Right: heapScan(b, cat, "pt"), Method: core.JoinHash,
		Cond: &core.Cmp{Op: "=", L: core.QCol("ps", "ps_c0"), R: core.QCol("pt", "pt_c0")},
	}
	for _, tc := range []struct {
		name string
		need []int
	}{{"full", nil}, {"narrow", []int{1, 6, 12}}} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := attached(cat)
			it, _, err := buildBatchJoin(j, nil, tc.need, ctx, compileEnv{})
			if err != nil {
				b.Fatal(err)
			}
			reportPerRow(b, func() int { return drainCount(b, it) })
		})
	}
	b.Run("recycled", func(b *testing.B) {
		st := new(Store)
		reportPerRow(b, func() int {
			ctx := NewContext(cat, st)
			ctx.attachArena()
			defer ctx.ReleaseArena()
			it, _, err := buildBatchJoin(j, nil, nil, ctx, compileEnv{})
			if err != nil {
				b.Fatal(err)
			}
			return drainCount(b, it)
		})
	})
}

// reportPerRow runs drain once to warm up, then b.N times, and reports
// its time and allocated bytes per row drained.
func reportPerRow(b *testing.B, drain func() int) {
	rows := drain()
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
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/row")
}
