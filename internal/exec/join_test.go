package exec

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/oracle"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// The join methods side by side. Every way the engine joins a left row
// to its matches — a hash table, a merge run drained from its input or
// probed in place in an index, a scan of every drained row, and an
// Apply re-running its inner per left row — must emit the same rows in
// the same order: the left input's order, and within a left row its
// matches in right-input order.

// fanOut is the key the one left row shares with more right rows than
// fit one output batch.
const fanOut = 99

// joinCatalog is probeCatalog (NULL and duplicate keys on both sides,
// the right heap shuffled) plus one left row whose key fanOut matches
// batchSize+44 right rows.
func joinCatalog(t testing.TB) *storage.Catalog {
	cat := probeCatalog(t)
	for name, n := range map[string]int{"l": 1, "r": batchSize + 44} {
		tab, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for range n {
			if err := tab.Append(types.Row{types.NewInt(fanOut), types.NewInt(int64(len(tab.Rows)))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}

// joinShape is a join of l and r: its kind, its condition over l's
// columns as col gives them (a column of the join's input, or an outer
// reference of an Apply's inner), and a filter over its output, which
// the engine fuses into a join as its post-filter.
type joinShape struct {
	name string
	kind core.JoinKind
	cond func(col func(string) core.Expr) core.Expr
	post core.Expr
}

func joinShapes() []joinShape {
	eq := func(col func(string) core.Expr) core.Expr {
		return &core.Cmp{Op: "=", L: col("l_k"), R: core.QCol("r", "r_k")}
	}
	residual := func(col func(string) core.Expr) core.Expr {
		return core.AndAll([]core.Expr{eq(col), &core.Cmp{Op: "<", L: col("l_v"), R: core.QCol("r", "r_v")}})
	}
	post := &core.Cmp{Op: ">", L: core.QCol("r", "r_v"), R: core.LitInt(30)}
	postPad := &core.Cmp{Op: ">", L: core.QCol("l", "l_v"), R: core.LitInt(10)}
	return []joinShape{
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
}

// joinMethods are the ways to run a shape, each as a plan over cat.
var joinMethods = []struct {
	name string
	plan func(t testing.TB, cat *storage.Catalog, s joinShape) core.Node
}{
	{"hash", func(t testing.TB, cat *storage.Catalog, s joinShape) core.Node {
		return s.join(heapScan(t, cat, "l"), heapScan(t, cat, "r"), core.JoinHash)
	}},
	// A filter keeping every row stands between the join and the index,
	// so the run is drained rather than probed.
	{"merge", func(t testing.TB, cat *storage.Catalog, s joinShape) core.Node {
		all := &core.Select{Input: keyIndexScan(t, cat, "r"), Cond: &core.Cmp{Op: ">=", L: core.QCol("r", "r_v"), R: core.LitInt(0)}}
		return s.join(heapScan(t, cat, "l"), all, core.JoinMerge)
	}},
	{"probed merge", func(t testing.TB, cat *storage.Catalog, s joinShape) core.Node {
		n := s.join(heapScan(t, cat, "l"), keyIndexScan(t, cat, "r"), core.JoinMerge)
		if _, ok := joinOf(n).ProbedIndex(); !ok {
			t.Fatal("plan is not a probed merge join")
		}
		return n
	}},
	{"nested loops", func(t testing.TB, cat *storage.Catalog, s joinShape) core.Node {
		return s.join(heapScan(t, cat, "l"), heapScan(t, cat, "r"), core.JoinNestedLoops)
	}},
	// The condition filters the Apply's inner, reading l's columns as
	// outer references.
	{"apply", func(t testing.TB, cat *storage.Catalog, s joinShape) core.Node {
		outerRef := func(name string) core.Expr { return &core.OuterRef{Table: "l", Name: name} }
		kind := core.CrossApply
		if s.kind == core.LeftOuterJoin {
			kind = core.OuterApply
		}
		inner := &core.Select{Input: heapScan(t, cat, "r"), Cond: s.cond(outerRef)}
		return s.filtered(&core.Apply{Kind: kind, Outer: heapScan(t, cat, "l"), Inner: inner})
	}},
}

// join is the shape as a join of left and right by method.
func (s joinShape) join(left, right core.Node, method core.JoinMethod) core.Node {
	col := func(name string) core.Expr { return core.QCol("l", name) }
	return s.filtered(&core.Join{Left: left, Right: right, Kind: s.kind, Cond: s.cond(col), Method: method})
}

func (s joinShape) filtered(n core.Node) core.Node {
	if s.post == nil {
		return n
	}
	return &core.Select{Input: n, Cond: s.post}
}

// joinOf is the join in plan n.
func joinOf(n core.Node) *core.Join {
	var j *core.Join
	core.Walk(n, func(n core.Node) {
		if x, ok := n.(*core.Join); ok {
			j = x
		}
	})
	return j
}

// TestNestedLoopsJoinMatchesHash: on every shape, over NULL and
// duplicate keys and a left row with more matches than one output
// batch holds, each join method and Apply over the same inner emit the
// hash join's rows in the hash join's order, which the reference
// interpreter checks. Each method's counters are pinned to
// testdata/join_methods.golden, recorded from the separate hash, merge,
// nested-loops and Apply iterators the one join operator replaced.
func TestNestedLoopsJoinMatchesHash(t *testing.T) {
	cat := joinCatalog(t)
	var b strings.Builder
	for _, s := range joinShapes() {
		t.Run(s.name, func(t *testing.T) {
			var want []types.Row
			for i, m := range joinMethods {
				plan := m.plan(t, cat, s)
				ctx := NewContext(cat, new(Store))
				got := mustRun(t, plan, ctx).Rows
				if i == 0 {
					want = got
					checkOracle(t, plan, cat, want)
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s diverged from the hash join:\ngot  %v\nwant %v", m.name, got, want)
				}
				fmt.Fprintf(&b, "%s %s: %d rows %+v\n", s.name, m.name, len(got), ctx.Counters)
			}
			if n := fanOutRows(want); n <= batchSize {
				t.Fatalf("the fan-out row emits %d rows, not more than one batch", n)
			}
		})
	}
	checkGolden(t, "join_methods.golden", b.String())
}

// fanOutRows counts the rows of the left row whose key is fanOut.
func fanOutRows(rows []types.Row) int {
	n := 0
	for _, r := range rows {
		if !r[0].IsNull() && r[0].Int() == fanOut {
			n++
		}
	}
	return n
}

// checkGolden compares got with testdata/name line by line, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateCounters {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s:\ngot  %q\nwant %q", i+1, path, g, w)
		}
	}
}

// TestProbedMergeJoinMatchesHashJoin: the probed merge join, one method
// of TestNestedLoopsJoinMatchesHash, reads the same rows and counts the
// same entries scanned under a profile, which credits them, with one
// loop per join Open, to the IndexScan node the probe replaced.
func TestProbedMergeJoinMatchesHashJoin(t *testing.T) {
	cat := joinCatalog(t)
	l, err := cat.Lookup("l")
	if err != nil {
		t.Fatal(err)
	}
	probed := joinMethods[2]
	for _, s := range joinShapes() {
		t.Run(s.name, func(t *testing.T) {
			var rows [2][]types.Row
			var scanned [2]int64
			for i, prof := range []bool{false, true} {
				ctx := NewContext(cat, new(Store))
				if prof {
					ctx.Prof = NewProfile()
				}
				p := probed.plan(t, cat, s)
				rows[i] = mustRun(t, p, ctx).Rows
				scanned[i] = ctx.Counters.RowsScanned
				if prof {
					st := ctx.Prof.Stats(joinOf(p).Right)
					if want := scanned[i] - int64(len(l.Rows)); st.Opens != 1 || st.Rows != want {
						t.Errorf("probed IndexScan stats %+v, want 1 loop and %d rows", st, want)
					}
				}
			}
			if !reflect.DeepEqual(rows[1], rows[0]) || scanned[1] != scanned[0] {
				t.Fatalf("a profile changes the probed join: %d rows, %d scanned; profiled %d rows, %d scanned",
					len(rows[0]), scanned[0], len(rows[1]), scanned[1])
			}
		})
	}
}

// TestJoinMethodsFailAlike: a residual that fails on the fan-out row's
// matches, and a post-filter that fails on a NULL-padded row, fail
// every method with the hash join's error, and the reference
// interpreter fails too.
func TestJoinMethodsFailAlike(t *testing.T) {
	cat := joinCatalog(t)
	// 1/(l_v-n) divides by zero on the left row whose l_v is n: row 60 is
	// the fan-out row, row 3 has a NULL key.
	failsOn := func(col func(string) core.Expr, n int64) core.Expr {
		quot := &core.BinOp{Op: "/", L: core.LitInt(1), R: &core.BinOp{Op: "-", L: col("l_v"), R: core.LitInt(n)}}
		return &core.Cmp{Op: ">", L: quot, R: core.LitInt(0)}
	}
	eq := joinShapes()[0].cond
	lcol := func(name string) core.Expr { return core.QCol("l", name) }
	for _, s := range []joinShape{
		{"residual fails", core.InnerJoin, func(col func(string) core.Expr) core.Expr {
			return core.AndAll([]core.Expr{eq(col), failsOn(col, 60)})
		}, nil},
		{"post fails on a pad", core.LeftOuterJoin, eq, failsOn(lcol, 3)},
	} {
		t.Run(s.name, func(t *testing.T) {
			var want string
			for i, m := range joinMethods {
				plan := m.plan(t, cat, s)
				_, err := Run(plan, NewContext(cat, new(Store)))
				if err == nil {
					t.Fatalf("%s did not fail", m.name)
				}
				if i == 0 {
					want = err.Error()
					if _, err := oracle.Eval(plan, cat); err == nil {
						t.Fatal("the reference interpreter does not fail")
					}
				} else if err.Error() != want {
					t.Errorf("%s failed with %q, want %q", m.name, err, want)
				}
			}
		})
	}
}
