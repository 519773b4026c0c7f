package exec

import (
	"fmt"
	"testing"
	"testing/quick"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// renderRows prints a result row-for-row; parallel execution must match
// serial execution byte-for-byte, ordering included.
func renderRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func runAtDOP(t *testing.T, mk func(ctx *Context) *core.GApply, dop int) (*Result, Counters) {
	t.Helper()
	ctx := fixture(t)
	ctx.DOP = dop
	res := mustRun(t, mk(ctx), ctx)
	return res, ctx.Counters
}

// TestGApplyParallelMatchesSerial pins the tentpole contract: for every
// workload shape and partition strategy, executing the groups at any
// degree produces exactly the rows serial execution produces, in exactly
// the same order, with exactly the same counter totals. A hash GApply
// runs its groups across a worker pool; a sort-hinted one streams its
// groups off the enforcer sort, serially at every degree.
func TestGApplyParallelMatchesSerial(t *testing.T) {
	shapes := []struct {
		name     string
		mk       func(ctx *Context) *core.GApply
		parallel bool
	}{
		{"Q1Hash", func(ctx *Context) *core.GApply { return gapplyQ1(ctx, core.PartitionHash) }, true},
		{"Q1Sort", func(ctx *Context) *core.GApply { return gapplyQ1(ctx, core.PartitionSort) }, false},
		{"Q2", gapplyQ2, true},
	}
	for _, s := range shapes {
		serial, serialCounters := runAtDOP(t, s.mk, 1)
		want := renderRows(serial.Rows)
		for _, dop := range []int{2, 3, 8} {
			par, parCounters := runAtDOP(t, s.mk, dop)
			got := renderRows(par.Rows)
			if len(got) != len(want) {
				t.Fatalf("%s dop=%d: %d rows, want %d", s.name, dop, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s dop=%d: row %d = %s, want %s", s.name, dop, i, got[i], want[i])
				}
			}
			if !s.parallel {
				if parCounters != serialCounters {
					t.Errorf("%s dop=%d: counters %+v, want the serial run's %+v", s.name, dop, parCounters, serialCounters)
				}
				continue
			}
			// The serial/parallel split counters are the one intentional
			// difference between the paths: every group must move from
			// the serial tally to the parallel one, totals preserved.
			if parCounters.SerialGroupExecs != 0 ||
				parCounters.ParallelGroupExecs != serialCounters.SerialGroupExecs {
				t.Errorf("%s dop=%d: group-exec split %d/%d, want 0/%d",
					s.name, dop, parCounters.SerialGroupExecs,
					parCounters.ParallelGroupExecs, serialCounters.SerialGroupExecs)
			}
			norm := func(c Counters) Counters {
				c.SerialGroupExecs, c.ParallelGroupExecs = 0, 0
				return c
			}
			if norm(parCounters) != norm(serialCounters) {
				t.Errorf("%s dop=%d: counters %+v, want %+v", s.name, dop, parCounters, serialCounters)
			}
		}
	}
}

// TestGApplyParallelRandomized extends the formal-semantics property
// check: on random multisets, every parallel degree reproduces the
// serial output exactly, under both partition strategies.
func TestGApplyParallelRandomized(t *testing.T) {
	f := func(keys []uint8, useSort bool) bool {
		cat := buildFixtureCatalog()
		tab, err := cat.Lookup("partsupp")
		if err != nil {
			return false
		}
		tab.Rows = nil
		for i, k := range keys {
			tab.Rows = append(tab.Rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(k % 16))})
		}
		hint := core.PartitionHash
		if useSort {
			hint = core.PartitionSort
		}
		mk := func() *core.GApply {
			gs := &core.GroupScan{Var: "g"}
			pgq := &core.AggOp{Input: gs, Aggs: []core.AggSpec{
				{Fn: "count", Star: true, As: "n"},
				{Fn: "min", Arg: core.Col("ps_partkey"), As: "lo"},
				{Fn: "max", Arg: core.Col("ps_partkey"), As: "hi"},
			}}
			ga := core.NewGApply(&core.Scan{Table: "partsupp", Def: tab.Def},
				[]*core.ColRef{core.Col("ps_suppkey")}, "g", pgq)
			ga.Partition = hint
			return core.LowerSortPartition(ga)
		}
		var want []string
		for _, dop := range []int{1, 2, 7} {
			ctx := NewContext(cat, new(Store))
			ctx.DOP = dop
			res, err := Run(mk(), ctx)
			if err != nil {
				return false
			}
			got := renderRows(res.Rows)
			if dop == 1 {
				want = got
				continue
			}
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGApplyParallelErrorPropagates: a per-group query that fails must
// surface its error through the reorder stage, and the pool must wind
// down cleanly (the -race run would flag leaked workers touching freed
// state).
func TestGApplyParallelErrorPropagates(t *testing.T) {
	ctx := fixture(t)
	ctx.DOP = 4
	gs := &core.GroupScan{Var: "g"}
	// abs() of a string fails at evaluation time in every group.
	pgq := core.NewProject(gs,
		[]core.Expr{&core.Func{Name: "abs", Args: []core.Expr{core.Col("p_name")}}},
		[]string{"boom"})
	ga := core.NewGApply(joined(ctx), []*core.ColRef{core.Col("ps_suppkey")}, "g", pgq)
	if _, err := Run(ga, ctx); err == nil {
		t.Fatal("per-group failure must propagate out of parallel GApply")
	}
}

// TestGApplyCorrelatedInnerFallsBackSerial pins the safety valve: a
// per-group query that reads the enclosing Apply's outer row cannot be
// cloned into workers, so GApply keeps the paper's serial execution for
// it — and still computes the right answer at any requested DOP.
func TestGApplyCorrelatedInnerFallsBackSerial(t *testing.T) {
	ctx := attached(newTestCatalog(t))
	ctx.DOP = 8
	// For each supplier s: GApply over partsupp grouped by ps_partkey,
	// whose per-group query keeps the group's rows matching s — the
	// OuterRef makes the inner correlated.
	gs := &core.GroupScan{Var: "g"}
	pgq := &core.Select{
		Input: gs,
		Cond:  &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Name: "s_suppkey"}},
	}
	ga := core.NewGApply(scan(ctx, "partsupp"), []*core.ColRef{core.Col("ps_partkey")}, "g", pgq)
	it, err := buildBatchGApply(ga, ctx, compileEnv{}.push(scan(ctx, "supplier").Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if !it.(*bgapply).correlated {
		t.Fatal("OuterRef in the per-group query must mark the GApply correlated")
	}
	if it.(*bgapply).degree() != 1 {
		t.Error("correlated GApply must fall back to serial execution")
	}

	// End-to-end through Apply: the full plan must agree with the flat
	// join it is equivalent to.
	app := &core.Apply{Outer: scan(ctx, "supplier"), Inner: ga}
	res := mustRun(t, app, ctx)
	rows := 0
	for _, r := range res.Rows {
		// supplier row ++ (ps_partkey, ps_partkey, ps_suppkey): the kept
		// rows are exactly the supplier's partsupp entries.
		if r[0].Int() != r[4].Int() {
			t.Fatalf("row pairs wrong supplier: %v", r)
		}
		rows++
	}
	if rows != 5 { // |partsupp|
		t.Errorf("correlated GApply kept %d rows, want 5", rows)
	}
}

// TestGApplyParallelEarlyClose: closing the iterator mid-stream must
// stop the pool without deadlocking, even though most groups were never
// consumed.
func TestGApplyParallelEarlyClose(t *testing.T) {
	cat := buildFixtureCatalog()
	tab, err := cat.Lookup("partsupp")
	if err != nil {
		t.Fatal(err)
	}
	tab.Rows = nil
	for i := 0; i < 400; i++ {
		tab.Rows = append(tab.Rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 100))})
	}
	ctx := NewContext(cat, new(Store))
	ctx.DOP = 4
	gs := &core.GroupScan{Var: "g"}
	pgq := &core.AggOp{Input: gs, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	ga := core.NewGApply(scan(ctx, "partsupp"), []*core.ColRef{core.Col("ps_suppkey")}, "g", pgq)
	it, err := BuildBatch(ga, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := it.NextBatch(); err != nil || b == nil {
		t.Fatalf("first batch: %v err=%v", b, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-execution after Close must still work (Apply relies on this).
	if n := drainCount(t, it); n != 100 {
		t.Errorf("re-opened run = %d rows, want 100", n)
	}
}
