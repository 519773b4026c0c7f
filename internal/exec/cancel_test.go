package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// grouped builds the obs table with n rows spread over g groups.
func groupedCatalog(t *testing.T, groups, perGroup int) *storage.Catalog {
	t.Helper()
	keys := make([]types.Value, 0, groups*perGroup)
	for i := 0; i < groups*perGroup; i++ {
		keys = append(keys, types.NewInt(int64(i%groups)))
	}
	return keyTable(t, types.KindInt, keys)
}

// heavySelfJoin is a per-group query expensive enough that cancellation
// must interrupt it mid-group: a nested-loops self-join of the group
// (quadratic in group size) under a count.
func heavySelfJoin(ctx *Context) *core.GApply {
	gs := func() core.Node { return &core.GroupScan{Var: "g"} }
	j := &core.Join{
		Left:  core.NewProject(gs(), []core.Expr{core.Col("v")}, []string{"a"}),
		Right: core.NewProject(gs(), []core.Expr{core.Col("v")}, []string{"b"}),
		Cond:  &core.Cmp{Op: "<", L: core.Col("a"), R: core.Col("b")},
	}
	agg := &core.AggOp{Input: j, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	return core.NewGApply(scan(ctx, "obs"), []*core.ColRef{core.Col("k")}, "g", agg)
}

// waitNoExtraGoroutines fails the test if the goroutine count does not
// return to the baseline (worker wind-down is synchronous, but the
// runtime's bookkeeping may trail the final wg.Wait by a beat).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	var n int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d at baseline, %d after\n%s", base, n, buf[:runtime.Stack(buf, true)])
}

// partitioners are the two ways a GApply forms the groups of an
// unordered outer, by name: the hash partition phase, and a sort-hinted
// GApply's enforcer sort under the streaming cutter. Each forms the
// groups of rows, delivered in batches, and visits them in the order
// the GApply runs them.
var partitioners = map[string]func(rows []types.Row, ords []int, ctx *Context, plan *core.GApply, visit func([]types.Row)) error{
	"hash": hashGroups,
	"sort": sortGroups,
}

// hashGroups runs the hash partition phase over rows.
func hashGroups(rows []types.Row, ords []int, ctx *Context, plan *core.GApply, visit func([]types.Row)) error {
	var p partitioner
	part, err := p.run(rowSource(rows), ords, ctx, plan)
	for i := 0; i < part.groups(); i++ {
		visit(part.group(i))
	}
	return err
}

// sortGroups sorts rows on their grouping columns and cuts the sorted
// runs, the sort charging the budget as it takes rows in: what a plan
// core.LowerSortPartition built runs.
func sortGroups(rows []types.Row, ords []int, ctx *Context, plan *core.GApply, visit func([]types.Row)) error {
	keys := make([]compiledKey, len(ords))
	for i, o := range ords {
		keys[i].fn = func(r types.Row, _ *Context) (types.Value, error) { return r[o], nil }
	}
	s := &bSort{input: rowSource(rows), keys: keys, ctx: ctx, charge: plan, in: chunked[types.Row]{arena: ctx.arena}}
	g := cutter(s, ords, ctx, plan)
	g.cut.charged = plan != nil
	return eachCut(g, visit)
}

// TestCancelDuringPartitionPhase drives the partition functions directly
// with an already-cancelled context: every strategy must abandon the
// phase with context.Canceled instead of materializing every group, at
// its first poll: within cancelBatch rows. The streaming cutter, over
// the same rows in key order, must stop as promptly.
func TestCancelDuringPartitionPhase(t *testing.T) {
	rows := make([]types.Row, 4096)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 32)), types.NewInt(int64(i))}
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, part := range partitioners {
		ctx := NewContext(buildFixtureCatalog(), new(Store))
		ctx.Ctx = cctx
		if err := part(rows, []int{0}, ctx, nil, func([]types.Row) {}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s partition with cancelled ctx: err = %v, want context.Canceled", name, err)
		}
		if ctx.ticks > cancelBatch {
			t.Errorf("%s partition polled %d rows before stopping, want ≤ %d", name, ctx.ticks, cancelBatch)
		}
	}
	sorted := make([]types.Row, len(rows))
	for i := range sorted {
		sorted[i] = types.Row{types.NewInt(int64(i / 128)), types.NewInt(int64(i))}
	}
	ctx := NewContext(buildFixtureCatalog(), new(Store))
	ctx.Ctx = cctx
	if _, err := cutGroups(sorted, []int{0}, ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("streamed partition with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if ctx.ticks > cancelBatch {
		t.Errorf("streamed partition polled %d rows before stopping, want ≤ %d", ctx.ticks, cancelBatch)
	}
}

// TestCancelBeforeExecution: a query started on an already-cancelled (or
// already-expired) context fails with the context's error — for both
// partition strategies, serial and parallel alike.
func TestCancelBeforeExecution(t *testing.T) {
	cat := groupedCatalog(t, 32, 32)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-expired.Done()
	for _, dop := range []int{1, 8} {
		for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
			ctx := NewContext(cat, new(Store))
			ctx.DOP = dop
			ctx.Ctx = cancelled
			ga := heavySelfJoin(ctx)
			ga.Partition = hint
			ga = core.LowerSortPartition(ga)
			if _, err := Run(ga, ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("dop=%d %v: err = %v, want context.Canceled", dop, hint, err)
			}

			tctx := NewContext(cat, new(Store))
			tctx.DOP = dop
			tctx.Ctx = expired
			ga = heavySelfJoin(tctx)
			ga.Partition = hint
			ga = core.LowerSortPartition(ga)
			if _, err := Run(ga, tctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("dop=%d %v: err = %v, want context.DeadlineExceeded", dop, hint, err)
			}
		}
	}
}

// TestCancelMidExecutionParallel is the acceptance check for the
// cancellation path: a parallel GApply at dop 8, cancelled after its
// first output batch, must surface context.Canceled within 100ms —
// workers mid-group included — and leak no goroutines. Groups a worker
// finished before the cancel may still be delivered first.
func TestCancelMidExecutionParallel(t *testing.T) {
	cat := groupedCatalog(t, 64, 150)
	base := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := NewContext(cat, new(Store))
	ctx.DOP = 8
	ctx.Ctx = cctx
	it, err := BuildBatch(heavySelfJoin(ctx), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := it.NextBatch(); err != nil || b == nil {
		t.Fatalf("first batch: %v err=%v", b, err)
	}
	cancel()
	start := time.Now()
	var nextErr error
	for {
		b, err := it.NextBatch()
		if err != nil {
			nextErr = err
			break
		}
		if b == nil {
			break
		}
	}
	elapsed := time.Since(start)
	if !errors.Is(nextErr, context.Canceled) {
		t.Fatalf("err after cancel = %v, want context.Canceled", nextErr)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want ≤ 100ms", elapsed)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoExtraGoroutines(t, base)
}

// TestCancelAfterLastRow: a cancel that lands after the final row has
// been produced must still surface — the caller must never mistake a
// result raced by cancellation for a committed success.
func TestCancelAfterLastRow(t *testing.T) {
	for _, dop := range []int{1, 8} {
		cctx, cancel := context.WithCancel(context.Background())
		ctx := fixture(t)
		ctx.DOP = dop
		ctx.Ctx = cctx
		it, err := BuildBatch(gapplyQ1(ctx, core.PartitionHash), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 7; { // Q1 over the fixture emits exactly 7 rows
			b, err := it.NextBatch()
			if err != nil || b == nil {
				t.Fatalf("dop=%d after %d rows: %v err=%v", dop, n, b, err)
			}
			n += b.Len()
		}
		cancel()
		if _, err := it.NextBatch(); !errorsIsCanceled(err) {
			t.Errorf("dop=%d: NextBatch after last row with cancel = %v, want context.Canceled", dop, err)
		}
		it.Close()
	}

	// Run-level: the materializing driver applies the same rule.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := fixture(t)
	ctx.Ctx = cctx
	if _, err := Run(scan(ctx, "supplier"), ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

func errorsIsCanceled(err error) bool { return errors.Is(err, context.Canceled) }

// TestParallelGroupErrorPropagatesNoLeak injects a failing per-group
// query (division by zero in exactly one group) at dop 8: the first
// error in partition order must propagate, every worker must be
// drained, and no goroutine may leak.
func TestParallelGroupErrorPropagatesNoLeak(t *testing.T) {
	cat := groupedCatalog(t, 64, 10)
	base := runtime.NumGoroutine()

	mk := func(ctx *Context) *core.GApply {
		gs := &core.GroupScan{Var: "g"}
		// 1 / (k - 3): fails exactly in the group with key 3.
		boom := &core.BinOp{Op: "/", L: core.LitInt(1),
			R: &core.BinOp{Op: "-", L: core.Col("k"), R: core.LitInt(3)}}
		pgq := core.NewProject(gs, []core.Expr{boom}, []string{"boom"})
		return core.NewGApply(scan(ctx, "obs"), []*core.ColRef{core.Col("k")}, "g", pgq)
	}

	ctx := NewContext(cat, new(Store))
	ctx.DOP = 8
	_, err := Run(mk(ctx), ctx)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want the injected division by zero", err)
	}
	waitNoExtraGoroutines(t, base)

	// The parallel path surfaces the same error serial execution does.
	sctx := NewContext(cat, new(Store))
	sctx.DOP = 1
	_, serr := Run(mk(sctx), sctx)
	if serr == nil || serr.Error() != err.Error() {
		t.Errorf("parallel error %q != serial error %q", err, serr)
	}
	waitNoExtraGoroutines(t, base)
}

// TestCancelledWorkersDropCleanly: cancelling mid-run and then closing
// must not deadlock Close or leak the pool, and the iterator must be
// reusable after a fresh Open (Apply depends on re-execution).
func TestCancelReopenAfterCancel(t *testing.T) {
	cat := groupedCatalog(t, 16, 40)
	cctx, cancel := context.WithCancel(context.Background())
	ctx := NewContext(cat, new(Store))
	ctx.DOP = 4
	ctx.Ctx = cctx
	it, err := BuildBatch(heavySelfJoin(ctx), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := it.NextBatch(); err != nil || b == nil {
		t.Fatalf("first batch: %v err=%v", b, err)
	}
	cancel()
	for {
		if b, err := it.NextBatch(); err != nil || b == nil {
			break
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// Clear the cancellation and re-execute: full results this time.
	ctx.Ctx = context.Background()
	if n := drainCount(t, it); n != 16 { // one count row per group
		t.Errorf("re-opened run = %d rows, want 16", n)
	}
}
