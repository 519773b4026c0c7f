package gapplydb

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

const gapplyCountQ = `select gapply(select count(*) from g) as (n)
	from partsupp group by ps_suppkey : g`

// TestQueryContextCancelled: a query on an already-cancelled context
// fails with context.Canceled and the session metrics record it in the
// cancelled tally (not just the generic error count).
func TestQueryContextCancelled(t *testing.T) {
	db := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, gapplyCountQ)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m := db.Metrics()
	if m.Counters["queries_cancelled"] != 1 {
		t.Errorf("queries_cancelled = %d, want 1", m.Counters["queries_cancelled"])
	}
	if m.Counters["query_errors"] != 1 {
		t.Errorf("query_errors = %d, want 1", m.Counters["query_errors"])
	}
	if m.Counters["queries_timed_out"] != 0 || m.Counters["queries_budget_killed"] != 0 {
		t.Errorf("misclassified: %v", m.Counters)
	}
	// The session keeps working after a cancelled statement.
	if _, err := db.Query("select count(*) from part"); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// TestQueryTimeout: WithTimeout turns into a deadline on the execution
// context; an expired deadline surfaces as context.DeadlineExceeded and
// lands in the timed-out tally.
func TestQueryTimeout(t *testing.T) {
	db := fixture(t)
	_, err := db.Query(gapplyCountQ, WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := db.Metrics().Counters["queries_timed_out"]; got != 1 {
		t.Errorf("queries_timed_out = %d, want 1", got)
	}
	// A generous timeout lets the query through.
	if _, err := db.Query(gapplyCountQ, WithTimeout(time.Minute)); err != nil {
		t.Fatalf("roomy timeout: %v", err)
	}
}

// TestQueryContextDeadlineComposesWithTimeout: the earlier of the
// caller's deadline and the budget timeout wins.
func TestQueryContextDeadlineComposesWithTimeout(t *testing.T) {
	db := fixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := db.QueryContext(ctx, gapplyCountQ, WithTimeout(time.Minute))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline to win", err)
	}
}

// TestQueryBudgetOutputRows: blowing MaxOutputRows yields a typed
// *ResourceError naming the limit and the offending operator, and lands
// in the budget-killed tally.
func TestQueryBudgetOutputRows(t *testing.T) {
	db := fixture(t)
	_, err := db.Query("select p_name from part", WithOptions(Options{MaxOutputRows: 2}))
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *gapplydb.ResourceError", err, err)
	}
	if re.Limit != "max-output-rows" || re.Max != 2 || re.Used != 3 {
		t.Errorf("ResourceError = %+v", re)
	}
	if re.Operator == "" {
		t.Error("ResourceError.Operator must name the plan operator")
	}
	if !strings.Contains(re.Error(), "max-output-rows") {
		t.Errorf("Error() = %q", re.Error())
	}
	if got := db.Metrics().Counters["queries_budget_killed"]; got != 1 {
		t.Errorf("queries_budget_killed = %d, want 1", got)
	}
	// Within budget, the query succeeds.
	if _, err := db.Query("select p_name from part", WithOptions(Options{MaxOutputRows: 10})); err != nil {
		t.Fatalf("roomy budget: %v", err)
	}
}

// gapplyUnionQ is the Q2-style groupwise query whose union-of-subquery
// per-group shape the optimizer keeps as a real GApply (the plain
// count(*) shape decorrelates into a GroupBy with no partition phase).
const gapplyUnionQ = `select gapply(select count(*), null from g
		where p_retailprice >= (select avg(p_retailprice) from g)
		union all
		select null, count(*) from g
		where p_retailprice < (select avg(p_retailprice) from g)
	) as (above, below)
	from partsupp, part where ps_partkey = p_partkey
	group by ps_suppkey : g`

// TestQueryBudgetPartitionBytes: the partition-byte meter covers the
// GApply materialization and reports the GApply as the offender.
func TestQueryBudgetPartitionBytes(t *testing.T) {
	db := fixture(t)
	_, err := db.Query(gapplyUnionQ, WithOptions(Options{MaxPartitionBytes: 32}))
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *gapplydb.ResourceError", err)
	}
	if re.Limit != "max-partition-bytes" || !strings.Contains(re.Operator, "GApply") {
		t.Errorf("ResourceError = %+v", re)
	}
	if _, err := db.Query(gapplyUnionQ, WithOptions(Options{MaxPartitionBytes: 1 << 20})); err != nil {
		t.Fatalf("roomy budget: %v", err)
	}
}

// TestQueryContextNilContext: a nil context is tolerated (treated as
// background) rather than panicking deep in the engine.
func TestQueryContextNilContext(t *testing.T) {
	db := fixture(t)
	var nilCtx context.Context
	res, err := db.QueryContext(nilCtx, "select count(*) from part")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("nil ctx: res=%v err=%v", res, err)
	}
}

// TestExplainAnalyzeContextCancelled: the EXPLAIN ANALYZE entry point
// honors the same cancellation contract as QueryContext.
func TestExplainAnalyzeContextCancelled(t *testing.T) {
	db := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExplainAnalyzeContext(ctx, gapplyCountQ); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := db.Metrics().Counters["queries_cancelled"]; got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}
}

// TestParallelCancellationThroughAPI is the end-to-end acceptance check:
// a parallel (dop 8) groupwise query cancelled mid-execution returns
// context.Canceled promptly, leaks no worker, and the metrics record the
// cancellation. The consumer cancels once the first batch has streamed,
// so the cancel lands mid-execution however fast the machine is.
func TestParallelCancellationThroughAPI(t *testing.T) {
	db := Open()
	if err := db.CreateTable("obs", []Column{{"k", "int"}, {"v", "float"}}, nil); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 0, 60000)
	for i := 0; i < 60000; i++ {
		rows = append(rows, []any{i % 20000, float64(i)})
	}
	if err := db.Insert("obs", rows...); err != nil {
		t.Fatal(err)
	}
	db.RefreshStats()

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 20000 groups, each evaluating a union of subquery-filtered scans:
	// 40000 output rows, of which the first batch holds 256.
	st, err := db.StreamContext(ctx, `select gapply(select count(*), null from g
			where v >= (select avg(v) from g)
			union all
			select null, count(*) from g
			where v < (select avg(v) from g)
		) as (above, below) from obs group by k : g`, WithDOP(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.NextRows(); !ok || err != nil {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	cancel()
	start := time.Now()
	for {
		_, ok, nerr := st.NextRows()
		if err = nerr; !ok || err != nil {
			break
		}
	}
	elapsed := time.Since(start)
	st.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (elapsed %v)", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation not prompt: %v", elapsed)
	}
	if got := db.Metrics().Counters["queries_cancelled"]; got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d at baseline, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
