package gapplydb

import (
	"context"
	"slices"
	"time"

	"gapplydb/internal/exec"
	"gapplydb/internal/sql"
	"gapplydb/internal/trace"
	"gapplydb/internal/types"
)

// Stream is an incrementally consumed query result: the rows of Query,
// delivered a batch at a time by NextRows as execution produces them,
// without the materialization Result implies. It is the one way a
// statement executes: the network server streams every remote query
// through one of these, so a large result only ever exists in full on
// the client, and Query drains one.
//
// A Stream belongs to a single goroutine. Close must always be called;
// it is idempotent and releases the execution (its row storage, which
// later queries reuse, and the database's in-flight registration, which
// Database.Close waits on).
type Stream struct {
	// Columns are the output column names, in order.
	Columns []string

	db      *Database
	cfg     queryConfig        // the call's settings
	c       *compiled          // the statement: its plan and optimizer trace
	cur     *exec.Cursor       // nil for EXPLAIN streams
	ectx    *exec.Context      // execution context, for counters at finish
	report  *Result            // EXPLAIN statements: the report Query returns
	rows    []types.Row        // the report's lines, replayed as the rows
	rowBuf  []types.Row        // NextRows' reused container for selected batches
	stop    context.CancelFunc // unwinds lifecycle/timeout contexts
	release func()             // db in-flight registration
	start   time.Time
	stats   ExecStats
	elapsed time.Duration
	done    bool
	err     error

	// Tracing: the builder spanning this query (nil when untraced) and
	// the open execute span it finishes.
	tb       *trace.Builder
	execSpan int
}

// Stream is StreamContext under context.Background().
func (db *Database) Stream(query string, options ...QueryOption) (*Stream, error) {
	return db.StreamContext(context.Background(), query, options...)
}

// StreamContext parses, binds, optimizes and starts a statement,
// returning a Stream over its output instead of a materialized Result.
// Cancellation, deadlines and budgets behave exactly as in QueryContext;
// the MaxOutputRows budget is charged per delivered row. A statement
// with an EXPLAIN [ANALYZE] prefix is executed through the explain path
// (which materializes) and its report lines are replayed as the stream's
// rows, so remote shells need no special casing.
func (db *Database) StreamContext(ctx context.Context, query string, options ...QueryOption) (*Stream, error) {
	return db.start(ctx, query, options)
}

// start admits a statement against the database lifecycle, compiles it
// and starts its plan; QueryContext drains the stream it returns and
// StreamContext hands it to the caller. A statement with an EXPLAIN
// [ANALYZE] prefix is answered by the explain path (ANALYZE runs the
// plan to completion first) as a stream of the report's lines.
func (db *Database) start(ctx context.Context, query string, options []QueryOption) (*Stream, error) {
	release, err := db.acquire()
	if err != nil {
		return nil, err
	}
	// The options apply into the stream, which the call allocates anyway:
	// a config of its own would escape through the options' indirect
	// calls, one more allocation per query.
	s := &Stream{db: db}
	s.cfg.apply(options)
	tb := db.traceSetup(&s.cfg, query)
	c, hit, err := db.compile(query, s.cfg)
	if err != nil {
		db.finishTrace(tb, err)
		release()
		return nil, err
	}
	s.cfg.planCacheHit = hit
	if c.mode == sql.ExplainNone {
		return db.startPlan(ctx, s, c, release)
	}
	e, err := db.explainCompiled(ctx, c, s.cfg, c.mode == sql.ExplainAnalyze)
	release()
	db.finishTrace(tb, err) // a no-op once the analyzed execution finished it
	if err != nil {
		return nil, err
	}
	res := e.planResult()
	rows := make([]types.Row, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = types.Row{types.NewString(r[0].(string))} // one report line per row
	}
	s.Columns, s.report, s.rows = res.Columns, res, rows
	s.stats, s.elapsed, s.tb = res.Stats, res.Elapsed, tb
	return s, nil
}

// startPlan starts a compiled plan, under the settings s.cfg, on an
// arena of the database's store, under the caller's context, the
// database lifecycle and the budget's timeout, and returns s streaming
// its rows. The stream takes over release; if the start fails, the
// execution is settled — metrics, error classification, trace, release
// — before it returns.
func (db *Database) startPlan(ctx context.Context, s *Stream, c *compiled, release func()) (*Stream, error) {
	cfg := &s.cfg
	ctx, stop := db.lifecycleContext(ctx)
	if cfg.Timeout > 0 {
		inner, cancel := context.WithTimeout(ctx, cfg.Timeout)
		outerStop := stop
		ctx, stop = inner, func() { cancel(); outerStop() }
	}
	ectx := db.execContext(ctx, *cfg)
	tb := cfg.traceBuilder
	execSpan := tb.StartSpan("execute", 0)
	// Start opens the plan, which for a blocking root (a sort, a GApply
	// partition phase) is most of the execution: the clock covers it, as
	// Result.Elapsed does.
	start := time.Now()
	cur, err := exec.Start(c.plan, ectx)
	s.db, s.c, s.cur, s.ectx = db, c, cur, ectx
	s.stop, s.release, s.start = stop, release, start
	s.tb, s.execSpan = tb, execSpan
	if err != nil {
		s.finish(err)
		return nil, s.Close()
	}
	// Columns is public and mutable: each stream gets its own copy.
	s.Columns = slices.Clone(c.columns)
	return s, nil
}

// NextRows returns the next rows, up to one engine batch (256 rows) per
// call, as the engine's own typed rows; ok=false with a nil error marks
// exhaustion, and errors are final. The rows are valid until the stream
// is closed: Close recycles their storage for later queries, so a caller
// that keeps rows past it must copy them (Values are plain structs, so
// copying a row's cells copies everything it holds). The returned outer
// slice is only valid until the next call on the stream. The network
// server and xmlpub.Publish tag and encode results through this path,
// so a row's cells are never boxed between the executor and the XML or
// wire bytes.
func (s *Stream) NextRows() ([]types.Row, bool, error) {
	if s.done {
		return nil, false, s.err
	}
	if s.cur == nil { // EXPLAIN: the whole report in one call
		s.done = true
		return s.rows, true, nil
	}
	b, err := s.cur.NextBatch()
	if err != nil {
		s.finish(err)
		return nil, false, s.err
	}
	if b == nil {
		s.finish(nil)
		return nil, false, nil
	}
	if b.Sel == nil {
		return b.Rows, true, nil
	}
	s.rowBuf = b.AppendRows(s.rowBuf[:0])
	return s.rowBuf, true, nil
}

// result drains the stream into a Result and closes it. Cursor.Drain
// copies the rows out of the execution's arena into one Value slab the
// Result owns before Close releases the arena, so Result.Rows, TypedRows
// and String stay valid for as long as the caller holds the Result.
func (s *Stream) result() (*Result, error) {
	defer s.Close()
	if s.report != nil {
		return s.report, nil
	}
	rows, err := s.cur.Drain()
	s.finish(err)
	if s.err != nil {
		return nil, s.err
	}
	return &Result{
		Columns: s.Columns,
		Rows:    boxRows(rows),
		Elapsed: s.elapsed,
		Stats:   s.stats,
		Trace:   toTrace(s.c.trace),
		TraceID: s.tb.ID(),
		inner:   &exec.Result{Schema: s.c.schema, Rows: rows},
	}, nil
}

// finish settles the execution exactly once: metrics, stats, error
// classification, trace, and the lifecycle registrations.
func (s *Stream) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	if s.cur != nil {
		s.cur.Close()
	}
	s.elapsed = time.Since(s.start)
	s.db.reg.Counter("queries").Inc()
	s.db.reg.Histogram("execute_latency").Observe(s.elapsed)
	if err != nil {
		s.err = s.db.classifyExecError(err)
	} else {
		s.db.recordExecMetrics(s.ectx.Counters)
		s.stats = statsOf(s.ectx.Counters)
	}
	s.tb.EndSpan(s.execSpan)
	attachOperatorSpans(s.tb, s.execSpan, s.c.plan, s.ectx.Prof)
	s.db.finishTrace(s.tb, s.err)
	s.stop()
	s.release()
}

// Close abandons (or, after exhaustion, finalizes) the stream. Closing
// before exhaustion counts the query as executed and records the work
// done up to that point. Always returns the stream's final error state.
func (s *Stream) Close() error {
	if s.ectx != nil { // a plan's stream, not yet closed
		if !s.done {
			s.finish(nil)
		}
		s.ectx.ReleaseArena()
		s.ectx = nil
	}
	s.done = true
	return s.err
}

// Err returns the error the stream ended with, if any.
func (s *Stream) Err() error { return s.err }

// Stats returns the executor's work counters; valid after the stream is
// exhausted (before that it is zero).
func (s *Stream) Stats() ExecStats { return s.stats }

// Elapsed is the wall time from Start to exhaustion (or Close).
func (s *Stream) Elapsed() time.Duration { return s.elapsed }

// TraceID identifies this query's end-to-end trace in the flight
// recorder; zero when the query is not traced. Valid from StreamContext
// return (the ID is assigned before execution starts).
func (s *Stream) TraceID() TraceID { return s.tb.ID() }
