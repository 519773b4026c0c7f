package gapplydb

import (
	"context"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/internal/sql"
	"gapplydb/internal/trace"
	"gapplydb/internal/types"
)

// Stream is an incrementally consumed query result: the rows of Query,
// delivered one at a time as execution produces them, without the
// server-side materialization Result implies. The network server
// streams every remote query through one of these, so a large result
// only ever exists in full on the client.
//
// A Stream belongs to a single goroutine. Close must always be called;
// it is idempotent and releases the execution (its row storage, which
// later queries reuse, and the database's in-flight registration, which
// Database.Close waits on). Draining a
// stream to completion yields exactly the rows, errors and statistics
// the materializing path would have produced.
type Stream struct {
	// Columns are the output column names, in order.
	Columns []string

	db       *Database
	cur      *exec.Cursor  // nil for pre-materialized (EXPLAIN) streams
	ectx     *exec.Context // execution context, for counters at finish
	rows     []types.Row   // pre-materialized rows (EXPLAIN statements)
	ri       int
	rowBuf   []types.Row        // NextRows' reused container for selected batches
	batchBuf [][]any            // NextBatch's reused outer container
	stop     context.CancelFunc // unwinds lifecycle/timeout contexts
	release  func()             // db in-flight registration
	start    time.Time
	stats    ExecStats
	elapsed  time.Duration
	done     bool
	err      error

	// Tracing: the builder spanning this query (nil when untraced), the
	// open execute span it finishes, and the plan operator spans are
	// reconstructed from at finish.
	tb       *trace.Builder
	execSpan int
	plan     core.Node
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
	release, err := db.acquire()
	if err != nil {
		return nil, err
	}
	cfg := makeConfig(options)
	tb := db.traceSetup(&cfg, query)
	c, hit, err := db.compile(query, cfg)
	if err != nil {
		db.finishTrace(tb, err)
		release()
		return nil, err
	}
	cfg.planCacheHit = hit
	if c.mode != sql.ExplainNone {
		e, err := db.explainCompiled(ctx, c, cfg, c.mode == sql.ExplainAnalyze)
		if err != nil {
			db.finishTrace(tb, err) // no-op if the analyzed execution finished it
			release()
			return nil, err
		}
		db.finishTrace(tb, nil) // plain EXPLAIN never reaches execute
		res := e.planResult()
		release()
		rows := make([]types.Row, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = types.Row{types.NewString(r[0].(string))} // one report line per row
		}
		return &Stream{
			Columns: res.Columns, rows: rows,
			stats: res.Stats, elapsed: res.Elapsed,
			tb: tb,
		}, nil
	}

	ctx, stop := db.lifecycleContext(ctx)
	if cfg.budget.Timeout > 0 {
		inner, cancel := context.WithTimeout(ctx, cfg.budget.Timeout)
		outerStop := stop
		ctx, stop = inner, func() { cancel(); outerStop() }
	}
	ectx := db.execContext(ctx, cfg)
	ectx.AttachArena()
	execSpan := tb.StartSpan("execute", 0)
	// Start opens the plan, which for a blocking root (a sort, a GApply
	// partition phase) is most of the execution: the clock covers it, as
	// Result.Elapsed does.
	start := time.Now()
	cur, err := exec.Start(c.plan, ectx)
	if err != nil {
		stop()
		ectx.ReleaseArena()
		release()
		db.reg.Counter("queries").Inc()
		err = db.classifyExecError(err)
		tb.EndSpan(execSpan)
		attachOperatorSpans(tb, execSpan, c.plan, ectx.Prof)
		db.finishTrace(tb, err)
		return nil, err
	}
	s := &Stream{
		Columns: make([]string, cur.Schema.Len()),
		db:      db, cur: cur, ectx: ectx,
		stop: stop, release: release, start: start,
		tb: tb, execSpan: execSpan, plan: c.plan,
	}
	for i, col := range cur.Schema.Cols {
		s.Columns[i] = col.QualifiedName()
	}
	return s, nil
}

// Next returns the next row (values in the same Go representations
// Result.Rows uses). ok=false with a nil error marks exhaustion; errors
// are classified exactly as QueryContext classifies them and are final.
func (s *Stream) Next() ([]any, bool, error) {
	if s.done {
		return nil, false, s.err
	}
	if s.cur == nil { // pre-materialized (EXPLAIN) stream
		if s.ri >= len(s.rows) {
			s.done = true
			return nil, false, nil
		}
		r := s.rows[s.ri]
		s.ri++
		return boxRow(r), true, nil
	}
	row, ok, err := s.cur.Next()
	if err != nil {
		s.finish(err)
		return nil, false, s.err
	}
	if !ok {
		s.finish(nil)
		return nil, false, nil
	}
	return boxRow(row), true, nil
}

// NextBatch returns the next rows in bulk — up to one engine batch (256
// rows) per call — in the same Go representations Next uses. ok=false
// with a nil error marks exhaustion. The returned outer slice is reused
// by the following NextBatch call; the per-row slices are carved from
// one fresh allocation per call and may be retained. Mixing Next and
// NextBatch is allowed: no row is delivered twice.
func (s *Stream) NextBatch() ([][]any, bool, error) {
	rows, ok, err := s.NextRows()
	if !ok {
		return nil, false, err
	}
	s.batchBuf = boxRows(s.batchBuf, rows)
	return s.batchBuf, true, nil
}

// NextRows is NextBatch without the boxing: the engine's own typed rows,
// up to one engine batch per call. The rows are valid until the stream
// is closed: Close recycles their storage for later queries, so a caller
// that keeps rows past it must copy them (Values are plain structs, so
// copying a row's cells copies everything it holds). The returned outer
// slice is only valid until the next call on the stream. The network server and xmlpub.Publish tag and
// encode results through this path, so a row's cells are never boxed
// between the executor and the XML or wire bytes.
func (s *Stream) NextRows() ([]types.Row, bool, error) {
	if s.done {
		return nil, false, s.err
	}
	if s.cur == nil { // pre-materialized (EXPLAIN) stream
		if s.ri >= len(s.rows) {
			s.done = true
			return nil, false, nil
		}
		out := s.rows[s.ri:]
		s.ri = len(s.rows)
		return out, true, nil
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

// finish settles the stream exactly once: metrics, stats, error
// classification, and the lifecycle registrations.
func (s *Stream) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	s.cur.Close()
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
	attachOperatorSpans(s.tb, s.execSpan, s.plan, s.ectx.Prof)
	s.db.finishTrace(s.tb, s.err)
	s.stop()
	s.release()
}

// Close abandons (or, after exhaustion, finalizes) the stream. Closing
// before exhaustion counts the query as executed and records the work
// done up to that point. Always returns the stream's final error state.
func (s *Stream) Close() error {
	if !s.done && s.cur != nil {
		s.finish(nil)
	}
	s.done = true
	if s.ectx != nil {
		s.ectx.ReleaseArena()
	}
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
