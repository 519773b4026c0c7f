package coord

import (
	"context"
	"fmt"
	"time"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/exchange"
	"gapplydb/internal/server"
	"gapplydb/internal/types"
)

// batchMaxRows mirrors the session's framing batch size.
const batchMaxRows = 256

// shardConn is one worker's leg of a distributed query: the pooled
// connection and the in-flight Rows stream on it.
type shardConn struct {
	shard int
	addr  string
	pool  *client.Pool
	conn  *client.Conn
	rows  *client.Rows
}

// release closes the leg's stream (cancelling it server-side if still
// running) and returns the connection to its pool, which discards it
// if the stream's death took the connection with it.
func (sc *shardConn) release() {
	if sc.rows != nil {
		sc.rows.Close()
	}
	sc.pool.Put(sc.conn)
}

// shardSource adapts one leg to exchange.RowSource, tagging errors
// with the shard identity and counting rows for fan-out stats.
type shardSource struct {
	sc *shardConn
	n  int64
}

func (s *shardSource) Next() ([]any, bool, error) {
	row, ok, err := s.sc.rows.Next()
	if err != nil {
		return nil, false, &ShardError{Shard: s.sc.shard, Addr: s.sc.addr, Err: err}
	}
	if ok {
		s.n++
	}
	return row, ok, nil
}

// gatherStream is the coordinator-side result stream the session
// frames to the client: rows pulled from the shards through the
// strategy's gather (merge, pass-through, or combine), with the
// global output-row budget enforced where the global count exists.
type gatherStream struct {
	c       *Coordinator
	query   string
	cols    []string
	cancel  context.CancelFunc
	conns   []*shardConn
	srcs    []*shardSource
	next    func() ([]any, bool, error)
	maxRows int64
	// batch and slab are NextRows' storage, reused call over call: the
	// shards deliver boxed rows, and this is the one place they are
	// unboxed for the session's typed tagger and encoder.
	batch []types.Row
	slab  types.Row

	start   time.Time
	elapsed time.Duration
	stats   gapplydb.ExecStats
	emitted int64
	done    bool
	err     error
	closed  bool
	noted   bool
}

func newGatherStream(c *Coordinator, query string, cut exchange.Cut, conns []*shardConn, cancel context.CancelFunc, maxRows int64) *gatherStream {
	g := &gatherStream{
		c:       c,
		query:   query,
		cols:    conns[0].rows.Columns,
		cancel:  cancel,
		conns:   conns,
		maxRows: maxRows,
		start:   time.Now(),
	}
	g.srcs = make([]*shardSource, len(conns))
	srcs := make([]exchange.RowSource, len(conns))
	for i, sc := range conns {
		g.srcs[i] = &shardSource{sc: sc}
		srcs[i] = g.srcs[i]
	}
	switch cut.Strategy {
	case exchange.StrategyMergeGather:
		m := exchange.NewMerge(srcs, cut.Keys)
		g.next = m.Next
	case exchange.StrategyPartialAgg:
		g.next = g.aggNext(cut.Combines)
	default: // StrategySingleShard
		g.next = g.srcs[0].Next
	}
	return g
}

// aggNext pulls the one partial row each shard produces, combines
// them, and emits the single global row.
func (g *gatherStream) aggNext(combines []exchange.CombineFn) func() ([]any, bool, error) {
	emitted := false
	return func() ([]any, bool, error) {
		if emitted {
			return nil, false, nil
		}
		emitted = true
		partials := make([][]any, len(g.srcs))
		for i, s := range g.srcs {
			row, ok, err := s.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, &ShardError{Shard: s.sc.shard, Addr: s.sc.addr,
					Err: fmt.Errorf("coord: aggregate fragment returned no row")}
			}
			if _, extra, err := s.Next(); err != nil {
				return nil, false, err
			} else if extra {
				return nil, false, &ShardError{Shard: s.sc.shard, Addr: s.sc.addr,
					Err: fmt.Errorf("coord: aggregate fragment returned more than one row")}
			}
			partials[i] = row
		}
		row, err := exchange.CombineAggRows(partials, combines)
		if err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
}

func (g *gatherStream) Columns() []string { return g.cols }

func (g *gatherStream) NextRows() ([]types.Row, bool, error) {
	if g.err != nil {
		return nil, false, g.err
	}
	if g.done {
		return nil, false, nil
	}
	batch, slab := g.batch[:0], g.slab[:0]
	for len(batch) < batchMaxRows {
		row, ok, err := g.next()
		if err != nil {
			return nil, false, g.fail(err)
		}
		if !ok {
			g.finish()
			break
		}
		g.emitted++
		if g.maxRows > 0 && g.emitted > g.maxRows {
			return nil, false, g.fail(&gapplydb.ResourceError{
				Limit: "max-output-rows", Operator: "Exchange",
				Max: g.maxRows, Used: g.emitted,
			})
		}
		start := len(slab)
		for _, v := range row {
			tv, ok := types.FromGo(v)
			if !ok {
				return nil, false, g.fail(fmt.Errorf("coord: gathered row holds an unsupported value type %T", v))
			}
			slab = append(slab, tv)
		}
		// When append moves the slab, rows carved earlier keep the old
		// array; from the second batch on the slab no longer grows.
		batch = append(batch, slab[start:len(slab):len(slab)])
	}
	g.batch, g.slab = batch, slab
	return batch, len(batch) > 0, nil
}

// fail latches the error and cancels every sibling shard query: one
// worker dying must not leave the others streaming into the void.
func (g *gatherStream) fail(err error) error {
	g.err = err
	g.cancel()
	g.note()
	g.c.noteFailed()
	return err
}

// finish latches clean exhaustion: fold the shards' execution stats
// into the stream's and record the fan-out.
func (g *gatherStream) finish() {
	g.done = true
	g.elapsed = time.Since(g.start)
	for _, sc := range g.conns {
		g.stats = addStats(g.stats, sc.rows.Stats().Exec)
	}
	g.note()
}

func (g *gatherStream) note() {
	if g.noted {
		return
	}
	g.noted = true
	g.c.noteFan(g.query, g.srcs)
}

// Close cancels anything still running, drains the shard streams and
// returns the connections. Idempotent; the session defers it.
func (g *gatherStream) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	g.cancel()
	for _, sc := range g.conns {
		sc.release()
	}
	g.note()
	return nil
}

func (g *gatherStream) Stats() gapplydb.ExecStats { return g.stats }
func (g *gatherStream) Elapsed() time.Duration    { return g.elapsed }

func addStats(a, b gapplydb.ExecStats) gapplydb.ExecStats {
	a.RowsScanned += b.RowsScanned
	a.Groups += b.Groups
	a.InnerExecs += b.InnerExecs
	a.SerialGroupExecs += b.SerialGroupExecs
	a.ParallelGroupExecs += b.ParallelGroupExecs
	a.ApplyExecs += b.ApplyExecs
	a.ApplyCacheHits += b.ApplyCacheHits
	a.JoinProbes += b.JoinProbes
	a.SpoolBuilds += b.SpoolBuilds
	a.SpoolHits += b.SpoolHits
	a.PlanCacheHits += b.PlanCacheHits
	return a
}

// staticStream serves a prebuilt result (the `show shards` status).
type staticStream struct {
	cols []string
	rows []types.Row
	sent bool
}

func newStaticStream(cols []string, rows []types.Row) *staticStream {
	return &staticStream{cols: cols, rows: rows}
}

func (s *staticStream) Columns() []string { return s.cols }

func (s *staticStream) NextRows() ([]types.Row, bool, error) {
	if s.sent {
		return nil, false, nil
	}
	s.sent = true
	return s.rows, len(s.rows) > 0, nil
}

func (s *staticStream) Close() error              { return nil }
func (s *staticStream) Stats() gapplydb.ExecStats { return gapplydb.ExecStats{} }
func (s *staticStream) Elapsed() time.Duration    { return 0 }

var _ server.RowStream = (*gatherStream)(nil)
var _ server.RowStream = (*staticStream)(nil)
