// Package client is the Go client for gapplyd, the engine's network
// server. A Conn multiplexes any number of concurrent queries over one
// TCP connection: rows stream back in batches through a Rows iterator,
// XML documents stream through QueryXML, and cancelling the context of
// any call sends a wire-level cancel that stops the query server-side
// through the engine's context machinery.
//
// Remote results are byte-identical to embedded execution: the wire
// format carries values in the exact Go representations Result.Rows
// uses, so a remote Rows yields what Database.Query would have.
//
//	conn, err := client.Dial("localhost:7744")
//	rows, err := conn.Query(ctx, "select count(*) from part")
//	for {
//		row, ok, err := rows.Next()
//		...
//	}
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gapplydb"
	"gapplydb/internal/wire"
	"gapplydb/xmlpub"
)

// Error codes a ServerError may carry (mirroring the wire protocol).
const (
	CodeParse     = "parse"
	CodeResource  = "resource"
	CodeCancelled = "cancelled"
	CodeTimeout   = "timeout"
	CodeBusy      = "busy"
	CodeShutdown  = "shutdown"
	CodeSession   = "session-limit"
	CodeProtocol  = "protocol"
	CodeInternal  = "internal"
)

// ServerError is a failure reported by the server for one query.
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) hold for the cancelled/timeout codes, so
// remote and embedded errors satisfy the same checks.
type ServerError struct {
	Code    string
	Message string
	// TraceID identifies the failed query's trace when it was traced —
	// the error's full timeline is retrievable from the server's flight
	// recorder even though the query never produced rows.
	TraceID gapplydb.TraceID
}

func (e *ServerError) Error() string { return fmt.Sprintf("gapplyd: %s (%s)", e.Message, e.Code) }

// Is maps the cancellation taxonomy onto the context sentinels.
func (e *ServerError) Is(target error) bool {
	switch target {
	case context.Canceled:
		return e.Code == CodeCancelled
	case context.DeadlineExceeded:
		return e.Code == CodeTimeout
	}
	return false
}

// ErrConnClosed reports use of a connection that is closed or has
// failed; pending and future calls all return it (possibly wrapped
// around the underlying transport error).
var ErrConnClosed = errors.New("client: connection closed")

// QueryOption tunes one remote query: the embedded API's options
// (gapplydb.WithDOP, WithTimeout, WithPartition, WithTraceID, …). The
// settings they make (gapplydb.OptionsOf) travel in the Query frame and
// override the session's (Set) field by field: a setting the query
// leaves at its default keeps the session's, so a query cannot undo a
// session's partition, rule sets or on/off settings (WithPartition("auto")
// keeps the session's sort), while WithDOP(0) and WithTraceSampling(0)
// do override it. WithTraceBuilder, which is engine-side state, and
// WithInstrumentation, whose profile stays on the server, do not travel.
// A traced query's ID comes back in Stats.TraceID, whether the client
// chose it or the server minted it.
type QueryOption = gapplydb.QueryOption

// Stats summarizes one completed remote query.
type Stats struct {
	// Rows is the total row count (or, for XML, document bytes see
	// QueryXML's return).
	Rows int64
	// Elapsed is the server-side execution wall time.
	Elapsed time.Duration
	// Exec carries the engine's work counters, exactly as the embedded
	// Result.Stats would.
	Exec gapplydb.ExecStats
	// TraceID identifies the query's server-side trace (zero when the
	// query was not traced). Set whether the trace was client-issued or
	// head-sampled by the server.
	TraceID gapplydb.TraceID
}

// frame is one demultiplexed message.
type frame struct {
	t       wire.Type
	payload []byte
}

// streamDepth frames fill a query's demux channel, so the read loop runs
// up to that far ahead of a slow consumer and the free list of frame
// buffers holds as many.
const streamDepth = 64

// Conn is one client connection. Safe for concurrent use: queries are
// multiplexed by id and writes are serialized.
type Conn struct {
	conn net.Conn
	bw   *bufio.Writer
	wmu  sync.Mutex

	banner string
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan frame
	failErr error
	done    chan struct{} // closed when the read loop exits

	closeOnce sync.Once
	closing   chan struct{} // closed when Close begins
	frameBufs chan []byte   // free RowBatch/XMLChunk buffers; see recycle
}

// Dial connects with no deadline. See DialContext.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a gapplyd server and performs the protocol
// handshake. The context bounds connection establishment only.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		conn:      nc,
		bw:        bufio.NewWriterSize(nc, 64<<10),
		pending:   make(map[uint64]chan frame),
		done:      make(chan struct{}),
		closing:   make(chan struct{}),
		frameBufs: make(chan []byte, streamDepth),
	}
	if deadline, ok := ctx.Deadline(); ok {
		nc.SetDeadline(deadline)
	}
	if err := c.writeFrame(wire.TypeHello, wire.EncodeHello()); err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	t, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		nc.Close()
		return nil, err
	}
	switch t {
	case wire.TypeWelcome:
	case wire.TypeError:
		if m, derr := wire.DecodeError(payload); derr == nil {
			nc.Close()
			return nil, &ServerError{Code: m.Code, Message: m.Message}
		}
		fallthrough
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake frame %v", t)
	}
	if _, c.banner, err = wire.DecodeWelcome(payload); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	go c.readLoop(br)
	return c, nil
}

// Banner returns the server identification from the handshake.
func (c *Conn) Banner() string { return c.banner }

// Close tears the connection down; every in-flight call fails with
// ErrConnClosed. Safe even with abandoned (un-Closed) Rows iterators
// holding undelivered frames.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closing) })
	err := c.conn.Close()
	<-c.done
	return err
}

func (c *Conn) writeFrame(t wire.Type, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(c.bw, t, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readLoop demultiplexes incoming frames to the pending calls by
// leading query id. It exits (failing everything) on any transport or
// framing error — the protocol has no resynchronization point.
func (c *Conn) readLoop(br *bufio.Reader) {
	var err error
	var buf []byte     // the free buffer the next frame is read into
	live, size := 0, 0 // frame buffers made that recycle keeps, and the largest's capacity
	for {
		if buf == nil {
			select {
			case buf = <-c.frameBufs:
			default:
				// Consumers hold every live buffer: make as many again, up
				// to the list's size, so the list outgrows the read loop's
				// lead in a few steps rather than one buffer per new
				// maximum. Past that size it grows one buffer at a time.
				// A buffer recycle drops because the list is full stays
				// counted, which only ends this sooner.
				for n := min(live, cap(c.frameBufs)-live); n > 0 && len(c.frameBufs) < cap(c.frameBufs); n-- {
					select {
					case c.frameBufs <- make([]byte, 0, size):
						live++
					default: // filled by consumers meanwhile
					}
				}
			}
		}
		var t wire.Type
		var payload []byte
		t, payload, err = wire.ReadFrameInto(br, wire.DefaultMaxFrame, buf)
		if err != nil {
			break
		}
		handed := t == wire.TypeRowBatch || t == wire.TypeXMLChunk
		if handed {
			if cap(payload) != cap(buf) { // read into a new buffer; buf is dropped
				if buf != nil {
					live--
				}
				if cap(payload) <= keepFrame {
					live, size = live+1, max(size, cap(payload))
				}
			}
			buf = nil // handed on with the frame
		} else if len(payload) > 0 && len(payload) <= cap(buf) {
			// Other frames are never given back: copy them out, keep buf.
			payload = bytes.Clone(payload)
		}
		id, derr := wire.DecodeID(payload[:min(len(payload), 8)])
		if derr != nil {
			err = derr
			break
		}
		c.mu.Lock()
		ch := c.pending[id]
		c.mu.Unlock()
		if ch != nil {
			// The send blocks if the query's consumer has fallen behind its
			// channel buffer; an abandoned consumer must not be able to
			// deadlock Close, so Close's signal breaks the wait.
			select {
			case ch <- frame{t: t, payload: payload}:
			case <-c.closing:
				err = net.ErrClosed
			}
			if err != nil {
				break
			}
		}
		// Frames for an unknown id (a query already torn down) are
		// dropped, their buffer kept: the server terminates every stream
		// with End/Error, and teardown paths drain to that marker before
		// deregistering.
		if ch == nil && handed && cap(payload) <= keepFrame {
			buf = payload[:0]
		}
	}
	c.mu.Lock()
	c.failErr = fmt.Errorf("%w: %w", ErrConnClosed, err)
	pending := c.pending
	c.pending = make(map[uint64]chan frame)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	close(c.done)
	c.conn.Close()
}

// keepFrame is the largest frame buffer the free list keeps. Frames
// flush at 128 KiB (rows) or 32 KiB (XML); a larger one holds a huge row.
const keepFrame = 256 << 10

// recycle gives back a RowBatch or XMLChunk buffer its consumer is done
// with. A buffer over keepFrame, or one that finds the list full, is
// left to the collector.
func (c *Conn) recycle(buf []byte) {
	if cap(buf) > keepFrame {
		return
	}
	select {
	case c.frameBufs <- buf:
	default:
	}
}

// register claims a fresh id and its demux channel.
func (c *Conn) register() (uint64, chan frame, error) {
	id := c.nextID.Add(1)
	ch := make(chan frame, streamDepth)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failErr != nil {
		return 0, nil, c.failErr
	}
	c.pending[id] = ch
	return id, ch, nil
}

func (c *Conn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// connErr returns the failure the read loop recorded.
func (c *Conn) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failErr != nil {
		return c.failErr
	}
	return ErrConnClosed
}

// watchCancel forwards ctx's cancellation as a wire-level Cancel for
// id. The returned stop must be called when the query settles.
func (c *Conn) watchCancel(ctx context.Context, id uint64) func() {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	stop := context.AfterFunc(ctx, func() {
		c.writeFrame(wire.TypeCancel, wire.EncodeID(id))
	})
	return func() { stop() }
}

// Query submits a statement and returns a streaming Rows over its
// result. Cancelling ctx cancels the query server-side; the iterator
// then ends with an error satisfying errors.Is(err, context.Canceled).
// The caller must Close the Rows (idempotent; exhaustion makes it a
// no-op) or the query's frames would stall the connection's demux loop.
func (c *Conn) Query(ctx context.Context, query string, opts ...QueryOption) (*Rows, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	msg := wire.QueryMsg{ID: id, SQL: query, Opts: gapplydb.OptionsOf(opts...)}
	if err := c.writeFrame(wire.TypeQuery, msg.Encode()); err != nil {
		c.unregister(id)
		return nil, err
	}
	stop := c.watchCancel(ctx, id)
	f, ok := <-ch
	if !ok {
		stop()
		return nil, c.connErr()
	}
	switch f.t {
	case wire.TypeRowHeader:
		h, err := wire.DecodeRowHeader(f.payload)
		if err != nil {
			stop()
			c.unregister(id)
			return nil, err
		}
		return &Rows{conn: c, id: id, ch: ch, stop: stop, Columns: h.Columns}, nil
	case wire.TypeError:
		stop()
		c.unregister(id)
		return nil, decodeServerError(f.payload)
	default:
		stop()
		c.unregister(id)
		return nil, fmt.Errorf("client: unexpected frame %v before header", f.t)
	}
}

// QueryXML submits a statement in XML mode: the server executes it,
// runs the rows through the constant-space tagger under the given tag
// plan, and streams the document, which is written to w chunk by
// chunk. Returns the final stats (Rows = document bytes).
func (c *Conn) QueryXML(ctx context.Context, query string, plan *xmlpub.TagPlan, w io.Writer, opts ...QueryOption) (Stats, error) {
	planJSON, err := json.Marshal(plan)
	if err != nil {
		return Stats{}, err
	}
	id, ch, err := c.register()
	if err != nil {
		return Stats{}, err
	}
	defer c.unregister(id)
	msg := wire.QueryMsg{ID: id, SQL: query, Opts: gapplydb.OptionsOf(opts...), XML: true, TagPlan: planJSON}
	if err := c.writeFrame(wire.TypeQuery, msg.Encode()); err != nil {
		return Stats{}, err
	}
	stop := c.watchCancel(ctx, id)
	defer stop()
	for {
		f, ok := <-ch
		if !ok {
			return Stats{}, c.connErr()
		}
		switch f.t {
		case wire.TypeXMLChunk:
			// chunk aliases the frame's buffer. An io.Writer may not
			// retain it, so the buffer goes back once Write returns.
			_, chunk, err := wire.DecodeChunk(f.payload)
			if err != nil {
				return Stats{}, err
			}
			_, err = w.Write(chunk)
			c.recycle(f.payload)
			if err != nil {
				// Local sink failure: cancel the stream server-side and
				// drain to the terminator so the id can be reused safely.
				c.writeFrame(wire.TypeCancel, wire.EncodeID(id))
				drainTo(ch)
				return Stats{}, err
			}
		case wire.TypeEnd:
			m, err := wire.DecodeEnd(f.payload)
			if err != nil {
				return Stats{}, err
			}
			return Stats{Rows: m.Rows, Elapsed: m.Elapsed, Exec: foldStats(m.Stats), TraceID: m.Trace}, nil
		case wire.TypeError:
			return Stats{}, decodeServerError(f.payload)
		default:
			return Stats{}, fmt.Errorf("client: unexpected frame %v in XML stream", f.t)
		}
	}
}

// Set assigns one of the session's settings on the server, by the name
// and in the text form gapplydb.Options.Set parses ("timeout", "dop",
// "partition", "disable_rules", "trace_sampling", …). Subsequent queries
// on this connection inherit it unless their own options override.
func (c *Conn) Set(name, value string) error {
	id, ch, err := c.register()
	if err != nil {
		return err
	}
	defer c.unregister(id)
	msg := wire.SetMsg{ID: id, Name: name, Value: value}
	if err := c.writeFrame(wire.TypeSet, msg.Encode()); err != nil {
		return err
	}
	f, ok := <-ch
	if !ok {
		return c.connErr()
	}
	switch f.t {
	case wire.TypeOK:
		return nil
	case wire.TypeError:
		return decodeServerError(f.payload)
	default:
		return fmt.Errorf("client: unexpected frame %v for set", f.t)
	}
}

// Ping round-trips a no-op frame, verifying the connection and the
// server's dispatch loop are alive.
func (c *Conn) Ping(ctx context.Context) error {
	id, ch, err := c.register()
	if err != nil {
		return err
	}
	defer c.unregister(id)
	if err := c.writeFrame(wire.TypePing, wire.EncodeID(id)); err != nil {
		return err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return c.connErr()
		}
		if f.t != wire.TypePong {
			return fmt.Errorf("client: unexpected frame %v for ping", f.t)
		}
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Rows streams one query's result. Not safe for concurrent use (one
// consumer per query; separate queries on the same Conn are fine).
type Rows struct {
	// Columns are the output column names, in order.
	Columns []string

	conn  *Conn
	id    uint64
	ch    chan frame
	stop  func()
	batch [][]any
	bi    int
	stats Stats
	done  bool
	err   error
}

// Next returns the next row; ok=false with nil error marks exhaustion.
// Any error is final.
func (r *Rows) Next() ([]any, bool, error) {
	for {
		if r.bi < len(r.batch) {
			row := r.batch[r.bi]
			r.bi++
			return row, true, nil
		}
		if r.done {
			return nil, false, r.err
		}
		f, ok := <-r.ch
		if !ok {
			r.settle(r.conn.connErr())
			return nil, false, r.err
		}
		switch f.t {
		case wire.TypeRowBatch:
			// DecodeRowBatch copies every cell out of the buffer.
			_, rows, err := wire.DecodeRowBatch(f.payload)
			r.conn.recycle(f.payload)
			if err != nil {
				r.settle(err)
				return nil, false, r.err
			}
			r.batch, r.bi = rows, 0
		case wire.TypeEnd:
			m, err := wire.DecodeEnd(f.payload)
			if err != nil {
				r.settle(err)
				return nil, false, r.err
			}
			r.stats = Stats{Rows: m.Rows, Elapsed: m.Elapsed, Exec: foldStats(m.Stats), TraceID: m.Trace}
			r.settle(nil)
			return nil, false, nil
		case wire.TypeError:
			r.settle(decodeServerError(f.payload))
			return nil, false, r.err
		default:
			r.settle(fmt.Errorf("client: unexpected frame %v in row stream", f.t))
			return nil, false, r.err
		}
	}
}

// settle finalizes the stream state exactly once.
func (r *Rows) settle(err error) {
	if r.done {
		return
	}
	r.done = true
	r.err = err
	r.stop()
	r.conn.unregister(r.id)
}

// Close releases the query. Closing before exhaustion cancels it
// server-side and drains the stream to its terminator, so the
// connection stays usable. Idempotent.
func (r *Rows) Close() error {
	if r.done {
		return nil
	}
	r.conn.writeFrame(wire.TypeCancel, wire.EncodeID(r.id))
	drainTo(r.ch)
	r.settle(nil)
	return nil
}

// Err returns the error the stream ended with, if any.
func (r *Rows) Err() error { return r.err }

// Stats returns the completed query's statistics (zero until the
// stream ends normally).
func (r *Rows) Stats() Stats { return r.stats }

// drainTo consumes frames until the stream's End/Error terminator (or
// connection death), discarding payloads.
func drainTo(ch chan frame) {
	for f := range ch {
		if f.t == wire.TypeEnd || f.t == wire.TypeError {
			return
		}
	}
}

// decodeServerError converts a wire error payload.
func decodeServerError(p []byte) error {
	m, err := wire.DecodeError(p)
	if err != nil {
		return err
	}
	return &ServerError{Code: m.Code, Message: m.Message, TraceID: m.Trace}
}

// foldStats rebuilds ExecStats from the wire's (name, value) pairs.
func foldStats(pairs []wire.StatPair) gapplydb.ExecStats {
	var st gapplydb.ExecStats
	for _, p := range pairs {
		switch p.Name {
		case "rows_scanned":
			st.RowsScanned = p.Value
		case "groups":
			st.Groups = p.Value
		case "inner_execs":
			st.InnerExecs = p.Value
		case "serial_group_execs":
			st.SerialGroupExecs = p.Value
		case "parallel_group_execs":
			st.ParallelGroupExecs = p.Value
		case "apply_execs":
			st.ApplyExecs = p.Value
		case "apply_cache_hits":
			st.ApplyCacheHits = p.Value
		case "join_probes":
			st.JoinProbes = p.Value
		case "spool_builds":
			st.SpoolBuilds = p.Value
		case "spool_hits":
			st.SpoolHits = p.Value
		case "plan_cache_hits":
			st.PlanCacheHits = p.Value
		}
	}
	return st
}
