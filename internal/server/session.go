package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gapplydb"
	"gapplydb/internal/trace"
	"gapplydb/internal/wire"
	"gapplydb/xmlpub"
)

// session is one client connection: a read loop dispatching frames,
// any number of concurrently running query goroutines streaming
// results back through a write mutex, and the per-session half of
// admission control (the in-flight cap).
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer

	ctx    context.Context // session root; cancel tears down every query
	cancel context.CancelFunc

	mu       sync.Mutex
	opts     gapplydb.Options // the session's settings, under every query's own
	inflight map[uint64]context.CancelFunc
	wgQ      sync.WaitGroup
	draining bool
}

func newSession(s *Server, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	return &session{
		srv: s, conn: conn,
		br: bufio.NewReaderSize(conn, 64<<10),
		bw: bufio.NewWriterSize(conn, 64<<10),

		ctx: ctx, cancel: cancel,
		inflight: make(map[uint64]context.CancelFunc),
	}
}

// writeFrame serializes one frame to the connection. Frames from
// concurrent query goroutines interleave whole — never byte-mixed —
// because the mutex covers the write+flush pair.
func (s *session) writeFrame(t wire.Type, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := wire.WriteFrame(s.bw, t, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *session) writeError(id uint64, code, msg string) error {
	return s.writeErrorTraced(id, code, msg, trace.ID{})
}

// writeErrorTraced is writeError echoing the failed query's trace ID so
// the client can still find the error's trace in the flight recorder.
func (s *session) writeErrorTraced(id uint64, code, msg string, tid trace.ID) error {
	// Per-code taxonomy counters: server_errors_cancelled, _timeout,
	// _busy, … so operators (and the replay harness) can tell shedding
	// from genuine failures without parsing logs.
	s.srv.reg.Counter("server_errors_" + code).Inc()
	m := wire.ErrorMsg{ID: id, Code: code, Message: msg, Trace: tid}
	return s.writeFrame(wire.TypeError, m.Encode())
}

// serve runs the session to completion: handshake, then the dispatch
// loop until the client hangs up, a protocol violation poisons the
// stream, or shutdown closes the connection. Teardown cancels every
// in-flight query (the mid-stream-disconnect contract: the engine
// unwinds within one row batch and the admission slots come back).
func (s *session) serve() {
	defer func() {
		s.cancel()   // cancel in-flight queries
		s.wgQ.Wait() // wait for their goroutines to release slots
		s.conn.Close()
		s.srv.removeSession(s)
	}()
	if err := s.handshake(); err != nil {
		s.srv.logf("session %s: handshake: %v", s.conn.RemoteAddr(), err)
		return
	}
	for {
		t, payload, err := wire.ReadFrame(s.br, s.srv.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The stream position is unrecoverable past an oversized
				// header: report and hang up.
				s.writeError(0, wire.CodeProtocol, err.Error())
			}
			return
		}
		if err := s.dispatch(t, payload); err != nil {
			s.srv.logf("session %s: %v", s.conn.RemoteAddr(), err)
			return
		}
	}
}

// handshake expects the client's Hello within the configured deadline
// and answers with Welcome.
func (s *session) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.HandshakeTimeout))
	defer s.conn.SetReadDeadline(time.Time{})
	t, payload, err := wire.ReadFrame(s.br, s.srv.cfg.MaxFrame)
	if err != nil {
		return err
	}
	if t != wire.TypeHello {
		s.writeError(0, wire.CodeProtocol, "expected hello")
		return fmt.Errorf("expected hello, got %v", t)
	}
	version, err := wire.DecodeHello(payload)
	if err != nil {
		s.writeError(0, wire.CodeProtocol, err.Error())
		return err
	}
	if version != wire.ProtocolVersion {
		s.writeError(0, wire.CodeProtocol,
			fmt.Sprintf("protocol version %d unsupported (want %d)", version, wire.ProtocolVersion))
		return fmt.Errorf("version mismatch: %d", version)
	}
	return s.writeFrame(wire.TypeWelcome, wire.EncodeWelcome(s.srv.cfg.Banner))
}

// dispatch routes one frame. A returned error poisons the session.
func (s *session) dispatch(t wire.Type, payload []byte) error {
	switch t {
	case wire.TypeQuery:
		m, err := wire.DecodeQuery(payload)
		if err != nil {
			return err
		}
		s.startQuery(m)
		return nil
	case wire.TypeCancel:
		id, err := wire.DecodeID(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		cancel := s.inflight[id]
		s.mu.Unlock()
		if cancel != nil {
			s.srv.reg.Counter("server_cancels").Inc()
			cancel()
		}
		return nil
	case wire.TypePing:
		id, err := wire.DecodeID(payload)
		if err != nil {
			return err
		}
		return s.writeFrame(wire.TypePong, wire.EncodeID(id))
	case wire.TypeSet:
		m, err := wire.DecodeSet(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		err = s.opts.Set(m.Name, m.Value)
		s.mu.Unlock()
		if err != nil {
			return s.writeError(m.ID, wire.CodeProtocol, err.Error())
		}
		return s.writeFrame(wire.TypeOK, wire.EncodeID(m.ID))
	default:
		return fmt.Errorf("unexpected frame %v", t)
	}
}

// startQuery admits one query submission at the session level (drain
// gate, per-session in-flight cap) and spawns its goroutine.
func (s *session) startQuery(m *wire.QueryMsg) {
	s.srv.reg.Counter("server_queries").Inc()
	if s.srv.draining.Load() || s.sessionDraining() {
		s.srv.reg.Counter("server_queries_rejected").Inc()
		s.writeError(m.ID, wire.CodeShutdown, "server is shutting down")
		return
	}
	qctx, cancel := context.WithCancel(s.ctx)
	s.mu.Lock()
	if len(s.inflight) >= s.srv.cfg.SessionInFlight {
		s.mu.Unlock()
		cancel()
		s.srv.reg.Counter("server_queries_rejected").Inc()
		s.writeError(m.ID, wire.CodeSession,
			fmt.Sprintf("session in-flight limit (%d) reached", s.srv.cfg.SessionInFlight))
		return
	}
	if _, dup := s.inflight[m.ID]; dup {
		s.mu.Unlock()
		cancel()
		s.writeError(m.ID, wire.CodeProtocol, "query id already in flight")
		return
	}
	s.inflight[m.ID] = cancel
	s.wgQ.Add(1)
	s.mu.Unlock()

	go func() {
		defer func() {
			s.mu.Lock()
			delete(s.inflight, m.ID)
			s.mu.Unlock()
			cancel()
			s.wgQ.Done()
		}()
		s.runQuery(qctx, m)
	}()
}

func (s *session) sessionDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drain flips the session to reject new queries, waits for the
// in-flight ones to finish streaming, and hangs up — the graceful half
// of Shutdown.
func (s *session) drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wgQ.Wait()
	s.conn.Close() // unblocks the read loop; serve() finishes teardown
}

// options resolves one query's settings: the session's, with the
// query's own over them field by field.
func (s *session) options(query *gapplydb.Options) gapplydb.Options {
	s.mu.Lock()
	o := s.opts
	s.mu.Unlock()
	o.Overlay(*query)
	return o
}

// Streaming shape: batches flush at either bound, so small results
// arrive in one frame and large ones never materialize server-side.
const (
	batchMaxRows  = 256
	batchMaxBytes = 128 << 10
	xmlChunkBytes = 32 << 10
)

// traceBuilder decides whether a query running under o is traced and,
// if so, opens the trace before admission so the queue wait is a span.
// A trace ID or a forced trace always traces; otherwise the sampling
// probability (the server's, when o sets none) draws on the server's
// sampler.
func (s *session) traceBuilder(o *gapplydb.Options, query string) *trace.Builder {
	id := o.Trace
	if id.IsZero() {
		p := o.TraceSampling
		if p == 0 {
			p = s.srv.cfg.TraceSampling
		}
		if !o.ForceTrace && !s.srv.sampler.Sample(p) {
			return nil
		}
		id = trace.NewID()
	}
	return trace.NewBuilder(id, query)
}

// runQuery executes one admitted submission end to end: global
// admission, engine stream, row-batch or XML streaming, completion or
// error frame. It owns the query's admission slot.
func (s *session) runQuery(ctx context.Context, m *wire.QueryMsg) {
	opts := s.options(&m.Opts)
	tb := s.traceBuilder(&opts, m.SQL) // nil for untraced; all span calls no-op
	tid := tb.ID()
	admSpan := tb.StartSpan("admission", 0)
	if err := s.srv.adm.acquire(ctx); err != nil {
		tb.EndSpan(admSpan)
		switch {
		case errors.Is(err, errBusy):
			s.writeErrorTraced(m.ID, wire.CodeBusy, "too many concurrent queries; retry later", tid)
		case errors.Is(err, context.Canceled):
			s.writeErrorTraced(m.ID, wire.CodeCancelled, "cancelled while queued", tid)
		default:
			s.writeErrorTraced(m.ID, errorCode(err), err.Error(), tid)
		}
		// The engine never saw this query, so the server records the
		// admission-failure trace itself.
		s.srv.db.Traces().Record(tb.Finish("error", err.Error()))
		return
	}
	tb.EndSpan(admSpan)
	defer s.srv.adm.release()
	s.srv.reg.Counter("server_queries_active").Inc()
	defer s.srv.reg.Counter("server_queries_active").Add(-1)

	// tb is the tracing decision: the engine must not sample again.
	opts.Trace, opts.ForceTrace, opts.TraceSampling = trace.ID{}, false, 0
	stream, err := s.srv.db.StreamContext(ctx, m.SQL, gapplydb.WithOptions(opts), gapplydb.WithTraceBuilder(tb))
	if err != nil {
		s.srv.reg.Counter("server_query_errors").Inc()
		s.writeErrorTraced(m.ID, errorCode(err), err.Error(), tid)
		return
	}
	defer stream.Close()

	if m.XML {
		s.streamXML(m.ID, stream, m.TagPlan, tid)
		return
	}
	s.streamRows(m.ID, stream, tid)
}

// streamRows sends the header, then row batches, then End (or Error).
// Rows are encoded as they arrive into one buffer reused for every
// frame of the query, and a frame is flushed at batchMaxRows rows or
// once its payload really holds batchMaxBytes.
func (s *session) streamRows(id uint64, stream *gapplydb.Stream, tid trace.ID) {
	cols := stream.Columns
	h := wire.RowHeaderMsg{ID: id, Columns: cols}
	if err := s.writeFrame(wire.TypeRowHeader, h.Encode()); err != nil {
		return // connection gone; teardown cancels the stream
	}
	var (
		batch wire.RowBatch
		total int64
	)
	batch.Begin(id, len(cols))
	flush := func() error {
		if batch.Rows() == 0 {
			return nil
		}
		if err := s.writeFrame(wire.TypeRowBatch, batch.Payload()); err != nil {
			return err
		}
		s.srv.reg.Counter("server_rows_streamed").Add(int64(batch.Rows()))
		s.srv.reg.Counter("server_bytes_streamed").Add(int64(batch.Size()))
		total += int64(batch.Rows())
		batch.Begin(id, len(cols))
		return nil
	}
	for {
		rows, ok, err := stream.NextRows()
		if err != nil {
			s.srv.reg.Counter("server_query_errors").Inc()
			s.writeErrorTraced(id, errorCode(err), err.Error(), tid)
			return
		}
		if !ok {
			break
		}
		for _, row := range rows {
			if err := batch.Row(row); err != nil {
				s.srv.reg.Counter("server_query_errors").Inc()
				s.writeErrorTraced(id, wire.CodeInternal, err.Error(), tid)
				return
			}
			if batch.Rows() >= batchMaxRows || batch.Size() >= batchMaxBytes {
				if err := flush(); err != nil {
					return
				}
			}
		}
	}
	if err := flush(); err != nil {
		return
	}
	end := wire.EndMsg{ID: id, Rows: total, Elapsed: stream.Elapsed(), Stats: statPairs(stream.Stats()), Trace: tid}
	s.writeFrame(wire.TypeEnd, end.Encode())
}

// streamXML pipes the result through the constant-space tagger into
// XMLChunk frames — the whole document never exists server-side.
func (s *session) streamXML(id uint64, stream *gapplydb.Stream, planJSON []byte, tid trace.ID) {
	var plan xmlpub.TagPlan
	if err := json.Unmarshal(planJSON, &plan); err != nil {
		s.writeErrorTraced(id, wire.CodeProtocol, "bad tag plan: "+err.Error(), tid)
		return
	}
	// The chunk's buffer grows to a frame's size; it goes back to the
	// server for the next XML query (writeFrame keeps no payload).
	var chunk *wire.Chunk
	select {
	case chunk = <-s.srv.chunks:
	default:
		chunk = new(wire.Chunk)
	}
	defer func() {
		select {
		case s.srv.chunks <- chunk:
		default:
		}
	}()
	cw := &chunkWriter{sess: s, id: id, chunk: chunk}
	cw.chunk.Begin(id)
	tagger := xmlpub.NewTagger(&plan, cw)
	// tagFailed reports a tagger error — unless it is the chunk writer's
	// own, which means the connection is gone. The statement itself did
	// not fail, so nothing has settled the stream yet: close it first, so
	// the trace the Error frame names is already in the flight recorder
	// when the client reads the frame.
	tagFailed := func(err error) {
		stream.Close()
		if cw.err == nil {
			s.srv.reg.Counter("server_query_errors").Inc()
			s.writeErrorTraced(id, wire.CodeInternal, err.Error(), tid)
		}
	}
	for {
		rows, ok, err := stream.NextRows()
		if err != nil {
			s.srv.reg.Counter("server_query_errors").Inc()
			s.writeErrorTraced(id, errorCode(err), err.Error(), tid)
			return
		}
		if !ok {
			break
		}
		for _, row := range rows {
			if err := tagger.TypedRow(row); err != nil {
				tagFailed(err)
				return
			}
		}
	}
	if err := tagger.Close(); err != nil {
		tagFailed(err)
		return
	}
	if err := cw.flush(); err != nil {
		return
	}
	end := wire.EndMsg{ID: id, Rows: cw.written, Elapsed: stream.Elapsed(), Stats: statPairs(stream.Stats()), Trace: tid}
	s.writeFrame(wire.TypeEnd, end.Encode())
}

// chunkWriter collects tagger output behind an XMLChunk payload header
// — in one buffer reused for every chunk of the query, and pooled across
// queries — and emits a frame at the chunk threshold. written counts
// document bytes (not frame overhead).
type chunkWriter struct {
	sess    *session
	id      uint64
	chunk   *wire.Chunk
	written int64
	err     error
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.chunk.Write(p)
	if c.chunk.Len() >= xmlChunkBytes {
		if err := c.flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (c *chunkWriter) flush() error {
	if c.err != nil {
		return c.err
	}
	n := c.chunk.Len()
	if n == 0 {
		return nil
	}
	if err := c.sess.writeFrame(wire.TypeXMLChunk, c.chunk.Payload()); err != nil {
		c.err = err
		return err
	}
	c.sess.srv.reg.Counter("server_bytes_streamed").Add(int64(n))
	c.written += int64(n)
	c.chunk.Begin(c.id)
	return nil
}
