package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gapplydb"
	"gapplydb/internal/metrics"
	"gapplydb/internal/sql"
	"gapplydb/internal/trace"
	"gapplydb/internal/wire"
)

// Config tunes one server instance. The zero value is usable: every
// field has a production-shaped default.
type Config struct {
	// MaxConcurrent caps queries executing at once across all sessions
	// (the admission semaphore's width). Default: GOMAXPROCS.
	MaxConcurrent int
	// MaxQueued bounds the admission wait queue; a query arriving with
	// the queue full is fast-rejected with wire.CodeBusy instead of
	// adding latency to a saturated server. Default: 2×MaxConcurrent.
	MaxQueued int
	// SessionInFlight caps one session's concurrently submitted queries
	// (admitted or queued); excess submissions are rejected with
	// wire.CodeSession. Default: 8.
	SessionInFlight int
	// MaxFrame bounds one received frame's payload; oversized frames
	// poison the connection (the session replies with wire.CodeProtocol
	// and hangs up). Default: wire.DefaultMaxFrame.
	MaxFrame int
	// HandshakeTimeout bounds how long a fresh connection may take to
	// send its Hello. Default: 10s.
	HandshakeTimeout time.Duration
	// Banner is the server identification sent in the Welcome frame.
	Banner string
	// TraceSampling head-samples this fraction of queries that arrive
	// without their own trace ID into the flight recorder (0 = only
	// client-issued trace IDs are traced). Sessions override it with
	// `Set trace_sampling`.
	TraceSampling float64
	// Registry receives the server_* metrics. Default: a fresh registry
	// per server, so parallel servers (and parallel tests) never share
	// counters.
	Registry *metrics.Registry
	// Logf, when set, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 2 * c.MaxConcurrent
	}
	if c.SessionInFlight <= 0 {
		c.SessionInFlight = 8
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.Banner == "" {
		c.Banner = "gapplyd"
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server serves gapplydb queries over the wire protocol. Create with
// New, start with Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	db      *gapplydb.Database
	cfg     Config
	reg     *metrics.Registry
	adm     *admission
	sampler *trace.Sampler // head-sampling decisions for untagged queries
	started time.Time      // process-visible uptime base for /healthz
	// chunks holds the frame buffers of finished XML queries for the
	// next ones, at most one per admission slot. A sync.Pool missed here:
	// its Put lands in the running P's private slot, which a Get on the
	// other P cannot reach, and a query's goroutine often resumes on
	// another P after blocking on the socket.
	chunks chan *wire.Chunk

	mu       sync.Mutex
	lis      net.Listener
	sessions map[*session]struct{}
	draining atomic.Bool
	wgConns  sync.WaitGroup
}

// New builds a server over an already-loaded database. The server does
// not own the database: Shutdown drains the server's own work but
// leaves the database open (callers that want full teardown follow with
// db.Close()).
func New(db *gapplydb.Database, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		db:      db,
		cfg:     cfg,
		reg:     cfg.Registry,
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueued, cfg.Registry),
		sampler: trace.NewSampler(time.Now().UnixNano()),
		started: time.Now(),
		chunks:  make(chan *wire.Chunk, cfg.MaxConcurrent),

		sessions: make(map[*session]struct{}),
	}
}

// SeedTraceSampler reseeds the server's head-sampling decision stream —
// deterministic sampling for tests and reproducible load runs.
func (s *Server) SeedTraceSampler(seed int64) { s.sampler.Reseed(seed) }

// Metrics snapshots the server's registry (the server_* counters plus
// the admission-wait histogram).
func (s *Server) Metrics() metrics.Snapshot { return s.reg.Snapshot() }

// Addr returns the listening address once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// ListenAndServe listens on the TCP address and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Shutdown closes it. It
// returns nil after a Shutdown-initiated stop and the accept error
// otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.lis != nil {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.reg.Counter("server_connections").Inc()
		s.reg.Counter("server_connections_active").Inc()
		sess := newSession(s, conn)
		s.mu.Lock()
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wgConns.Add(1)
		go sess.serve()
	}
}

// removeSession unregisters a finished session.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	s.reg.Counter("server_connections_active").Add(-1)
	s.wgConns.Done()
}

// snapshotSessions copies the live session set.
func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// Shutdown stops the server gracefully:
//
//  1. Drain gate — the listener closes and every session starts
//     rejecting new queries with wire.CodeShutdown; in-flight queries
//     keep streaming.
//  2. Drain — each session waits for its in-flight queries to finish,
//     then hangs up; Shutdown returns nil once every connection is gone.
//  3. Force — if ctx expires first, remaining queries are cancelled
//     through the engine's context machinery (they unwind within one
//     row batch) and connections are closed; Shutdown returns ctx's
//     error.
//
// Shutdown is idempotent; concurrent calls race harmlessly (all of them
// wait for the connections to unwind).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	s.mu.Unlock()

	// Ask every session to hang up once its in-flight work completes.
	for _, sess := range s.snapshotSessions() {
		go sess.drain()
	}
	done := make(chan struct{})
	go func() {
		s.wgConns.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force: cancel whatever is still running and close the pipes.
		for _, sess := range s.snapshotSessions() {
			sess.cancel()
			sess.conn.Close()
		}
		<-done
		return context.Cause(ctx)
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// statPairs flattens the public ExecStats into wire (name, value)
// pairs for the End frame.
func statPairs(st gapplydb.ExecStats) []wire.StatPair {
	return []wire.StatPair{
		{Name: "rows_scanned", Value: st.RowsScanned},
		{Name: "groups", Value: st.Groups},
		{Name: "inner_execs", Value: st.InnerExecs},
		{Name: "serial_group_execs", Value: st.SerialGroupExecs},
		{Name: "parallel_group_execs", Value: st.ParallelGroupExecs},
		{Name: "apply_execs", Value: st.ApplyExecs},
		{Name: "apply_cache_hits", Value: st.ApplyCacheHits},
		{Name: "join_probes", Value: st.JoinProbes},
		{Name: "spool_builds", Value: st.SpoolBuilds},
		{Name: "spool_hits", Value: st.SpoolHits},
		{Name: "plan_cache_hits", Value: st.PlanCacheHits},
	}
}

// errorCode maps an engine error onto the wire taxonomy.
func errorCode(err error) string {
	var re *gapplydb.ResourceError
	var pe *sql.ParseError
	switch {
	case errors.Is(err, context.Canceled):
		return wire.CodeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeTimeout
	case errors.As(err, &re):
		return wire.CodeResource
	case errors.Is(err, gapplydb.ErrDatabaseClosed):
		return wire.CodeShutdown
	case errors.As(err, &pe):
		return wire.CodeParse
	default:
		return wire.CodeInternal
	}
}
