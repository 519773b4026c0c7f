package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/server"
)

// The client's error surface is part of the wire contract: every
// server-side failure class must arrive as a typed *ServerError whose
// code matches the taxonomy, and the cancellation/timeout codes must
// additionally satisfy errors.Is against the context sentinels so
// callers can keep their ctx-based error handling unchanged over the
// wire.

var (
	errDBOnce sync.Once
	errDB     *gapplydb.Database
)

func errTestDB(t *testing.T) *gapplydb.Database {
	t.Helper()
	errDBOnce.Do(func() {
		db, err := gapplydb.OpenTPCH(0.001)
		if err != nil {
			panic(err)
		}
		errDB = db
	})
	return errDB
}

func startErrServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv := server.New(errTestDB(t), cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	return srv
}

// counterValue reads one server registry counter through the public
// HTTP metrics handler — the only window client tests have into the
// server's internals.
func counterValue(t *testing.T, srv *server.Server, name string) int64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, req)
	var s struct {
		Counters map[string]int64
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	return s.Counters[name]
}

// waitCounter polls a counter until it reaches at least want.
func waitCounter(t *testing.T, srv *server.Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for counterValue(t, srv, name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (now %d)", name, want, counterValue(t, srv, name))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func dialErr(t *testing.T, addr string) *client.Conn {
	t.Helper()
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// wideStream produces far more output than client-channel plus kernel
// buffering can hold (1.6M rows ≈ 40 MB at sf 0.001), so mid-stream
// control actions (cancel, close) always land while the server is still
// producing.
const wideStream = "select ps_partkey, p_partkey, s_suppkey from partsupp, part, supplier"

// slowQuery runs long enough (a 16M-row cross product) to hold an
// admission slot while the test probes rejection behavior.
const slowQuery = "select count(*) from partsupp, part, supplier, supplier as s2"

func drainUntilError(t *testing.T, rows *client.Rows) error {
	t.Helper()
	for {
		_, ok, err := rows.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

func TestBusyFastReject(t *testing.T) {
	// One slot, one queue position: a running slow query holds the slot,
	// a second waits in the queue, so a third submission must be
	// fast-rejected with CodeBusy rather than waiting.
	srv := startErrServer(t, server.Config{MaxConcurrent: 1, MaxQueued: 1})
	addr := srv.Addr().String()
	holder := dialErr(t, addr)
	probe := dialErr(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := holder.Query(ctx, slowQuery)
			if err == nil {
				drainUntilError(t, rows)
			}
		}()
	}
	defer wg.Wait()
	defer cancel()

	// Deterministic sequencing via the server's own counters: one holder
	// executing, the other in the admission queue.
	waitCounter(t, srv, "server_queries_active", 1)
	waitCounter(t, srv, "server_queries_queued", 1)

	_, err := probe.Query(context.Background(), "select count(*) from part")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeBusy {
		t.Fatalf("err = %v, want ServerError code %q", err, client.CodeBusy)
	}
	if counterValue(t, srv, "server_errors_"+client.CodeBusy) < 1 {
		t.Fatal("server_errors_busy counter did not record the rejection")
	}
}

func TestSessionInFlightLimit(t *testing.T) {
	srv := startErrServer(t, server.Config{SessionInFlight: 1})
	conn := dialErr(t, srv.Addr().String())

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows, err := conn.Query(ctx, slowQuery)
		if err == nil {
			drainUntilError(t, rows)
		}
	}()
	defer wg.Wait()
	defer cancel()

	waitCounter(t, srv, "server_queries_active", 1)
	_, err := conn.Query(context.Background(), "select count(*) from part")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeSession {
		t.Fatalf("err = %v, want ServerError code %q", err, client.CodeSession)
	}
}

func TestCancelDuringStream(t *testing.T) {
	conn := dialErr(t, startErrServer(t, server.Config{}).Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := conn.Query(ctx, wideStream)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 100; i++ {
		if _, ok, err := rows.Next(); err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	err = drainUntilError(t, rows)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeCancelled {
		t.Fatalf("err = %v, want ServerError code %q", err, client.CodeCancelled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ServerError must satisfy errors.Is(err, context.Canceled); got %v", err)
	}
	// The connection survives a cancelled query: the next statement on
	// the same session must work.
	rows2, err := conn.Query(context.Background(), "select count(*) from part")
	if err != nil {
		t.Fatalf("post-cancel query: %v", err)
	}
	if err := drainUntilError(t, rows2); err != nil {
		t.Fatalf("post-cancel drain: %v", err)
	}
}

func TestTimeoutMapsToDeadline(t *testing.T) {
	conn := dialErr(t, startErrServer(t, server.Config{}).Addr().String())
	rows, err := conn.Query(context.Background(), slowQuery, gapplydb.WithTimeout(time.Millisecond))
	if err == nil {
		err = drainUntilError(t, rows)
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeTimeout {
		t.Fatalf("err = %v, want ServerError code %q", err, client.CodeTimeout)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout ServerError must satisfy errors.Is(err, context.DeadlineExceeded); got %v", err)
	}
}

func TestBudgetExceeded(t *testing.T) {
	conn := dialErr(t, startErrServer(t, server.Config{}).Addr().String())
	rows, err := conn.Query(context.Background(), wideStream, gapplydb.WithOptions(gapplydb.Options{MaxOutputRows: 10}))
	if err == nil {
		err = drainUntilError(t, rows)
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeResource {
		t.Fatalf("err = %v, want ServerError code %q", err, client.CodeResource)
	}
}

func TestMidStreamDisconnect(t *testing.T) {
	// Closing the connection under an active stream must surface
	// ErrConnClosed from the iterator, not a hang or a panic.
	addr := startErrServer(t, server.Config{}).Addr().String()
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := conn.Query(context.Background(), wideStream)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := rows.Next(); err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	err = drainUntilError(t, rows)
	if !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
	// Further use of the closed connection fails the same way.
	if _, err := conn.Query(context.Background(), "select 1"); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("post-close query err = %v, want ErrConnClosed", err)
	}
}

func TestParseErrorCode(t *testing.T) {
	conn := dialErr(t, startErrServer(t, server.Config{}).Addr().String())
	_, err := conn.Query(context.Background(), "selec nonsense from nowhere")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeParse {
		t.Fatalf("err = %v, want ServerError code %q", err, client.CodeParse)
	}
}
