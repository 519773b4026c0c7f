package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/experiments"
	"gapplydb/xmlpub"
)

func newHTTPRequest(t *testing.T, path string) (*http.Request, *httptest.ResponseRecorder) {
	t.Helper()
	return httptest.NewRequest(http.MethodGet, path, nil), httptest.NewRecorder()
}

// The battery shares one TPC-H instance: the engine is read-only after
// load, and a shared catalog is exactly the multi-tenant shape the
// server exists to serve.
var (
	dbOnce sync.Once
	testdb *gapplydb.Database
)

func testDB(t *testing.T) *gapplydb.Database {
	t.Helper()
	dbOnce.Do(func() {
		db, err := gapplydb.OpenTPCH(0.001)
		if err != nil {
			panic(err)
		}
		testdb = db
	})
	return testdb
}

// startServer brings a server up on a loopback ephemeral port and
// registers its teardown.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(testDB(t), cfg)
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
	// Serve sets the listener before accepting; wait for it.
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	return srv
}

func dial(t *testing.T, srv *Server) *client.Conn {
	t.Helper()
	conn, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// waitNoExtraGoroutines polls until the goroutine count returns to the
// baseline (work unwinding is asynchronous) and fails with a full dump
// if it never does.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	var n int
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d at baseline, %d after\n%s", base, n, buf[:runtime.Stack(buf, true)])
}

// drainRows consumes a stream to its end, returning the error it ended
// with (nil for clean exhaustion) and always releasing the query.
func drainRows(rows *client.Rows) error {
	defer rows.Close()
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

func fetchAll(t *testing.T, rows *client.Rows) [][]any {
	t.Helper()
	var out [][]any
	for {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatalf("remote stream: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

// requireSameRows compares a remote result against the in-process
// reference value by value — the wire carries the same Go
// representations Result.Rows uses, so equality must be exact.
func requireSameRows(t *testing.T, name string, local *gapplydb.Result, cols []string, remote [][]any) {
	t.Helper()
	if err := sameRows(local, cols, remote); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// sameRows is requireSameRows' comparison, for goroutines that may not
// call t.Fatal.
func sameRows(local *gapplydb.Result, cols []string, remote [][]any) error {
	if strings.Join(local.Columns, ",") != strings.Join(cols, ",") {
		return fmt.Errorf("columns differ: local %v remote %v", local.Columns, cols)
	}
	if len(local.Rows) != len(remote) {
		return fmt.Errorf("row counts differ: local %d remote %d", len(local.Rows), len(remote))
	}
	for i := range local.Rows {
		if len(local.Rows[i]) != len(remote[i]) {
			return fmt.Errorf("row %d widths differ", i)
		}
		for j := range local.Rows[i] {
			if local.Rows[i][j] != remote[i][j] {
				return fmt.Errorf("row %d col %d: local %#v remote %#v", i, j, local.Rows[i][j], remote[i][j])
			}
		}
	}
	return nil
}

// TestRemoteDifferentialSuite is the acceptance gate: every statement
// of the evaluation workload (Figure 8, Table 1, spooling) returns
// byte-identical rows over the wire and in-process, at dop 1 and 8,
// and the five published XML documents match byte for byte.
func TestRemoteDifferentialSuite(t *testing.T) {
	db := testDB(t)
	srv := startServer(t, Config{})
	conn := dial(t, srv)
	ctx := context.Background()

	suite := experiments.SuiteQueries()
	for _, dop := range []int{1, 8} {
		for _, q := range suite {
			local, err := db.QueryContext(ctx, q.SQL, gapplydb.WithDOP(dop))
			if err != nil {
				t.Fatalf("%s (dop %d): local: %v", q.Name, dop, err)
			}
			rows, err := conn.Query(ctx, q.SQL, gapplydb.WithDOP(dop))
			if err != nil {
				t.Fatalf("%s (dop %d): remote: %v", q.Name, dop, err)
			}
			remote := fetchAll(t, rows)
			requireSameRows(t, fmt.Sprintf("%s (dop %d)", q.Name, dop), local, rows.Columns, remote)
			if st := rows.Stats(); st.Rows != int64(len(remote)) {
				t.Fatalf("%s: End reported %d rows, streamed %d", q.Name, st.Rows, len(remote))
			}
		}
	}

	for _, v := range []struct {
		name string
		q    *xmlpub.FLWR
	}{
		{"Q1", xmlpub.Q1()},
		{"Q2", xmlpub.Q2()},
		{"Q3", xmlpub.Q3(0.9, 1.1)},
		{"ExpensiveSuppliers", xmlpub.ExpensiveSuppliers(1000)},
		{"RichSuppliers", xmlpub.RichSuppliers(5000)},
	} {
		for _, dop := range []int{1, 8} {
			var localXML, remoteXML bytes.Buffer
			if _, err := xmlpub.Publish(db, v.q, xmlpub.GApply, &localXML, gapplydb.WithDOP(dop)); err != nil {
				t.Fatalf("xml %s: local: %v", v.name, err)
			}
			st, err := conn.QueryXML(ctx, v.q.GApplySQL(), v.q.TagPlan(), &remoteXML, gapplydb.WithDOP(dop))
			if err != nil {
				t.Fatalf("xml %s: remote: %v", v.name, err)
			}
			if !bytes.Equal(localXML.Bytes(), remoteXML.Bytes()) {
				t.Fatalf("xml %s (dop %d): documents differ (local %d bytes, remote %d)",
					v.name, dop, localXML.Len(), remoteXML.Len())
			}
			if st.Rows != int64(remoteXML.Len()) {
				t.Fatalf("xml %s: End reported %d bytes, received %d", v.name, st.Rows, remoteXML.Len())
			}
		}
	}
}

// TestConcurrentClientsSoak runs four times more client connections
// than the server admits or queues, each issuing a rotating mix of suite
// statements. A busy fast-reject is admission control shedding load as
// designed: it is counted and retried with backoff. Every successful
// result must equal the in-process one, and any other error fails.
func TestConcurrentClientsSoak(t *testing.T) {
	const clients, statements = 16, 10
	db := testDB(t)
	srv := startServer(t, Config{MaxConcurrent: 2, MaxQueued: 2})
	ctx := context.Background()

	suite := experiments.SuiteQueries()[:4] // concurrency, not coverage
	refs := make([]*gapplydb.Result, len(suite))
	for i, q := range suite {
		res, err := db.QueryContext(ctx, q.SQL)
		if err != nil {
			t.Fatalf("%s: local: %v", q.Name, err)
		}
		refs[i] = res
	}

	var busy atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				conn, err := client.Dial(srv.Addr().String())
				if err != nil {
					return fmt.Errorf("client %d: dial: %w", c, err)
				}
				defer conn.Close()
				for it := 0; it < statements; it++ {
					qi := (c + it) % len(suite)
					rows, err := conn.Query(ctx, suite[qi].SQL)
					for attempt := 0; isBusy(err) && attempt < 1000; attempt++ {
						busy.Add(1)
						// Back off harder as contention persists, staggered
						// by client.
						time.Sleep(min(time.Duration(5+attempt), time.Duration(50+c)) * time.Millisecond)
						rows, err = conn.Query(ctx, suite[qi].SQL)
					}
					if err != nil {
						return fmt.Errorf("client %d: %s: %w", c, suite[qi].Name, err)
					}
					var got [][]any
					for {
						row, ok, err := rows.Next()
						if err != nil {
							return fmt.Errorf("client %d: %s: stream: %w", c, suite[qi].Name, err)
						}
						if !ok {
							break
						}
						got = append(got, row)
					}
					if err := sameRows(refs[qi], rows.Columns, got); err != nil {
						return fmt.Errorf("client %d: %s: %w", c, suite[qi].Name, err)
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	t.Logf("%d statements verified, %d busy rejections retried", clients*statements, busy.Load())
}

func isBusy(err error) bool {
	var se *client.ServerError
	return errors.As(err, &se) && se.Code == client.CodeBusy
}

// TestSessionOptions: session-scoped defaults apply to subsequent
// queries, per-query options override them, and bad options are
// rejected without poisoning the session.
func TestSessionOptions(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)
	ctx := context.Background()

	// A session timeout kills slow statements...
	if err := conn.Set("timeout", "1ns"); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Query(ctx, "select count(*) from partsupp")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("session timeout: err = %v, want deadline", err)
	}
	// ...and the per-query option overrides it.
	rows, err := conn.Query(ctx, "select count(*) from part", gapplydb.WithTimeout(time.Minute))
	if err != nil {
		t.Fatalf("per-query override: %v", err)
	}
	fetchAll(t, rows)
	if err := conn.Set("timeout", "off"); err != nil {
		t.Fatal(err)
	}

	// A session row budget surfaces as a resource error code.
	if err := conn.Set("max_output_rows", "1"); err != nil {
		t.Fatal(err)
	}
	rows, err = conn.Query(ctx, "select p_partkey from part")
	if err == nil {
		_, _, err = rows.Next()
		for err == nil {
			_, _, err = rows.Next()
		}
		rows.Close()
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeResource {
		t.Fatalf("row budget: err = %v, want resource code", err)
	}
	if err := conn.Set("max_output_rows", "0"); err != nil {
		t.Fatal(err)
	}

	// Unknown names and bad values are rejected; the session survives.
	if err := conn.Set("no_such_option", "1"); err == nil {
		t.Fatal("unknown option accepted")
	}
	if err := conn.Set("timeout", "sideways"); err == nil {
		t.Fatal("bad timeout accepted")
	}
	if err := conn.Ping(ctx); err != nil {
		t.Fatalf("session poisoned after bad set: %v", err)
	}
}

// TestPlanSettingsOverTheWire: a plan-affecting setting, sent with the
// query or set on the session, yields over the wire the EXPLAIN that
// the same setting yields in-process — and one that differs from the
// default plan's, so the setting did reach the planner.
func TestPlanSettingsOverTheWire(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := context.Background()
	explain := func(rows *client.Rows, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range fetchAll(t, rows) {
			fmt.Fprintln(&b, r[0])
		}
		return b.String()
	}
	local := func(sql string, opts ...gapplydb.QueryOption) string {
		t.Helper()
		res, err := srv.db.Query("explain "+sql, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range res.Rows {
			fmt.Fprintln(&b, r[0])
		}
		return b.String()
	}
	for _, c := range []struct{ name, value, sql string }{
		{"partition", "sort", "select gapply(select s_name from g) as (n) from supplier group by s_nationkey : g"},
		{"disable_rules", "gapply-to-groupby", "select gapply(select count(*) from g) as (n) from partsupp group by ps_partkey : g"},
		{"no_indexes", "on", "select s_name from supplier where s_suppkey = 7"},
	} {
		var o gapplydb.Options
		if err := o.Set(c.name, c.value); err != nil {
			t.Fatal(err)
		}
		want := local(c.sql, gapplydb.WithOptions(o))
		if want == local(c.sql) {
			t.Fatalf("%s=%s does not change the plan of %s", c.name, c.value, c.sql)
		}
		perQuery := explain(dial(t, srv).Query(ctx, "explain "+c.sql, gapplydb.WithOptions(o)))
		if perQuery != want {
			t.Errorf("%s=%s per query:\n%s\nin-process:\n%s", c.name, c.value, perQuery, want)
		}
		conn := dial(t, srv)
		if err := conn.Set(c.name, c.value); err != nil {
			t.Fatal(err)
		}
		if bySet := explain(conn.Query(ctx, "explain "+c.sql)); bySet != want {
			t.Errorf("%s=%s by Set:\n%s\nin-process:\n%s", c.name, c.value, bySet, want)
		}
	}

	// A query's partition replaces a session's, but "auto" is the unset
	// setting, so it keeps the session's (as WithPartition documents).
	sql := "select gapply(select s_name from g) as (n) from supplier group by s_nationkey : g"
	conn := dial(t, srv)
	if err := conn.Set("partition", "sort"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ query, want string }{{"auto", "sort"}, {"hash", "hash"}} {
		got := explain(conn.Query(ctx, "explain "+sql, gapplydb.WithPartition(c.query)))
		if want := local(sql, gapplydb.WithPartition(c.want)); got != want {
			t.Errorf("session sort, query %s:\n%s\nwant the %s plan:\n%s", c.query, got, c.want, want)
		}
	}
}

// TestQueryErrorCodes: server-side failures arrive as typed codes, and
// a failed statement leaves the connection usable.
func TestQueryErrorCodes(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)
	ctx := context.Background()

	_, err := conn.Query(ctx, "select from where")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != client.CodeInternal && se.Code != client.CodeParse {
		t.Fatalf("parse failure: %v", err)
	}

	_, err = conn.Query(ctx, "select count(*) from partsupp", gapplydb.WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout: err = %v, want DeadlineExceeded", err)
	}

	rows, err := conn.Query(ctx, "select count(*) from part")
	if err != nil {
		t.Fatalf("connection unusable after errors: %v", err)
	}
	if got := fetchAll(t, rows); len(got) != 1 {
		t.Fatalf("rows = %v", got)
	}
}

// TestClientContextCancel: cancelling the caller's context propagates
// over the wire and unwinds the query server-side; the error satisfies
// errors.Is(err, context.Canceled) exactly like the embedded API. The
// statement streams rows (a projection, not an aggregate — aggregates do
// their work before the first frame), so the cancel lands mid-stream.
func TestClientContextCancel(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := conn.Query(ctx, "select l1.l_orderkey from lineitem l1, lineitem l2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	cancel()
	if err := drainRows(rows); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancel was scoped to the query: the session is fine.
	if err := conn.Ping(context.Background()); err != nil {
		t.Fatalf("ping after cancel: %v", err)
	}
}

// waitCounter polls the server's registry until the counter reaches
// want, failing the test if it never does.
func waitCounter(t *testing.T, srv *Server, name string, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if srv.Metrics().Counters[name] >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d", name, want)
}

// TestGracefulShutdownDrains: Shutdown lets a running query finish (here
// an aggregate bounded by its own deadline — its work happens before its
// first result frame, so the submission must run from a goroutine),
// then returns nil; the listener is gone afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := New(testDB(t), Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	conn, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Hold a slot with a statement that takes real time but finishes
	// (the deadline bounds it).
	errc := make(chan error, 1)
	go func() {
		rows, err := conn.Query(context.Background(), "select count(*) from lineitem l1, lineitem l2",
			gapplydb.WithTimeout(500*time.Millisecond))
		if err == nil {
			err = drainRows(rows)
		}
		errc <- err
	}()
	waitCounter(t, srv, "server_queries_active", 1)

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The in-flight query ran to its own conclusion (here: its timeout).
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("drained query ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drained query never settled")
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
	// The listener is gone.
	if _, err := client.Dial(srv.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestForcedShutdown: when the drain budget expires, in-flight queries
// are cancelled through the engine's context machinery and Shutdown
// returns the context's error instead of hanging.
func TestForcedShutdown(t *testing.T) {
	srv := New(testDB(t), Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	conn, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// An effectively unbounded statement, submitted from a goroutine (no
	// frame arrives before force-cancel tears it down).
	errc := make(chan error, 1)
	go func() {
		rows, err := conn.Query(context.Background(), "select count(*) from lineitem l1, lineitem l2")
		if err == nil {
			err = drainRows(rows)
		}
		errc <- err
	}()
	waitCounter(t, srv, "server_queries_active", 1)

	sctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown: err = %v, want DeadlineExceeded", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("force-cancelled query reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("force-cancelled query never settled")
	}
}

// TestHTTPHandler: the observability endpoints serve health and the
// instance-scoped registries.
func TestHTTPHandler(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)
	rows, err := conn.Query(context.Background(), "select count(*) from part")
	if err != nil {
		t.Fatal(err)
	}
	fetchAll(t, rows)

	h := srv.HTTPHandler()
	get := func(path string) (int, string) {
		req, rec := newHTTPRequest(t, path)
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "server_queries") {
		t.Fatalf("metrics = %d %q", code, body)
	}
	if code, body := get("/metrics/db"); code != 200 || !strings.Contains(body, "queries") {
		t.Fatalf("metrics/db = %d %q", code, body)
	}
}

// TestOptionsOverlayAllocs: resolving a query's settings over its
// session's allocates nothing, set or not.
func TestOptionsOverlayAllocs(t *testing.T) {
	s := new(session)
	var query gapplydb.Options
	for _, set := range []bool{false, true} {
		if set {
			if err := s.opts.Set("disable_rules", "gapply-to-groupby"); err != nil {
				t.Fatal(err)
			}
			query.DOP = 2
		}
		if n := testing.AllocsPerRun(100, func() {
			if o := s.options(&query); o.DOP < 0 {
				t.Fatal("negative degree")
			}
		}); n != 0 {
			t.Errorf("set=%v: %v allocations per overlay, want 0", set, n)
		}
	}
}
