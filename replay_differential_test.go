package gapplydb_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/core"
	"gapplydb/internal/server"
	"gapplydb/replay"
)

// The replay corpus is the server-scale regression anchor: every query
// in it must produce byte-identical output embedded (Database.Query)
// and over the wire (client → gapplyd), at every matrix degree, and
// both must match the checked-in goldens. This test is what makes the
// goldens trustworthy for the conformance driver: any divergence
// between engine, server, client, or corpus shows up here first.

func startCorpusServer(t *testing.T) (*server.Server, *client.Conn) {
	t.Helper()
	srv := server.New(integDatabase(t), server.Config{})
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
	conn, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return srv, conn
}

func TestReplayCorpusDifferential(t *testing.T) {
	c, err := replay.Load("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	db := integDatabase(t)
	_, conn := startCorpusServer(t)
	ctx := context.Background()

	for _, q := range c.Queries {
		q := q
		for _, dop := range c.Workload.Dops {
			dop := dop
			if q.DOP > 0 && dop != c.Workload.Dops[0] {
				continue // degree-pinned queries run once
			}
			eff := dop
			if q.DOP > 0 {
				eff = q.DOP
			}
			t.Run(fmt.Sprintf("%s/dop%d", q.Name, eff), func(t *testing.T) {
				remote, err := replay.RunRemote(ctx, conn, q, dop)
				if err != nil {
					t.Fatalf("remote: %v", err)
				}
				if q.CancelAfterRows > 0 {
					// Wire-level cancel has no embedded counterpart; the remote
					// outcome alone carries the expectation.
					if remote.Code != q.Expect.Error {
						t.Fatalf("remote code = %q (%v), want %q", remote.Code, remote.Err, q.Expect.Error)
					}
					return
				}
				local, err := replay.RunLocal(ctx, db, q, dop)
				if err != nil {
					t.Fatalf("local: %v", err)
				}
				if local.Code != remote.Code {
					t.Fatalf("divergent outcome: local %q (%v) vs remote %q (%v)",
						local.Code, local.Err, remote.Code, remote.Err)
				}
				if q.Expect.Error != "" {
					if remote.Code != q.Expect.Error {
						t.Fatalf("code = %q, want %q", remote.Code, q.Expect.Error)
					}
					return
				}
				if remote.Code != "" {
					t.Fatalf("failed with %s: %v", remote.Code, remote.Err)
				}
				if err := replay.DiffRendered(remote.Rendered, local.Rendered); err != nil {
					t.Fatalf("remote vs local: %v", err)
				}
				if q.Expect.Golden {
					want, err := c.Golden(q)
					if err != nil {
						t.Fatal(err)
					}
					if err := replay.DiffRendered(local.Rendered, want); err != nil {
						t.Fatalf("local vs golden: %v", err)
					}
				}
			})
		}
	}
}

// TestReplayTracedConformance pins two acceptance criteria at once:
// the corpus goldens stay byte-identical with tracing forced on (at
// every matrix degree — tracing must not perturb results), and the
// traced conformance driver — goldens, error taxonomy, row floors,
// spool and plan-cache expectations — passes with every issued trace ID
// echoed.
func TestReplayTracedConformance(t *testing.T) {
	c, err := replay.Load("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	srv, conn := startCorpusServer(t)
	ctx := context.Background()

	// Byte-identity, traced vs untraced, per query per degree.
	for _, q := range c.Queries {
		if !q.Expect.Golden {
			continue
		}
		for _, dop := range c.Workload.Dops {
			if q.DOP > 0 && dop != c.Workload.Dops[0] {
				continue
			}
			plain, err := replay.RunRemote(ctx, conn, q, dop)
			if err != nil {
				t.Fatal(err)
			}
			id := gapplydb.NewTraceID()
			traced, err := replay.RunRemoteTraced(ctx, conn, q, dop, id)
			if err != nil {
				t.Fatal(err)
			}
			if traced.TraceID != id {
				t.Fatalf("%s@dop=%d: echoed trace %s, want %s", q.Name, dop, traced.TraceID, id)
			}
			if err := replay.DiffRendered(traced.Rendered, plain.Rendered); err != nil {
				t.Fatalf("%s@dop=%d: tracing changed the output: %v", q.Name, dop, err)
			}
			want, err := c.Golden(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.DiffRendered(traced.Rendered, want); err != nil {
				t.Fatalf("%s@dop=%d: traced output vs golden: %v", q.Name, dop, err)
			}
		}
	}

	// The full driver with tracing on: every assertion (goldens, error
	// taxonomy, manifest expectations, trace echo) holds.
	rep, err := replay.Run(ctx, c, replay.DriverConfig{Addr: srv.Addr().String(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatal("traced conformance run did not pass")
	}
	for _, cr := range rep.Conformance {
		if cr.TraceID == "" {
			t.Fatalf("conformance run %s@dop=%d run %d has no trace id", cr.Query, cr.DOP, cr.Run)
		}
	}
}

// TestReplayPartitionAppliesRemotely: a corpus query's partition reaches
// the server. Its traced remote run records the plan the same settings
// compile in-process — not the planner's default, which differs — and
// its output still matches the golden, at every degree of the matrix.
func TestReplayPartitionAppliesRemotely(t *testing.T) {
	c, err := replay.Load("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	db := integDatabase(t)
	_, conn := startCorpusServer(t)
	ctx := context.Background()
	planHash := func(sql string, opts ...gapplydb.QueryOption) string {
		plan, err := db.Plan(sql, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return core.PlanHash(plan)
	}
	pinned := 0
	for _, q := range c.Queries {
		if q.Partition == "" {
			continue
		}
		pinned++
		for _, dop := range c.Workload.Dops {
			want := planHash(q.SQL, gapplydb.WithOptions(q.Options(dop)))
			if want == planHash(q.SQL) {
				t.Fatalf("%s: partition %s plans as the default does", q.Name, q.Partition)
			}
			id := gapplydb.NewTraceID()
			out, err := replay.RunRemoteTraced(ctx, conn, q, dop, id)
			if err != nil {
				t.Fatal(err)
			}
			tr := db.Traces().Get(id)
			if tr == nil || tr.PlanHash != want {
				t.Fatalf("%s@dop=%d: remote plan %v, want the %s-partitioned plan %s", q.Name, dop, tr, q.Partition, want)
			}
			golden, err := c.Golden(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.DiffRendered(out.Rendered, golden); err != nil {
				t.Fatalf("%s@dop=%d: remote output vs golden: %v", q.Name, dop, err)
			}
		}
	}
	if pinned == 0 {
		t.Fatal("no corpus query sets a partition")
	}
}
