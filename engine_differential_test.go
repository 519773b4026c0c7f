package gapplydb_test

import (
	"context"
	"fmt"
	"testing"

	"gapplydb"
	"gapplydb/experiments"
	"gapplydb/internal/oracle"
	"gapplydb/replay"
)

// The engine differential pins the executor to an independent oracle:
// the reference interpreter in internal/oracle, which evaluates the same
// optimized plan naively (nested loops, sort-and-scan grouping, no
// spool, no index runs, no hints). For the whole evaluation workload and
// the whole replay corpus, at serial and parallel degrees, the engine's
// rows must match the oracle's as multisets, in a valid order wherever
// the statement orders its output; group and spool accounting must not
// depend on the degree; and the corpus's failure taxonomy and goldens
// must hold. Any engine bug that changes results, order, NULL handling
// or grouping — an unsound elided sort, index seek or merge probe
// included — shows up here.

func TestEngineDifferentialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery skipped in -short mode")
	}
	db := integDatabase(t)
	for _, sq := range experiments.SuiteQueries() {
		sq := sq
		t.Run(sq.Name, func(t *testing.T) {
			want := expectOracle(t, db, sq.SQL)
			// Work accounting every degree shares. (Counters fed by
			// speculative batch pulls — RowsScanned under EXISTS, join
			// probes inside a short-circuited subtree — are not compared.)
			type parity struct {
				groups, inner, builds, hits int64
			}
			var first *parity
			for _, dop := range []int{1, 2, 8} {
				res, err := db.Query(sq.SQL, gapplydb.WithDOP(dop))
				if err != nil {
					t.Fatalf("dop %d: %v\n%s", dop, err, sq.SQL)
				}
				checkOracle(t, want, res, fmt.Sprintf("dop %d", dop))
				s := res.Stats
				if s.SerialGroupExecs+s.ParallelGroupExecs != s.InnerExecs || dop == 1 && s.ParallelGroupExecs != 0 {
					t.Fatalf("dop %d: serial/parallel split %d+%d of %d inner executions",
						dop, s.SerialGroupExecs, s.ParallelGroupExecs, s.InnerExecs)
				}
				p := parity{s.Groups, s.InnerExecs, s.SpoolBuilds, s.SpoolHits}
				if first == nil {
					first = &p
				} else if p != *first {
					t.Fatalf("dop %d: counter parity broken:\ndop 1: %+v\ndop %d: %+v", dop, *first, dop, p)
				}
			}
		})
	}
}

func TestEngineDifferentialCorpus(t *testing.T) {
	c, err := replay.Load("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	db := integDatabase(t)
	ctx := context.Background()

	for _, q := range c.Queries {
		q := q
		if q.CancelAfterRows > 0 {
			continue // wire-level cancel has no embedded execution
		}
		var want *oracle.Expected
		if q.Expect.Error == "" {
			want = expectOracle(t, db, q.SQL)
		}
		for _, dop := range []int{1, 2, 8} {
			dop := dop
			if q.DOP > 0 && dop != 1 {
				continue // degree-pinned queries run once
			}
			t.Run(fmt.Sprintf("%s/dop%d", q.Name, dop), func(t *testing.T) {
				got, err := replay.RunLocal(ctx, db, q, dop)
				if err != nil {
					t.Fatal(err)
				}
				if q.Expect.Error != "" {
					if got.Code != q.Expect.Error {
						t.Fatalf("code = %q (%v), want %q", got.Code, got.Err, q.Expect.Error)
					}
					return
				}
				if got.Code != "" {
					t.Fatalf("failed: %s: %v", got.Code, got.Err)
				}
				res, err := db.QueryContext(ctx, q.SQL, gapplydb.WithOptions(q.Options(dop)))
				if err != nil {
					t.Fatal(err)
				}
				checkOracle(t, want, res, "engine vs oracle")
				if q.Expect.Golden {
					golden, err := c.Golden(q)
					if err != nil {
						t.Fatal(err)
					}
					if err := replay.DiffRendered(got.Rendered, golden); err != nil {
						t.Fatalf("engine vs golden: %v", err)
					}
				}
			})
		}
	}
}
