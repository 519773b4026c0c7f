package gapplydb_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gapplydb"
	"gapplydb/experiments"
	"gapplydb/xmlpub"
)

// The spool battery covers GApply's invariant subtrees: per-group plans
// that join the group variable against base tables have a group-invariant
// side that is materialized once per GApply execution and replayed for
// every other group, at any parallel degree. It must be invisible in the
// output: rows match the reference interpreter, byte-identical (order
// included) serial and parallel.

// spoolQueries are the spooling experiment's join-heavy statements:
// per-group plans whose inners carry a group-invariant subtree (a
// base-table scan, optionally under a selection, on the build side of
// the per-group join).
func spoolQueries() []experiments.SuiteQuery {
	return experiments.SpoolQueries()
}

// TestSpoolDifferential: at dop 1, 2 and 8 the rows match the reference
// interpreter and are byte-identical across degrees, and the counters
// confirm the materialization engaged.
func TestSpoolDifferential(t *testing.T) {
	db := integDatabase(t)
	for _, q := range spoolQueries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			ref := expectOracle(t, db, q.SQL)
			var want []string
			for _, dop := range []int{1, 2, 8} {
				res, err := db.Query(q.SQL, gapplydb.WithDOP(dop))
				if err != nil {
					t.Fatalf("dop %d: %v", dop, err)
				}
				checkOracle(t, ref, res, fmt.Sprintf("dop %d", dop))
				if res.Stats.SpoolBuilds != 1 {
					t.Fatalf("dop %d: the invariant subtree was not materialized once: %+v", dop, res.Stats)
				}
				if want == nil {
					want = ordered(res)
				} else if d := firstDiff(want, ordered(res)); d != "" {
					t.Fatalf("dop %d diverged from dop 1: %s", dop, d)
				}
			}
		})
	}
}

// TestSpoolBuildOnce pins the sharing contract: one GApply execution
// materializes each invariant subtree exactly once — even with eight
// workers — and every other group replays it. RowsScanned confirms that
// each table was read once: partsupp for the outer, part for the single
// materialization.
func TestSpoolBuildOnce(t *testing.T) {
	db := integDatabase(t)
	sql := spoolQueries()[0].SQL
	var tables int64
	for _, tab := range []string{"partsupp", "part"} {
		res, err := db.Query("select count(*) from " + tab)
		if err != nil {
			t.Fatal(err)
		}
		tables += res.Rows[0][0].(int64)
	}
	for _, dop := range []int{1, 8} {
		res, err := db.Query(sql, gapplydb.WithDOP(dop))
		if err != nil {
			t.Fatalf("dop %d: %v", dop, err)
		}
		if res.Stats.SpoolBuilds != 1 {
			t.Errorf("dop %d: SpoolBuilds = %d, want 1", dop, res.Stats.SpoolBuilds)
		}
		if want := res.Stats.Groups - 1; res.Stats.SpoolHits != want {
			t.Errorf("dop %d: SpoolHits = %d, want groups-1 = %d", dop, res.Stats.SpoolHits, want)
		}
		if res.Stats.RowsScanned != tables {
			t.Errorf("dop %d: RowsScanned = %d, want |partsupp| + |part| = %d", dop, res.Stats.RowsScanned, tables)
		}
	}
}

// TestSpoolExplainAnalyze checks the report surface: the spooled subtree
// is annotated with builds/hits/bytes, and its actuals show the single
// real execution (loops=1) at any degree.
func TestSpoolExplainAnalyze(t *testing.T) {
	db := integDatabase(t)
	e, err := db.ExplainAnalyze(spoolQueries()[0].SQL, gapplydb.WithDOP(8))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Plan, "spool builds=1") {
		t.Errorf("EXPLAIN ANALYZE lacks spool annotation:\n%s", e.Plan)
	}
	if !strings.Contains(e.Plan, "hits=") || !strings.Contains(e.Plan, "bytes=") {
		t.Errorf("spool annotation incomplete:\n%s", e.Plan)
	}
}

// TestSpoolXMLDifferential locks in the end product: the GApply
// translation's documents, at dop 1 and 8, are byte-identical to the
// sorted outer union's, which runs no GApply (the Figure 8 views
// exercise the whole publishing stack).
func TestSpoolXMLDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery skipped in -short mode")
	}
	db := integDatabase(t)
	for _, tc := range []struct {
		name string
		q    *xmlpub.FLWR
	}{{"Q1", xmlpub.Q1()}, {"Q2", xmlpub.Q2()}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var ref stringsBuilder
			if _, err := xmlpub.Publish(db, tc.q, xmlpub.SortedOuterUnion, &ref); err != nil {
				t.Fatal(err)
			}
			want := ref.String()
			if want == "" {
				t.Fatal("empty document")
			}
			for _, dop := range []int{1, 8} {
				var buf stringsBuilder
				if _, err := xmlpub.Publish(db, tc.q, xmlpub.GApply, &buf, gapplydb.WithDOP(dop)); err != nil {
					t.Fatalf("dop %d: %v", dop, err)
				}
				if buf.String() != want {
					t.Fatalf("dop %d: the GApply document differs from the sorted outer union's", dop)
				}
			}
		})
	}
}

// TestSpoolBudget: spooled bytes count against MaxPartitionBytes, so a
// budget that the materialization exceeds kills the query with a
// ResourceError instead of buffering past the cap.
func TestSpoolBudget(t *testing.T) {
	db := integDatabase(t)
	_, err := db.Query(spoolQueries()[1].SQL,
		gapplydb.WithOptions(gapplydb.Options{MaxPartitionBytes: 64}))
	if err == nil {
		t.Fatal("expected a resource error from the spool materialization")
	}
	var re *gapplydb.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *ResourceError", err)
	}
}
