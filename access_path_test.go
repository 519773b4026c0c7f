package gapplydb_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gapplydb"
	"gapplydb/xmlpub"
)

// The access-path differential pins the two index access paths to the
// plans they replace: a heap-order index seek under a Select must emit
// exactly the heap Scan+Select rows in heap order, and a merge join
// probing an index's stored run must emit exactly what the drained run
// (and the index-free hash join) would. Every case runs with indexes off
// (the baseline) and on at dop 1 and 8: rows and XML byte-identical to
// the baseline, the indexed rows matching the reference interpreter's
// evaluation of the indexed plan (a heap scan, a filter and a sort where
// the engine seeks or probes), and the indexed runs' counters identical
// at every degree — RowsScanned, now counting seek windows and probed
// entries, included.
//
// Left-outer, residual and fused post-filter probes are not reachable
// from SQL (decorrelation puts a GroupBy on every outer join's right
// side; pushdown folds cross-table conjuncts into the join condition);
// internal/exec's probe differential covers those shapes on hand-built
// plans.

// accessPathCase is one statement and the plan shape it must take with
// indexes on — asserted, so a planner change cannot quietly turn a case
// into a heap scan that trivially matches its baseline.
type accessPathCase struct {
	name, sql string
	shape     []string // substrings the indexed EXPLAIN must contain
}

const heapSeek = "(heap order)"

func accessPathCases() []accessPathCase {
	ps := "select ps_partkey, ps_suppkey, ps_availqty from partsupp where "
	ev := "select k, v, seq from events where "
	probe := "(merge probe)"
	return []accessPathCase{
		{name: "eq", sql: ps + "ps_suppkey = 3", shape: []string{heapSeek}},
		{name: "gt", sql: ps + "ps_suppkey > 7", shape: []string{heapSeek}},
		{name: "ge", sql: ps + "ps_suppkey >= 8", shape: []string{heapSeek}},
		{name: "lt", sql: ps + "ps_suppkey < 3", shape: []string{heapSeek}},
		{name: "le", sql: ps + "3 >= ps_suppkey", shape: []string{heapSeek}},
		{name: "open-range", sql: ps + "ps_suppkey > 2 and ps_suppkey < 5", shape: []string{heapSeek}},
		{name: "closed-range", sql: ps + "ps_suppkey >= 2 and ps_suppkey <= 5", shape: []string{heapSeek}},
		{name: "half-open-range", sql: ps + "ps_suppkey >= 2 and ps_suppkey < 5 and ps_availqty > 1000", shape: []string{heapSeek}},
		{name: "tightest-eq", sql: ps + "ps_suppkey >= 1 and ps_suppkey = 4", shape: []string{"[ps_suppkey >= 4 AND ps_suppkey <= 4]"}},
		{name: "tightest-strict", sql: ps + "ps_suppkey >= 3 and ps_suppkey > 3 and ps_suppkey < 6", shape: []string{"[ps_suppkey > 3 AND ps_suppkey < 6]"}},
		{name: "empty-window", sql: ps + "ps_suppkey > 5 and ps_suppkey < 3", shape: []string{heapSeek}},
		{name: "null-literal", sql: ps + "ps_suppkey = null"},
		{name: "null-bound-and-range", sql: ps + "ps_suppkey > null and ps_suppkey < 2", shape: []string{"[ps_suppkey < 2]"}},
		{name: "cross-type-eq", sql: ps + "ps_suppkey = 3.0", shape: []string{heapSeek}},
		{name: "cross-type-range", sql: ps + "ps_suppkey > 2.5 and ps_suppkey <= 4.0", shape: []string{heapSeek}},
		{name: "clustered-range", sql: "select l_orderkey, l_linenumber, l_quantity from lineitem where l_orderkey <= 40", shape: []string{heapSeek}},
		{name: "point-lookup", sql: "select s_name, s_acctbal from supplier where s_suppkey = 3", shape: []string{heapSeek}},
		// The custom table is inserted in shuffled key order with
		// duplicates and NULL keys, so a range window's positions are out
		// of heap order and the executor must sort them.
		{name: "shuffled-eq", sql: ev + "k = 17", shape: []string{heapSeek}},
		{name: "shuffled-range", sql: ev + "k >= 10 and k < 30", shape: []string{heapSeek}},
		{name: "shuffled-lo", sql: ev + "k > 45", shape: []string{heapSeek}},
		{name: "probe", sql: "select ps_partkey, p_name, p_retailprice from partsupp, part where ps_partkey = p_partkey and ps_suppkey = 3",
			shape: []string{heapSeek, probe}},
		{name: "probe-residual", sql: "select ps_partkey, p_name from partsupp, part where ps_partkey = p_partkey and ps_supplycost < p_retailprice and ps_suppkey = 3",
			shape: []string{probe}},
		{name: "probe-customer-orders", sql: "select c_name, o_orderkey, o_totalprice from customer, orders where c_custkey = o_custkey and c_custkey < 20",
			shape: []string{heapSeek, probe}},
		{name: "probe-shuffled", sql: "select s_name, k, v from supplier, events where s_suppkey = k and s_suppkey <= 4",
			shape: []string{heapSeek, probe}},
		// GApply whose outer takes the seek; its per-group join, planned
		// as a probe of part's index, reads the materialization of the
		// invariant part subtree instead.
		{name: "gapply-outer-seek", sql: "select gapply(select p_name, ps_availqty from g, part where ps_partkey = p_partkey and ps_availqty > p_size) from partsupp where ps_suppkey < 4 group by ps_suppkey : g",
			shape: []string{heapSeek, probe}},
		{name: "entity-gapply", sql: entityFLWR().SQL(xmlpub.GApply), shape: []string{heapSeek, probe}},
		{name: "entity-sorted", sql: entityFLWR().SQL(xmlpub.SortedOuterUnion), shape: []string{heapSeek, probe}},
	}
}

// entityFLWR is the one-supplier Q1 document the benchmark's
// entity_serving workload requests.
func entityFLWR() *xmlpub.FLWR {
	q := xmlpub.Q1()
	q.View.JoinCond += " and ps_suppkey = 3"
	return q
}

var (
	accessOnce sync.Once
	accessDB   *gapplydb.Database
)

// accessPathDatabase is the TPC-H sf 0.001 database plus an indexed
// table inserted in shuffled key order. It is private to the access-path
// tests so the extra table never shows up in the shared fixture.
func accessPathDatabase(t *testing.T) *gapplydb.Database {
	t.Helper()
	accessOnce.Do(func() {
		db, err := gapplydb.OpenTPCH(0.001)
		if err != nil {
			panic(err)
		}
		cols := []gapplydb.Column{{Name: "k", Type: "int"}, {Name: "v", Type: "string"}, {Name: "seq", Type: "int"}}
		if err := db.CreateTable("events", cols, nil); err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(15))
		var rows [][]any
		for i := 0; i < 400; i++ {
			var k any = rng.Intn(50)
			if i%37 == 0 {
				k = nil
			}
			rows = append(rows, []any{k, string(rune('a' + i%26)), i})
		}
		if err := db.Insert("events", rows...); err != nil {
			panic(err)
		}
		if err := db.CreateIndex("idx_events_k", "events", "k"); err != nil {
			panic(err)
		}
		db.RefreshStats()
		accessDB = db
	})
	return accessDB
}

func TestAccessPathDifferential(t *testing.T) {
	db := accessPathDatabase(t)
	for _, tc := range accessPathCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e, err := db.ExplainPlan(tc.sql)
			if err != nil {
				t.Fatalf("explain: %v\n%s", err, tc.sql)
			}
			for _, want := range tc.shape {
				if !strings.Contains(e.Plan, want) {
					t.Fatalf("indexed plan lacks %q:\n%s", want, e.Plan)
				}
			}
			ref := expectOracle(t, db, tc.sql)
			var indexed *gapplydb.ExecStats
			for _, dop := range []int{1, 8} {
				base, err := db.Query(tc.sql, gapplydb.WithDOP(dop), gapplydb.WithoutIndexes())
				if err != nil {
					t.Fatalf("no-index dop %d: %v\n%s", dop, err, tc.sql)
				}
				res, err := db.Query(tc.sql, gapplydb.WithDOP(dop))
				if err != nil {
					t.Fatalf("dop %d: %v\n%s", dop, err, tc.sql)
				}
				if d := firstDiff(ordered(base), ordered(res)); d != "" {
					t.Fatalf("dop %d: indexed plan diverged from no-index baseline: %s", dop, d)
				}
				checkOracle(t, ref, res, fmt.Sprintf("dop %d", dop))
				// Index-independent work is unchanged: the same left rows
				// probe, the same groups form, the same spool engages.
				got, want := res.Stats, base.Stats
				if got.JoinProbes != want.JoinProbes || got.Groups != want.Groups ||
					got.InnerExecs != want.InnerExecs || got.SpoolBuilds != want.SpoolBuilds ||
					got.SpoolHits != want.SpoolHits || got.ApplyExecs != want.ApplyExecs {
					t.Fatalf("dop %d: work counters moved:\nindexed: %+v\nbase:    %+v", dop, got, want)
				}
				if got.RowsScanned > want.RowsScanned {
					t.Errorf("dop %d: indexed plan scanned more (%d) than the heap plan (%d)",
						dop, got.RowsScanned, want.RowsScanned)
				}
				// Indexed counters are degree-invariant.
				got.PlanCacheHits, got.SerialGroupExecs, got.ParallelGroupExecs = 0, 0, 0
				if indexed == nil {
					indexed = &got
				} else if got != *indexed {
					t.Fatalf("dop %d: indexed counters differ across degrees:\n%+v\n%+v", dop, got, *indexed)
				}
			}
		})
	}
}

// TestAccessPathXML: the published one-supplier document is byte-
// identical with and without indexes, in both translations, at dop 1
// and 8.
func TestAccessPathXML(t *testing.T) {
	db := accessPathDatabase(t)
	for _, strategy := range []xmlpub.Strategy{xmlpub.GApply, xmlpub.SortedOuterUnion} {
		var base stringsBuilder
		if _, err := xmlpub.Publish(db, entityFLWR(), strategy, &base, gapplydb.WithoutIndexes()); err != nil {
			t.Fatal(err)
		}
		want := base.String()
		if !strings.Contains(want, "<supplier>") {
			t.Fatalf("%s: empty document:\n%s", strategy, want)
		}
		for _, dop := range []int{1, 8} {
			var got stringsBuilder
			if _, err := xmlpub.Publish(db, entityFLWR(), strategy, &got, gapplydb.WithDOP(dop)); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Fatalf("%s dop %d: indexed document differs from the no-index one", strategy, dop)
			}
		}
	}
}

// TestAccessPathExplainAnalyze: probed entries are credited to the
// IndexScan node the probe replaced, and the seek's actual rows are its
// window, identically at every degree. Under a GApply the per-group join
// planned as a probe reads the invariant part scan's materialization
// instead: the IndexScan runs once and reports the one build and a hit
// per other group.
func TestAccessPathExplainAnalyze(t *testing.T) {
	db := accessPathDatabase(t)
	for _, c := range []struct {
		sql, actuals string
		scanned      int64
	}{
		// 80 seek rows, each probing one part.
		{"select ps_partkey, p_name, p_retailprice from partsupp, part where ps_partkey = p_partkey and ps_suppkey = 3",
			"(actual rows=80 loops=1)", 80 + 80},
		// 3 groups of 80 seek rows; part's 200 rows materialized once.
		{"select gapply(select p_name, ps_availqty from g, part where ps_partkey = p_partkey and ps_availqty > p_size) from partsupp where ps_suppkey < 4 group by ps_suppkey : g",
			"(actual rows=200 loops=1) (spool builds=1 hits=2", 240 + 200},
	} {
		var first string
		for _, dop := range []int{1, 8} {
			e, err := db.ExplainAnalyze(c.sql, gapplydb.WithDOP(dop))
			if err != nil {
				t.Fatal(err)
			}
			got := stripTimings(e.String())
			if first == "" {
				first = got
			} else if got != first {
				t.Fatalf("EXPLAIN ANALYZE differs across dop:\n--- dop 1 ---\n%s--- dop 8 ---\n%s", first, got)
			}
			for _, line := range strings.Split(e.Plan, "\n") {
				if strings.Contains(line, "IndexScan part using") && !strings.Contains(stripTimings(line), c.actuals) {
					t.Errorf("IndexScan part actuals: %s, want %s", line, c.actuals)
				}
			}
			if e.Result.Stats.RowsScanned != c.scanned {
				t.Errorf("RowsScanned = %d, want %d", e.Result.Stats.RowsScanned, c.scanned)
			}
		}
	}
}
