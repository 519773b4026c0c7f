package gapplydb_test

import (
	"fmt"
	"strings"
	"testing"

	"gapplydb"
	"gapplydb/internal/oracle"
	"gapplydb/xmlpub"
)

// The narrowing differential pins narrow join emission to the reference
// interpreter (internal/oracle), which always evaluates whole rows: the
// engine emits only the join columns a consumer reads. Every case runs
// with and without indexes, at dop 1 and 8, with profiling off and on
// (profiling keeps a Select over a join unfused, so each Select shape
// runs fused and unfused):
//
//   - rows match the oracle's evaluation of the plan, and are
//     byte-identical across every configuration;
//   - within one index setting, executor counters are identical across
//     degree and profiling;
//   - EXPLAIN ANALYZE (per-operator rows, loops and spool bytes) is
//     identical at dop 1 and 8.
//
// The published sorted-outer-union documents, whose joins narrow the
// most, are compared across the same configurations.

type narrowCase struct {
	name, sql string
	shape     []string // substrings the indexed EXPLAIN must contain
	opts      []gapplydb.QueryOption
	// padded marks a case whose output is only NULL-padded outer-join
	// rows; it must not be empty.
	padded bool
}

func narrowCases() []narrowCase {
	psp := " from partsupp, part where ps_partkey = p_partkey"
	// A correlated scalar subquery decorrelates into a Select over a
	// left-outer join of partsupp ⋈ part with a grouped copy of itself.
	maxBig := "(select max(p2.p_retailprice) from partsupp ps2, part p2 where ps2.ps_partkey = p2.p_partkey and ps2.ps_suppkey = partsupp.ps_suppkey and p2.p_size = 50)"
	avgSupp := "(select avg(p2.p_retailprice) from partsupp ps2, part p2 where ps2.ps_partkey = p2.p_partkey and ps2.ps_suppkey = partsupp.ps_suppkey)"
	return []narrowCase{
		// ps_partkey and p_partkey are read only by the join condition.
		{name: "project", sql: "select p_name, ps_availqty" + psp, shape: []string{"Project p_name, ps_availqty"}},
		{name: "project-emission-order", sql: "select ps_suppkey, p_name" + psp},
		{name: "groupby", sql: "select ps_suppkey, avg(p_retailprice)" + psp + " group by ps_suppkey", shape: []string{"GroupBy"}},
		{name: "count-star", sql: "select count(*)" + psp, shape: []string{"Aggregate [count(*)"}},
		{name: "project-select-join", sql: "select ps_suppkey, p_name" + psp + " and p_retailprice >= " + avgSupp,
			shape: []string{"Select", "LeftOuterJoin"}},
		{name: "groupby-select-join", sql: "select ps_suppkey, count(*)" + psp + " and p_retailprice >= " + avgSupp + " group by ps_suppkey",
			shape: []string{"GroupBy", "Select", "LeftOuterJoin"}},
		{name: "left-outer-pads", sql: "select ps_suppkey, p_name" + psp + " and coalesce(" + maxBig + ", -1) < 0",
			shape: []string{"LeftOuterJoin"}, padded: true},
		{name: "three-way", sql: "select s_name, p_name from partsupp, part, supplier where ps_partkey = p_partkey and ps_suppkey = s_suppkey",
			shape: []string{"Join on (ps_suppkey = s_suppkey)", "Join on (ps_partkey = p_partkey)"}},
		{name: "merge-probe", sql: "select ps_partkey, p_name" + psp + " and ps_suppkey = 3", shape: []string{"(merge probe)"}},
		// The spool holds the per-group join's right side, so the merge
		// join drains the spool into a run; without the spool it probes.
		{name: "merge-drained", sql: "select gapply(select p_name, ps_availqty from g, part where ps_partkey = p_partkey and ps_availqty > p_size) from partsupp where ps_suppkey < 4 group by ps_suppkey : g",
			shape: []string{"(merge probe)"}},
		{name: "nested-loops", sql: "select s1.s_name, s2.s_name from supplier s1, supplier s2 where s1.s_acctbal < s2.s_acctbal",
			shape: []string{"Join on (s1.s_acctbal < s2.s_acctbal)"}},
		{name: "nested-loops-count", sql: "select count(*) from supplier s1, supplier s2 where s1.s_acctbal < s2.s_acctbal"},
		{name: "self-join-aliases", sql: "select a.ps_partkey, b.ps_suppkey from partsupp a, partsupp b where a.ps_partkey = b.ps_partkey and a.ps_suppkey < b.ps_suppkey"},
		{name: "sorted-q1", sql: xmlpub.Q1().SortedOuterUnionSQL()},
		{name: "sorted-q2", sql: xmlpub.Q2().SortedOuterUnionSQL()},
		{name: "sorted-q3", sql: xmlpub.Q3(0.9, 1.1).SortedOuterUnionSQL()},
	}
}

// narrowConfigs are the configurations every case runs under, besides
// the index setting.
func narrowConfigs() [][]gapplydb.QueryOption {
	var out [][]gapplydb.QueryOption
	for _, dop := range []int{1, 8} {
		for _, prof := range []bool{false, true} {
			opts := []gapplydb.QueryOption{gapplydb.WithDOP(dop)}
			if prof {
				opts = append(opts, gapplydb.WithInstrumentation())
			}
			out = append(out, opts)
		}
	}
	return out
}

func TestNarrowingDifferential(t *testing.T) {
	db := accessPathDatabase(t)
	for _, tc := range narrowCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e, err := db.ExplainPlan(tc.sql, tc.opts...)
			if err != nil {
				t.Fatalf("explain: %v\n%s", err, tc.sql)
			}
			for _, want := range tc.shape {
				if !strings.Contains(e.Plan, want) {
					t.Fatalf("plan lacks %q:\n%s", want, e.Plan)
				}
			}
			var want []string
			for _, indexes := range []bool{true, false} {
				noIdx := []gapplydb.QueryOption{}
				if !indexes {
					noIdx = append(noIdx, gapplydb.WithoutIndexes())
				}
				ref := expectOracle(t, db, tc.sql, append(noIdx, tc.opts...)...)
				var stats *gapplydb.ExecStats
				for _, cfg := range narrowConfigs() {
					opts := append(append(append([]gapplydb.QueryOption{}, cfg...), tc.opts...), noIdx...)
					res, err := db.Query(tc.sql, opts...)
					if err != nil {
						t.Fatalf("indexes=%t %d options: %v", indexes, len(cfg), err)
					}
					checkOracle(t, ref, res, fmt.Sprintf("indexes=%t %d options", indexes, len(cfg)))
					if want == nil {
						if want = ordered(res); tc.padded && len(want) == 0 {
							t.Fatal("no NULL-padded rows: the case no longer exercises padding")
						}
					} else if d := firstDiff(want, ordered(res)); d != "" {
						t.Fatalf("indexes=%t %d options: diverged from the first configuration: %s", indexes, len(cfg), d)
					}
					got := res.Stats
					got.PlanCacheHits, got.SerialGroupExecs, got.ParallelGroupExecs = 0, 0, 0
					if stats == nil {
						stats = &got
					} else if got != *stats {
						t.Fatalf("indexes=%t: counters differ across degree/profile:\n%+v\n%+v", indexes, got, *stats)
					}
				}
				var analyzed []string
				for _, dop := range []int{1, 8} {
					e, err := db.ExplainAnalyze(tc.sql, append(append([]gapplydb.QueryOption{gapplydb.WithDOP(dop)}, noIdx...), tc.opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					analyzed = append(analyzed, stripTimings(e.String()))
				}
				if analyzed[0] != analyzed[1] {
					t.Fatalf("indexes=%t: EXPLAIN ANALYZE differs across degrees:\n--- dop 1 ---\n%s--- dop 8 ---\n%s", indexes, analyzed[0], analyzed[1])
				}
			}
		})
	}
}

// TestNarrowingKeepsErrors: an unqualified column both sides of a
// self-join carry is ambiguous whatever the engine would narrow to, and
// the engine reports it exactly as planning the statement or evaluating
// the plan with the reference interpreter does.
func TestNarrowingKeepsErrors(t *testing.T) {
	db := accessPathDatabase(t)
	const sql = "select ps_partkey from partsupp a, partsupp b where a.ps_partkey = b.ps_partkey"
	_, berr := db.Query(sql)
	plan, oerr := db.Plan(sql)
	if oerr == nil {
		_, oerr = oracle.Eval(plan, gapplydb.CatalogOf(db))
	}
	if berr == nil || oerr == nil || berr.Error() != oerr.Error() || !strings.Contains(berr.Error(), "ambiguous") {
		t.Fatalf("engine error %v, reference error %v", berr, oerr)
	}
}

// TestNarrowingXML: the sorted-outer-union documents are byte-identical
// with and without indexes and profiling, at dop 1 and 8.
func TestNarrowingXML(t *testing.T) {
	db := accessPathDatabase(t)
	for _, q := range []*xmlpub.FLWR{xmlpub.Q1(), xmlpub.Q2(), xmlpub.Q3(0.9, 1.1)} {
		var ref stringsBuilder
		if _, err := xmlpub.Publish(db, q, xmlpub.SortedOuterUnion, &ref, gapplydb.WithDOP(1), gapplydb.WithoutIndexes()); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ref.String(), "<supplier>") {
			t.Fatalf("empty document:\n%s", ref.String())
		}
		for _, cfg := range narrowConfigs() {
			var got stringsBuilder
			if _, err := xmlpub.Publish(db, q, xmlpub.SortedOuterUnion, &got, cfg...); err != nil {
				t.Fatal(err)
			}
			if got.String() != ref.String() {
				t.Fatalf("%d options: document differs from the no-index one", len(cfg))
			}
		}
	}
}
