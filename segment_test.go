package gapplydb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gapplydb"
	"gapplydb/experiments"
	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/replay"
)

// corpusSQL reads a replay-corpus statement.
func corpusSQL(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "corpus", "sql", name+".sql"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// gapplysIn returns the GApply nodes of a plan.
func gapplysIn(plan core.Node) []*core.GApply {
	var out []*core.GApply
	core.Walk(plan, func(n core.Node) {
		if g, ok := n.(*core.GApply); ok {
			out = append(out, g)
		}
	})
	return out
}

// TestSegmentPathCoverage pins, off the compiled programs, which
// subtrees of the workload's per-group queries run hosted as iterator
// trees: none, for every GApply of the replay corpus and of the
// evaluation suite (Figure 8 and the spool queries) — EXISTS group
// selection and an inner correlated with an enclosing query included —
// except the per-group join of $g with part in the spool queries.
// experiments' TestTable1PathCoverage covers the Table 1 sweeps.
func TestSegmentPathCoverage(t *testing.T) {
	db := integDatabase(t)
	corpus, err := replay.Load(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	type stmt struct {
		name, sql string
		opts      []gapplydb.QueryOption
	}
	var stmts []stmt
	for _, q := range corpus.Queries {
		var opts []gapplydb.QueryOption
		if q.Partition != "" {
			opts = append(opts, gapplydb.WithPartition(q.Partition))
		}
		stmts = append(stmts, stmt{"corpus/" + q.Name, q.SQL, opts})
	}
	for _, q := range experiments.SuiteQueries() {
		stmts = append(stmts, stmt{q.Name, q.SQL, nil})
	}
	stmts = append(stmts, stmt{"correlated", `select s_suppkey from supplier where exists (
		select gapply(select ps_suppkey from g where ps_suppkey = s_suppkey)
		from partsupp group by ps_partkey : g)`, nil})
	hostsJoin := map[string]bool{
		"corpus/spool_q2j": true, "corpus/spool_q3j": true, "corpus/spool_q4j": true,
		"spool/Q2j": true, "spool/Q3j": true, "spool/Q4j": true,
	}
	checked := 0
	for _, s := range stmts {
		plan, err := db.Plan(s.sql, s.opts...)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		hosted, err := exec.Hosted(plan, gapplydb.CatalogOf(db))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(hosted) != len(gapplysIn(plan)) {
			t.Fatalf("%s: %d programs for %d GApplies", s.name, len(hosted), len(gapplysIn(plan)))
		}
		var want []string
		if hostsJoin[s.name] {
			want = []string{"Join"}
		}
		for g, ns := range hosted {
			if got := nodeKinds(ns); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: hosts %v, want %v:\n%s", s.name, got, want, core.Format(g.Inner))
			}
			checked++
		}
	}
	if checked < len(hostsJoin)+10 {
		t.Errorf("only %d GApplies checked", checked)
	}
}

// nodeKinds names the kinds of plan nodes ns, in order.
func nodeKinds(ns []core.Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, strings.TrimPrefix(fmt.Sprintf("%T", n), "*core."))
	}
	return out
}

// segmentEdgeDatabase holds edge(k, v, s): a one-row group, a NULL-keyed
// group mixing INT, FLOAT and NULL values, an all-NULL group, a 600-row
// group whose output spans several batches (and whose INT and FLOAT
// values collide under DISTINCT), and 37 groups of one to three rows —
// 41 groups, inserted interleaved.
func segmentEdgeDatabase(t *testing.T) *gapplydb.Database {
	t.Helper()
	db := gapplydb.Open()
	cols := []gapplydb.Column{{Name: "k", Type: "int"}, {Name: "v", Type: "float"}, {Name: "s", Type: "string"}}
	if err := db.CreateTable("edge", cols, nil); err != nil {
		t.Fatal(err)
	}
	rows := [][]any{
		{0, 5, "one"},
		{nil, 1, "n1"}, {nil, 2.5, "n2"}, {nil, nil, "n3"},
		{1, nil, "z0"}, {1, nil, "z1"}, {1, nil, "z2"},
	}
	var small [][]any
	for k := 3; k < 40; k++ {
		for j := 0; j <= k%3; j++ {
			small = append(small, []any{k, k*10 + j, "small"})
		}
	}
	for i := 0; i < 600; i++ {
		var v any = i % 7
		if i%2 == 1 {
			v = float64(i % 7)
		}
		rows = append(rows, []any{2, v, "big"})
		if i < len(small) {
			rows = append(rows, small[i])
		}
	}
	if err := db.Insert("edge", rows...); err != nil {
		t.Fatal(err)
	}
	db.RefreshStats()
	return db
}

// TestSegmentEdgeDifferential checks native per-group queries over the
// edge cases against the reference interpreter at dop 1, 2 and 8: the
// orders shape (the all-NULL group's average is NULL, its filters
// UNKNOWN, and both counts still emitted as 0), Q1's rows-and-average,
// Q3's near-extremes, every aggregate with DISTINCT and an INT/FLOAT
// sum, and a count over a branch its filter empties. The counters agree
// across degrees.
func TestSegmentEdgeDifferential(t *testing.T) {
	db := segmentEdgeDatabase(t)
	noRewrite := gapplydb.WithoutRule("gapply-to-groupby")
	stmts := []struct {
		name, sql string
	}{
		{"orders", `select gapply(select count(*), null from g where v >= (select avg(v) from g)
			union all select null, count(*) from g where v < (select avg(v) from g)) as (above, below)
			from edge group by k : g`},
		{"rows and avg", `select gapply(select s, v, null from g union all select null, null, avg(v) from g)
			as (s, v, a) from edge group by k : g`},
		{"near extremes", `select gapply(select s, v from g where v >= 0.9 * (select max(v) from g)
			union all select s, v from g where v <= 1.1 * (select min(v) from g)) as (s, v)
			from edge group by k : g`},
		{"aggregates", `select gapply(select count(*), count(v), count(distinct v), sum(v), sum(distinct v),
			avg(v), min(v), max(s) from g) as (n, nv, dv, sv, sdv, av, lo, hi) from edge group by k : g`},
		{"empty branch", `select gapply(select count(*) from g where v > 1000 union all select count(*) from g)
			as (n) from edge group by k : g`},
	}
	for _, s := range stmts {
		plan, err := db.Plan(s.sql, noRewrite)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		hosted, err := exec.Hosted(plan, gapplydb.CatalogOf(db))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for g, ns := range hosted {
			if len(hosted) != 1 || len(ns) > 0 {
				t.Fatalf("%s: want one GApply run natively, not %d hosting %v:\n%s", s.name, len(hosted), nodeKinds(ns), core.Format(g))
			}
		}
		want := expectOracle(t, db, s.sql, noRewrite)
		var base gapplydb.ExecStats
		for _, dop := range []int{1, 2, 8} {
			res, err := db.Query(s.sql, noRewrite, gapplydb.WithDOP(dop))
			if err != nil {
				t.Fatalf("%s dop %d: %v", s.name, dop, err)
			}
			checkOracle(t, want, res, s.name)
			st := res.Stats
			if st.SerialGroupExecs+st.ParallelGroupExecs != st.InnerExecs || st.InnerExecs != st.Groups {
				t.Errorf("%s dop %d: group execs %+v", s.name, dop, st)
			}
			st.SerialGroupExecs, st.ParallelGroupExecs, st.PlanCacheHits = 0, 0, 0
			if dop == 1 {
				base = st
			} else if st != base {
				t.Errorf("%s dop %d: stats %+v, dop 1 %+v", s.name, dop, st, base)
			}
		}
	}
}
