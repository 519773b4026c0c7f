package opt

import (
	"fmt"
	"testing"

	"gapplydb/internal/bind"
	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/internal/rules"
	"gapplydb/internal/sql"
	"gapplydb/internal/stats"
	"gapplydb/internal/storage"
	"gapplydb/internal/tpch"
	"gapplydb/internal/types"
)

func setup(t *testing.T) (*storage.Catalog, *Optimizer) {
	t.Helper()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, 0.002); err != nil {
		t.Fatal(err)
	}
	return cat, New(cat, stats.Collect(cat))
}

func bindQ(t *testing.T, cat *storage.Catalog, q string) core.Node {
	t.Helper()
	stmt, _, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bind.New(cat).Bind(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func runP(t *testing.T, cat *storage.Catalog, plan core.Node) []types.Row {
	t.Helper()
	res, err := exec.Run(plan, exec.NewContext(cat, new(exec.Store)))
	if err != nil {
		t.Fatalf("exec: %v\n%s", err, core.Format(plan))
	}
	return res.Rows
}

func sameMultiset(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, r := range a {
		m[r.KeyAll()]++
	}
	for _, r := range b {
		if m[r.KeyAll()]--; m[r.KeyAll()] < 0 {
			return false
		}
	}
	return true
}

const q1 = `
	select gapply(select p_name, p_retailprice, null from g
	              union all
	              select null, null, avg(p_retailprice) from g) as (name, price, ap)
	from partsupp, part where ps_partkey = p_partkey
	group by ps_suppkey : g`

const coveringRangeQ = `
	select gapply(select p_name, p_retailprice from g where p_brand = 'Brand#11')
	from partsupp, part where ps_partkey = p_partkey
	group by ps_suppkey : g`

func TestOptimizePreservesSemantics(t *testing.T) {
	cat, o := setup(t)
	for _, q := range []string{q1, coveringRangeQ} {
		plan := bindQ(t, cat, q)
		want := runP(t, cat, plan)
		got := runP(t, cat, o.Optimize(plan, Options{}))
		if !sameMultiset(want, got) {
			t.Errorf("optimization changed results for:\n%s", q)
		}
	}
}

func TestOptimizeAppliesProjectionPruning(t *testing.T) {
	cat, o := setup(t)
	plan := o.Optimize(bindQ(t, cat, q1), Options{})
	var ga *core.GApply
	core.Walk(plan, func(n core.Node) {
		if g, ok := n.(*core.GApply); ok {
			ga = g
		}
	})
	if ga == nil {
		t.Fatalf("GApply missing:\n%s", core.Format(plan))
	}
	// The outer must be pruned: the join yields 9 columns, Q1 needs 3
	// (ps_suppkey, p_name, p_retailprice).
	if got := ga.Outer.Schema().Len(); got != 3 {
		t.Errorf("outer columns = %d, want 3\n%s", got, core.Format(plan))
	}
	// Physical hints are assigned.
	if ga.Partition == core.PartitionAuto {
		t.Error("partition strategy not chosen")
	}
}

func TestOptimizeAppliesCoveringRange(t *testing.T) {
	cat, o := setup(t)
	plan := o.Optimize(bindQ(t, cat, coveringRangeQ), Options{})
	// The brand selection must now sit in the outer tree (below GApply),
	// pushed down toward the part scan.
	var ga *core.GApply
	core.Walk(plan, func(n core.Node) {
		if g, ok := n.(*core.GApply); ok {
			ga = g
		}
	})
	if ga == nil {
		t.Fatalf("no GApply:\n%s", core.Format(plan))
	}
	found := 0
	core.Walk(ga.Outer, func(n core.Node) {
		if s, ok := n.(*core.Select); ok {
			for range core.ConjunctsOf(s.Cond) {
				found++
			}
		}
	})
	if found == 0 {
		t.Errorf("covering range not in outer tree:\n%s", core.Format(plan))
	}
	// And the per-group selection is gone.
	innerSelects := 0
	core.Walk(ga.Inner, func(n core.Node) {
		if _, ok := n.(*core.Select); ok {
			innerSelects++
		}
	})
	if innerSelects != 0 {
		t.Errorf("per-group selection survived:\n%s", core.Format(plan))
	}
}

func TestDisableRules(t *testing.T) {
	cat, o := setup(t)
	plan := o.Optimize(bindQ(t, cat, q1), Options{
		DisableRules: map[string]bool{rules.ProjectionBeforeGApply{}.Name(): true},
	})
	var ga *core.GApply
	core.Walk(plan, func(n core.Node) {
		if g, ok := n.(*core.GApply); ok {
			ga = g
		}
	})
	if ga.Outer.Schema().Len() == 3 {
		t.Error("disabled rule still fired")
	}
}

func TestForceRules(t *testing.T) {
	cat, o := setup(t)
	q := `select gapply(select * from g where exists
			(select p_partkey from g where p_retailprice > 2090))
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`
	plan := bindQ(t, cat, q)
	forced := o.Optimize(plan, Options{ForceRules: map[string]bool{
		rules.GroupSelectionExists{}.Name(): true,
	}})
	gapplies := 0
	core.Walk(forced, func(n core.Node) {
		if _, ok := n.(*core.GApply); ok {
			gapplies++
		}
	})
	if gapplies != 0 {
		t.Errorf("forced group selection kept GApply:\n%s", core.Format(forced))
	}
	// Semantics hold either way.
	if !sameMultiset(runP(t, cat, bindQ(t, cat, q)), runP(t, cat, forced)) {
		t.Error("forced rewrite changed results")
	}
}

func TestPartitionOverride(t *testing.T) {
	cat, o := setup(t)
	plan := o.Optimize(bindQ(t, cat, q1), Options{Partition: core.PartitionSort})
	core.Walk(plan, func(n core.Node) {
		if ga, ok := n.(*core.GApply); ok && ga.Partition != core.PartitionSort {
			t.Errorf("partition override ignored: %v", ga.Partition)
		}
	})
}

func TestSkipOptimization(t *testing.T) {
	cat, o := setup(t)
	bound := bindQ(t, cat, q1)
	plan := o.Optimize(bound, Options{SkipOptimization: true})
	// Logical shape untouched: the outer is still the raw Select(Join).
	var ga *core.GApply
	core.Walk(plan, func(n core.Node) {
		if g, ok := n.(*core.GApply); ok {
			ga = g
		}
	})
	if _, ok := ga.Outer.(*core.Select); !ok {
		t.Errorf("skip-optimization rewrote the plan:\n%s", core.Format(plan))
	}
	// But physical hints are chosen.
	if ga.Partition == core.PartitionAuto {
		t.Error("physical pass skipped")
	}
}

func TestOptimizeDecorrelatesBaseline(t *testing.T) {
	cat, o := setup(t)
	q := `select ps1.ps_suppkey, count(*) from partsupp ps1, part
		where p_partkey = ps_partkey and p_retailprice >=
			(select avg(p_retailprice) from partsupp, part
			 where p_partkey = ps_partkey and ps_suppkey = ps1.ps_suppkey)
		group by ps1.ps_suppkey`
	plan := o.Optimize(bindQ(t, cat, q), Options{})
	applies := 0
	core.Walk(plan, func(n core.Node) {
		if _, ok := n.(*core.Apply); ok {
			applies++
		}
	})
	if applies != 0 {
		t.Errorf("baseline not decorrelated:\n%s", core.Format(plan))
	}
	// Compare against a pushed-down but still-correlated plan (executing
	// the raw bound plan would re-run the inner per cross-product row).
	correlated := o.Optimize(bindQ(t, cat, q), Options{
		DisableRules: map[string]bool{rules.Decorrelate{}.Name(): true},
	})
	if !sameMultiset(runP(t, cat, correlated), runP(t, cat, plan)) {
		t.Error("decorrelated baseline changed results")
	}
	// Cost model should prefer the decorrelated plan.
	if o.Estimate(plan).Cost >= o.Estimate(correlated).Cost {
		t.Error("decorrelated plan should cost less than correlated apply")
	}
}

func TestJoinMethodsAssigned(t *testing.T) {
	cat, o := setup(t)
	plan := o.Optimize(bindQ(t, cat, "select p_name from partsupp, part where ps_partkey = p_partkey"), Options{})
	core.Walk(plan, func(n core.Node) {
		if j, ok := n.(*core.Join); ok && j.Method == core.JoinAuto {
			t.Error("join method not assigned")
		}
	})
}

func TestOptimizeTraced(t *testing.T) {
	cat, o := setup(t)

	// The Q1 shape fires pushdown + the always-beneficial GApply rules;
	// every accepted entry must carry pass numbers and plan summaries.
	plan, trace := o.OptimizeTraced(bindQ(t, cat, q1), Options{})
	if len(trace) == 0 {
		t.Fatalf("no rule applications recorded for:\n%s", core.Format(plan))
	}
	accepted := map[string]bool{}
	for _, e := range trace {
		if e.Rule == "" || e.Pass < 1 || e.Pass > maxPasses {
			t.Errorf("malformed entry: %+v", e)
		}
		if e.Before == "" || e.After == "" {
			t.Errorf("entry %s missing plan summaries: %+v", e.Rule, e)
		}
		if e.Accepted {
			accepted[e.Rule] = true
		}
	}
	if !accepted["projection-before-gapply"] {
		t.Errorf("projection-before-gapply not in accepted trace: %+v", trace)
	}

	// A forced cost-based rule must be traced as forced and accepted.
	_, forcedTrace := o.OptimizeTraced(bindQ(t, cat, q1), Options{
		ForceRules: map[string]bool{rules.GroupSelectionExists{}.Name(): true},
	})
	for _, e := range forcedTrace {
		if e.CostBased && e.Forced && !e.Accepted {
			t.Errorf("forced rule %s rejected: %+v", e.Rule, e)
		}
	}

	// Rejected cost-based rules record the cost comparison that lost.
	_, rejTrace := o.OptimizeTraced(bindQ(t, cat, q1), Options{})
	for _, e := range rejTrace {
		if e.CostBased && !e.Forced && !e.Accepted && e.CostAfter < e.CostBefore {
			t.Errorf("rejected rule %s has winning cost: %+v", e.Rule, e)
		}
	}

	// Skipped optimization yields no trace.
	if _, tr := o.OptimizeTraced(bindQ(t, cat, q1), Options{SkipOptimization: true}); tr != nil {
		t.Errorf("skip-optimization recorded a trace: %+v", tr)
	}

	// Optimize and OptimizeTraced must agree on the final plan.
	want := core.Format(o.Optimize(bindQ(t, cat, q1), Options{}))
	if got := core.Format(plan); got != want {
		t.Errorf("traced plan differs:\n%s\nvs\n%s", got, want)
	}
}

// TestPlaceSeeks: a selective filter over an indexed key takes a
// heap-order seek — the Select stays on top, the rows and their order
// are the heap plan's — while an unselective one keeps the heap scan,
// and DisableIndexes places no seek at all.
func TestPlaceSeeks(t *testing.T) {
	cat, o := setup(t)
	for _, c := range []string{"ps_suppkey", "ps_partkey"} {
		if _, err := cat.CreateIndex("ix_"+c, "partsupp", c); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		sql  string
		seek string // index the seek must use; "" = none
	}{
		{"select ps_partkey, ps_availqty from partsupp where ps_suppkey = 3", "ix_ps_suppkey"},
		{"select ps_partkey, ps_availqty from partsupp where ps_suppkey >= 2 and ps_suppkey < 4 and ps_partkey > 10", "ix_ps_suppkey"},
		// Both keys bounded: the narrower window wins.
		{"select ps_partkey from partsupp where ps_suppkey < 19 and ps_partkey = 7", "ix_ps_partkey"},
		{"select ps_partkey from partsupp where ps_suppkey >= 1", ""},
		{"select ps_partkey from partsupp where ps_availqty = 3", ""},
	} {
		bound := bindQ(t, cat, tc.sql)
		base := o.Optimize(bound, Options{DisableIndexes: true})
		if n := core.CountOps(base, func(n core.Node) bool { _, ok := n.(*core.IndexScan); return ok }); n != 0 {
			t.Fatalf("%s: DisableIndexes placed %d index scans", tc.sql, n)
		}
		plan := o.Optimize(bound, Options{})
		seek := ""
		core.Walk(plan, func(n core.Node) {
			if is, ok := n.(*core.IndexScan); ok && is.HeapOrder {
				seek = is.Index
			}
		})
		if seek != tc.seek {
			t.Errorf("%s: seek on %q, want %q:\n%s", tc.sql, seek, tc.seek, core.Format(plan))
		}
		// Output identical, in order: the heap-order seek emits the heap
		// plan's rows in heap order.
		want, have := runP(t, cat, base), runP(t, cat, plan)
		if len(want) != len(have) {
			t.Fatalf("%s: %d rows vs %d", tc.sql, len(have), len(want))
		}
		for i := range want {
			if want[i].KeyAll() != have[i].KeyAll() {
				t.Fatalf("%s: row %d differs: %v vs %v", tc.sql, i, have[i], want[i])
			}
		}
	}
}

// TestSortPartitionLowers: a sort hint becomes an enforcer sort of the
// outer on the group columns under a GApply that streams its groups;
// with an index on the group column the order pass elides that sort,
// and both plans return the hash plan's rows.
func TestSortPartitionLowers(t *testing.T) {
	cat, o := setup(t)
	const q = `select gapply(select 0, ps_partkey, ps_availqty from g
	                         union all
	                         select 1, null, sum(ps_availqty) from g)
	           from partsupp group by ps_suppkey : g`
	check := func(plan core.Node, elided bool) {
		t.Helper()
		var ga *core.GApply
		core.Walk(plan, func(n core.Node) {
			if g, ok := n.(*core.GApply); ok {
				ga = g
			}
		})
		if ga == nil {
			t.Fatalf("GApply missing:\n%s", core.Format(plan))
		}
		sort, ok := ga.Outer.(*core.OrderBy)
		if !ok || sort.Elided != elided || !core.GApplyOuterOrdered(ga) || ga.Partition != core.PartitionSort {
			t.Fatalf("want a sort-hinted GApply (streaming) over a sort (elided %v):\n%s", elided, core.Format(plan))
		}
		if got := core.FormatOrdering(core.ProvidedOrdering(sort)); got != "partsupp.ps_suppkey ASC" {
			t.Errorf("the sort provides %q, want the group column", got)
		}
	}
	hash := runP(t, cat, o.Optimize(bindQ(t, cat, q), Options{Partition: core.PartitionHash}))
	sorted := o.Optimize(bindQ(t, cat, q), Options{Partition: core.PartitionSort})
	check(sorted, false)
	sortedRows := runP(t, cat, sorted)
	if !sameMultiset(sortedRows, hash) {
		t.Error("the lowered sort partitioning changed results")
	}
	if _, err := cat.CreateIndex("ix_ps_suppkey", "partsupp", "ps_suppkey"); err != nil {
		t.Fatal(err)
	}
	indexed := o.Optimize(bindQ(t, cat, q), Options{Partition: core.PartitionSort})
	check(indexed, true)
	if got := runP(t, cat, indexed); fmt.Sprint(got) != fmt.Sprint(sortedRows) {
		t.Error("the elided sort changed the rows or their order")
	}
	if core.Format(o.Optimize(bindQ(t, cat, q), Options{Partition: core.PartitionSort, DisableIndexes: true})) != core.Format(sorted) {
		t.Error("DisableIndexes does not plan the index-free lowering")
	}
}
