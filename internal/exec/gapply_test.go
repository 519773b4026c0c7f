package exec

import (
	"testing"
	"testing/quick"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// gapplyQ1 builds the paper's Q1 plan (Figure 2): for each supplier, all
// part names and prices plus the average price, via one join and a
// per-group union.
func gapplyQ1(ctx *Context, hint core.PartitionHint) *core.GApply {
	gs := func() *core.GroupScan { return &core.GroupScan{Var: "tmpSupp"} }
	pgq := &core.UnionAll{Inputs: []core.Node{
		core.NewProject(gs(),
			[]core.Expr{core.Col("p_name"), core.Col("p_retailprice"), &core.Lit{}},
			[]string{"name", "price", "avgprice"}),
		core.NewProject(
			&core.AggOp{Input: gs(), Aggs: []core.AggSpec{{Fn: "avg", Arg: core.Col("p_retailprice"), As: "a"}}},
			[]core.Expr{&core.Lit{}, &core.Lit{}, core.Col("a")},
			[]string{"name", "price", "avgprice"}),
	}}
	ga := core.NewGApply(joined(ctx), []*core.ColRef{core.Col("ps_suppkey")}, "tmpSupp", pgq)
	ga.Partition = hint
	return core.LowerSortPartition(ga)
}

func TestGApplyQ1(t *testing.T) {
	for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
		ctx := fixture(t)
		res := mustRun(t, gapplyQ1(ctx, hint), ctx)
		// Supplier 1: 3 parts + 1 avg row; supplier 2: 2 parts + 1 avg row.
		if len(res.Rows) != 7 {
			t.Fatalf("[%v] rows = %d, want 7", hint, len(res.Rows))
		}
		if res.Schema.Len() != 4 {
			t.Fatalf("[%v] schema = %v", hint, res.Schema)
		}
		avgs := map[int64]float64{}
		parts := map[int64]int{}
		for _, r := range res.Rows {
			if !r[3].IsNull() {
				avgs[r[0].Int()] = r[3].Float()
			} else {
				parts[r[0].Int()]++
			}
		}
		if avgs[1] != 20 || avgs[2] != 35 {
			t.Errorf("[%v] avgs = %v", hint, avgs)
		}
		if parts[1] != 3 || parts[2] != 2 {
			t.Errorf("[%v] part rows = %v", hint, parts)
		}
		if ctx.Counters.Groups != 2 || ctx.Counters.InnerExecs != 2 {
			t.Errorf("[%v] counters = %+v", hint, ctx.Counters)
		}
	}
}

// clustered verifies rows are clustered on column 0 — each key appears in
// one contiguous run, the property the constant-space tagger needs.
func clustered(rows []types.Row) bool {
	seen := map[string]bool{}
	var cur string
	first := true
	for _, r := range rows {
		k := r.Key([]int{0})
		if first || k != cur {
			if seen[k] {
				return false
			}
			seen[k] = true
			cur, first = k, false
		}
	}
	return true
}

func TestGApplyOutputClustered(t *testing.T) {
	for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
		ctx := fixture(t)
		res := mustRun(t, gapplyQ1(ctx, hint), ctx)
		if !clustered(res.Rows) {
			t.Errorf("[%v] output not clustered by group key:\n%v", hint, res.Rows)
		}
	}
}

func TestGApplySortPartitionOrdersGroups(t *testing.T) {
	ctx := fixture(t)
	res := mustRun(t, gapplyQ1(ctx, core.PartitionSort), ctx)
	last := int64(-1 << 62)
	for _, r := range res.Rows {
		if k := r[0].Int(); k < last {
			t.Fatalf("sort partitioning must emit groups in key order: %v", res.Rows)
		} else {
			last = k
		}
	}
}

// gapplyQ2 builds the paper's Q2: per supplier, count parts priced at or
// above / below the group average, with the average computed by an
// uncorrelated-within-group scalar subquery (Apply + AggOp).
func gapplyQ2(ctx *Context) *core.GApply {
	gs := func() *core.GroupScan { return &core.GroupScan{Var: "tmpSupp"} }
	avgSub := func() core.Node {
		return &core.AggOp{Input: gs(), Aggs: []core.AggSpec{{Fn: "avg", Arg: core.Col("p_retailprice"), As: "gavg"}}}
	}
	branch := func(op string, outName string, otherName string) core.Node {
		// Apply(group, avg) ⇒ group rows extended with gavg; filter; count.
		app := &core.Apply{Outer: gs(), Inner: avgSub()}
		sel := &core.Select{Input: app, Cond: &core.Cmp{Op: op, L: core.Col("p_retailprice"), R: core.Col("gavg")}}
		agg := &core.AggOp{Input: sel, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "c"}}}
		if outName == "count_above" {
			return core.NewProject(agg, []core.Expr{core.Col("c"), &core.Lit{}}, []string{outName, otherName})
		}
		return core.NewProject(agg, []core.Expr{&core.Lit{}, core.Col("c")}, []string{otherName, outName})
	}
	pgq := &core.UnionAll{Inputs: []core.Node{
		branch(">=", "count_above", "count_below"),
		branch("<", "count_below", "count_above"),
	}}
	return core.NewGApply(joined(ctx), []*core.ColRef{core.Col("ps_suppkey")}, "tmpSupp", pgq)
}

func TestGApplyQ2(t *testing.T) {
	ctx := fixture(t)
	res := mustRun(t, gapplyQ2(ctx), ctx)
	// Two rows per supplier (one per union branch).
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	above := map[int64]int64{}
	below := map[int64]int64{}
	for _, r := range res.Rows {
		if !r[1].IsNull() {
			above[r[0].Int()] = r[1].Int()
		}
		if !r[2].IsNull() {
			below[r[0].Int()] = r[2].Int()
		}
	}
	// Supplier 1: prices 10,20,30 avg 20 → 2 at-or-above, 1 below.
	// Supplier 2: prices 30,40 avg 35 → 1 at-or-above, 1 below.
	if above[1] != 2 || below[1] != 1 {
		t.Errorf("supplier 1: above=%d below=%d", above[1], below[1])
	}
	if above[2] != 1 || below[2] != 1 {
		t.Errorf("supplier 2: above=%d below=%d", above[2], below[2])
	}
}

func TestGApplyInnerCacheInvalidatedPerGroup(t *testing.T) {
	// The avg subquery inside Q2 is uncorrelated, but its value must be
	// recomputed for each group — the binding bump must invalidate the
	// apply cache. The expected counts in TestGApplyQ2 already prove
	// correctness; here we pin the mechanism.
	ctx := fixture(t)
	mustRun(t, gapplyQ2(ctx), ctx)
	// 2 groups × 2 branches: the first branch per group executes the avg,
	// the second reuses it only if the binding hasn't changed. Binding
	// changes once per group, so at least 2 executions must happen.
	if ctx.Counters.ApplyExecs < 2 {
		t.Errorf("ApplyExecs = %d, want ≥ 2 (one per group)", ctx.Counters.ApplyExecs)
	}
	if ctx.Counters.ApplyExecs > 4 {
		t.Errorf("ApplyExecs = %d, want ≤ 4 (cached within group)", ctx.Counters.ApplyExecs)
	}
}

func TestGApplyGroupSelectionShape(t *testing.T) {
	// PGQ = Apply(group, Exists(σ_{price>35}(group))): return the whole
	// group when it contains an expensive part (paper §4.2's example).
	ctx := fixture(t)
	gs := func() *core.GroupScan { return &core.GroupScan{Var: "g"} }
	pgq := &core.Apply{
		Outer: gs(),
		Inner: &core.Exists{Input: &core.Select{
			Input: gs(),
			Cond:  &core.Cmp{Op: ">", L: core.Col("p_retailprice"), R: core.LitFloat(35)},
		}},
	}
	ga := core.NewGApply(joined(ctx), []*core.ColRef{core.Col("ps_suppkey")}, "g", pgq)
	res := mustRun(t, ga, ctx)
	// Only supplier 2 has a part > 35 (screw at 40); its whole group (2
	// rows) is returned.
	if len(res.Rows) != 2 {
		t.Fatalf("group selection rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].Int() != 2 {
			t.Errorf("wrong group selected: %v", r)
		}
	}
}

func TestGApplyEmptyOuter(t *testing.T) {
	ctx := fixture(t)
	outer := &core.Select{
		Input: joined(ctx),
		Cond:  &core.Cmp{Op: "<", L: core.Col("p_retailprice"), R: core.LitFloat(0)},
	}
	gs := &core.GroupScan{Var: "g"}
	pgq := &core.AggOp{Input: gs, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	ga := core.NewGApply(outer, []*core.ColRef{core.Col("ps_suppkey")}, "g", pgq)
	res := mustRun(t, ga, ctx)
	// No groups at all ⇒ empty result (distinct over empty outer),
	// matching the formal semantics ∪ over distinct(π_C(RE1)) = ∅.
	if len(res.Rows) != 0 {
		t.Errorf("GApply over empty outer = %v", res.Rows)
	}
}

func TestGApplyMultipleGroupColumns(t *testing.T) {
	// Group by (ps_suppkey, p_brand) — Q4's shape uses two grouping
	// columns; verify keys cross correctly.
	ctx := fixture(t)
	gs := &core.GroupScan{Var: "g"}
	pgq := &core.AggOp{Input: gs, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	ga := core.NewGApply(joined(ctx),
		[]*core.ColRef{core.Col("ps_suppkey"), core.Col("p_brand")}, "g", pgq)
	res := mustRun(t, ga, ctx)
	counts := map[string]int64{}
	for _, r := range res.Rows {
		counts[r[0].String()+"/"+r[1].Str()] = r[2].Int()
	}
	want := map[string]int64{"1/Brand#A": 2, "1/Brand#B": 1, "2/Brand#A": 1, "2/Brand#B": 1}
	if len(counts) != len(want) {
		t.Fatalf("groups = %v", counts)
	}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("group %s = %d, want %d", k, counts[k], v)
		}
	}
}

func TestGApplyFormalSemantics(t *testing.T) {
	// Property: for random multisets, GApply(C, PGQ=count(*)) equals a
	// hand-computed group count, for both partition strategies — checking
	// the formal definition ∪_{c} ({c} × PGQ(σ_{C=c} RE1)).
	f := func(keys []uint8) bool {
		if len(keys) == 0 {
			return true
		}
		cat := buildFixtureCatalog()
		tab, err := cat.Lookup("partsupp")
		if err != nil {
			return false
		}
		tab.Rows = nil
		for i, k := range keys {
			tab.Rows = append(tab.Rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(k % 8))})
		}
		want := map[int64]int64{}
		for _, k := range keys {
			want[int64(k%8)]++
		}
		for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
			ctx := NewContext(cat, new(Store))
			gs := &core.GroupScan{Var: "g"}
			pgq := &core.AggOp{Input: gs, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
			ga := core.NewGApply(scan(ctx, "partsupp"), []*core.ColRef{core.Col("ps_suppkey")}, "g", pgq)
			ga.Partition = hint
			ga = core.LowerSortPartition(ga)
			res, err := Run(ga, ctx)
			if err != nil {
				return false
			}
			if len(res.Rows) != len(want) {
				return false
			}
			for _, r := range res.Rows {
				if want[r[0].Int()] != r[1].Int() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
