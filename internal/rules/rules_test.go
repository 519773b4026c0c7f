package rules

import (
	"strings"
	"testing"

	"gapplydb/internal/bind"
	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/internal/schema"
	"gapplydb/internal/sql"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// fixtureCatalog: the shared 3-supplier / 4-part / 5-partsupp data set
// used across the engine's tests, with declared foreign keys.
func fixtureCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	mk := func(def *schema.TableDef, rows []types.Row) {
		tab, err := cat.Create(def)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := tab.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk(&schema.TableDef{
		Name: "supplier",
		Schema: schema.New(
			schema.Column{Name: "s_suppkey", Type: types.KindInt},
			schema.Column{Name: "s_name", Type: types.KindString}),
		PrimaryKey: []string{"s_suppkey"},
	}, []types.Row{
		{types.NewInt(1), types.NewString("alpha")},
		{types.NewInt(2), types.NewString("beta")},
		{types.NewInt(3), types.NewString("gamma")},
	})
	mk(&schema.TableDef{
		Name: "part",
		Schema: schema.New(
			schema.Column{Name: "p_partkey", Type: types.KindInt},
			schema.Column{Name: "p_name", Type: types.KindString},
			schema.Column{Name: "p_retailprice", Type: types.KindFloat},
			schema.Column{Name: "p_brand", Type: types.KindString}),
		PrimaryKey: []string{"p_partkey"},
	}, []types.Row{
		{types.NewInt(1), types.NewString("bolt"), types.NewFloat(10), types.NewString("Brand#A")},
		{types.NewInt(2), types.NewString("nut"), types.NewFloat(20), types.NewString("Brand#B")},
		{types.NewInt(3), types.NewString("washer"), types.NewFloat(30), types.NewString("Brand#A")},
		{types.NewInt(4), types.NewString("screw"), types.NewFloat(40), types.NewString("Brand#B")},
	})
	mk(&schema.TableDef{
		Name: "partsupp",
		Schema: schema.New(
			schema.Column{Name: "ps_partkey", Type: types.KindInt},
			schema.Column{Name: "ps_suppkey", Type: types.KindInt}),
		PrimaryKey: []string{"ps_partkey", "ps_suppkey"},
		ForeignKeys: []schema.ForeignKey{
			{Cols: []string{"ps_partkey"}, RefTable: "part", RefCols: []string{"p_partkey"}},
			{Cols: []string{"ps_suppkey"}, RefTable: "supplier", RefCols: []string{"s_suppkey"}},
		},
	}, []types.Row{
		{types.NewInt(1), types.NewInt(1)},
		{types.NewInt(2), types.NewInt(1)},
		{types.NewInt(3), types.NewInt(1)},
		{types.NewInt(3), types.NewInt(2)},
		{types.NewInt(4), types.NewInt(2)},
	})
	return cat
}

func bindSQL(t *testing.T, cat *storage.Catalog, q string) core.Node {
	t.Helper()
	stmt, _, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := bind.New(cat).Bind(stmt)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return plan
}

func runPlan(t *testing.T, cat *storage.Catalog, plan core.Node) []types.Row {
	t.Helper()
	res, err := exec.Run(plan, exec.NewContext(cat, new(exec.Store)))
	if err != nil {
		t.Fatalf("exec: %v\nplan:\n%s", err, core.Format(plan))
	}
	return res.Rows
}

// sameMultiset compares row multisets ignoring order.
func sameMultiset(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, r := range a {
		m[r.KeyAll()]++
	}
	for _, r := range b {
		m[r.KeyAll()]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

// fireAndCheck applies the rule, requires it to fire, and verifies the
// rewritten plan computes the same multiset as the original.
func fireAndCheck(t *testing.T, cat *storage.Catalog, r Rule, plan core.Node) core.Node {
	t.Helper()
	before := runPlan(t, cat, plan)
	out, fired := r.Apply(plan, &Context{Catalog: cat})
	if !fired {
		t.Fatalf("rule %s did not fire on:\n%s", r.Name(), core.Format(plan))
	}
	after := runPlan(t, cat, out)
	if !sameMultiset(before, after) {
		t.Fatalf("rule %s changed results:\nbefore: %v\nafter:  %v\nplan:\n%s",
			r.Name(), before, after, core.Format(out))
	}
	return out
}

func mustNotFire(t *testing.T, cat *storage.Catalog, r Rule, plan core.Node) {
	t.Helper()
	if _, fired := r.Apply(plan, &Context{Catalog: cat}); fired {
		t.Fatalf("rule %s must not fire on:\n%s", r.Name(), core.Format(plan))
	}
}

func countNodes(n core.Node, pred func(core.Node) bool) int {
	c := 0
	core.Walk(n, func(m core.Node) {
		if pred(m) {
			c++
		}
	})
	return c
}

func isJoin(n core.Node) bool      { _, ok := n.(*core.Join); return ok }
func isGApply(n core.Node) bool    { _, ok := n.(*core.GApply); return ok }
func isGroupScan(n core.Node) bool { _, ok := n.(*core.GroupScan); return ok }

// ------------------------------------------------------- classic rules

func TestPushDownSelections(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `select p_name from partsupp, part
		where ps_partkey = p_partkey and p_retailprice > 15 and ps_suppkey = 1`)
	out := fireAndCheck(t, cat, PushDownSelections{}, plan)
	// The join node must carry the equality; the single-side conjuncts
	// must sit directly above the scans.
	join := -1
	core.Walk(out, func(m core.Node) {
		if j, ok := m.(*core.Join); ok {
			if len(j.EquiPairs()) == 1 {
				join = 1
			}
			// The sides must be filtered scans or scans.
			if _, ok := j.Left.(*core.Select); !ok {
				if _, ok := j.Left.(*core.Scan); !ok {
					t.Errorf("left side is %T", j.Left)
				}
			}
		}
	})
	if join != 1 {
		t.Errorf("join did not absorb the equality:\n%s", core.Format(out))
	}
}

func TestPushDownSelectionsKeepsCorrelated(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `select ps1.ps_suppkey, count(*) from partsupp ps1, part
		where p_partkey = ps_partkey and p_retailprice >=
			(select avg(p_retailprice) from partsupp, part
			 where p_partkey = ps_partkey and ps_suppkey = ps1.ps_suppkey)
		group by ps1.ps_suppkey`)
	out, _ := PushDownSelections{}.Apply(plan, &Context{Catalog: cat})
	// Still executable and correct.
	if !sameMultiset(runPlan(t, cat, plan), runPlan(t, cat, out)) {
		t.Fatal("pushdown broke the correlated query")
	}
}

// --------------------------------------------------- no-traversal rules

func TestPushSelectIntoGApply(t *testing.T) {
	cat := fixtureCatalog(t)
	ga := bindSQL(t, cat, `
		select gapply(select p_name, avg(p_retailprice) from g group by p_name) as (name, ap)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	// Select on a PGQ output column above the GApply.
	plan := &core.Select{Input: ga, Cond: &core.Cmp{Op: ">", L: core.Col("ap"), R: core.LitFloat(15)}}
	out := fireAndCheck(t, cat, PushSelectIntoGApply{}, plan)
	newGA, ok := out.(*core.GApply)
	if !ok {
		t.Fatalf("select not absorbed: %T\n%s", out, core.Format(out))
	}
	if _, ok := newGA.Inner.(*core.Select); !ok {
		t.Errorf("PGQ not wrapped in the selection:\n%s", core.Format(out))
	}
}

func TestPushSelectIntoGApplyGroupColumnGoesOuter(t *testing.T) {
	cat := fixtureCatalog(t)
	ga := bindSQL(t, cat, `
		select gapply(select count(*) from g) as (n)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	plan := &core.Select{Input: ga, Cond: &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: core.LitInt(1)}}
	out := fireAndCheck(t, cat, PushSelectIntoGApply{}, plan)
	newGA, ok := out.(*core.GApply)
	if !ok {
		t.Fatalf("plan root = %T", out)
	}
	if _, ok := newGA.Outer.(*core.Select); !ok {
		t.Errorf("group-column selection must move to the outer query:\n%s", core.Format(out))
	}
}

func TestPushProjectIntoGApply(t *testing.T) {
	cat := fixtureCatalog(t)
	ga := bindSQL(t, cat, `
		select gapply(select p_name, p_retailprice from g) as (name, price)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`).(*core.GApply)
	plan := core.ProjectCols(ga, []*core.ColRef{
		core.QCol("partsupp", "ps_suppkey"), core.Col("name"),
	})
	out := fireAndCheck(t, cat, PushProjectIntoGApply{}, plan)
	newGA, ok := out.(*core.GApply)
	if !ok {
		t.Fatalf("projection not absorbed: %T", out)
	}
	if newGA.Inner.Schema().Len() != 1 {
		t.Errorf("PGQ output = %v", newGA.Inner.Schema())
	}
	// Identity projection must not fire.
	identity := core.ProjectCols(ga, []*core.ColRef{
		core.QCol("partsupp", "ps_suppkey"), core.Col("name"), core.Col("price"),
	})
	mustNotFire(t, cat, PushProjectIntoGApply{}, identity)
}

// -------------------------------------------- selection before GApply

func TestSelectionBeforeGApplyFires(t *testing.T) {
	cat := fixtureCatalog(t)
	// PGQ selects Brand#A rows only and is emptyOnEmpty (projection).
	plan := bindSQL(t, cat, `
		select gapply(select p_name from g where p_brand = 'Brand#A')
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	out := fireAndCheck(t, cat, SelectionBeforeGApply{}, plan)
	ga := out.(*core.GApply)
	// The covering range moved into the outer query...
	if countNodes(ga.Outer, func(n core.Node) bool {
		s, ok := n.(*core.Select)
		return ok && strings.Contains(s.Cond.String(), "Brand#A")
	}) == 0 {
		t.Errorf("covering range not pushed:\n%s", core.Format(out))
	}
	// ...and the equivalent per-group selection was eliminated.
	if countNodes(ga.Inner, func(n core.Node) bool {
		s, ok := n.(*core.Select)
		return ok && strings.Contains(s.Cond.String(), "Brand#A")
	}) != 0 {
		t.Errorf("redundant per-group selection kept:\n%s", core.Format(out))
	}
	// Firing twice must be a no-op.
	mustNotFire(t, cat, SelectionBeforeGApply{}, out)
}

func TestSelectionBeforeGApplyBlockedByAggregate(t *testing.T) {
	cat := fixtureCatalog(t)
	// count(*) over the selected subset: PGQ(φ) ≠ φ — pushing the range
	// would lose empty-group rows (0-count rows). Must not fire.
	plan := bindSQL(t, cat, `
		select gapply(select count(*) from g where p_brand = 'Brand#A') as (n)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	mustNotFire(t, cat, SelectionBeforeGApply{}, plan)
}

func TestSelectionBeforeGApplyFigure3(t *testing.T) {
	cat := fixtureCatalog(t)
	// Figure 3: brand-A parts priced above the average of brand-B parts.
	// The covering range is brand=A ∨ brand=B.
	plan := bindSQL(t, cat, `
		select gapply(select p_name from g
		              where p_brand = 'Brand#A' and p_retailprice >
		                    (select avg(p_retailprice) from g where p_brand = 'Brand#B'))
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	// The optimizer establishes the annotated tree (σ below apply) first.
	plan, _ = PushDownSelections{}.Apply(plan, &Context{Catalog: cat})
	out := fireAndCheck(t, cat, SelectionBeforeGApply{}, plan)
	ga := out.(*core.GApply)
	sel, ok := ga.Outer.(*core.Select)
	if !ok {
		t.Fatalf("no outer selection:\n%s", core.Format(out))
	}
	s := sel.Cond.String()
	if !strings.Contains(s, "Brand#A") || !strings.Contains(s, "Brand#B") || !strings.Contains(s, "OR") {
		t.Errorf("covering range = %s", s)
	}
}

// ------------------------------------------- projection before GApply

func TestProjectionBeforeGApply(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `
		select gapply(select avg(p_retailprice) from g) as (ap)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	out := fireAndCheck(t, cat, ProjectionBeforeGApply{}, plan)
	ga := out.(*core.GApply)
	proj, ok := ga.Outer.(*core.Project)
	if !ok {
		t.Fatalf("outer not pruned:\n%s", core.Format(out))
	}
	// Only ps_suppkey and p_retailprice survive out of 6 columns.
	if proj.Schema().Len() != 2 {
		t.Errorf("pruned to %v", proj.Schema())
	}
	// GroupScans rebound to the pruned schema.
	for _, gs := range core.GroupScansIn(ga.Inner) {
		if gs.Sch.Len() != 2 {
			t.Errorf("GroupScan schema = %v", gs.Sch)
		}
	}
	mustNotFire(t, cat, ProjectionBeforeGApply{}, out)
}

// ------------------------------------------------- GApply to groupby

func TestGApplyToGroupByScalarAggs(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `
		select gapply(select avg(p_retailprice), count(*) from g) as (ap, n)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	out := fireAndCheck(t, cat, GApplyToGroupBy{}, plan)
	if countNodes(out, isGApply) != 0 {
		t.Errorf("GApply not eliminated:\n%s", core.Format(out))
	}
	if countNodes(out, func(n core.Node) bool { _, ok := n.(*core.GroupBy); return ok }) != 1 {
		t.Errorf("no groupby:\n%s", core.Format(out))
	}
}

func TestGApplyToGroupByNestedGrouping(t *testing.T) {
	cat := fixtureCatalog(t)
	// PGQ groups the group by brand: converts to groupby on (suppkey, brand).
	plan := bindSQL(t, cat, `
		select gapply(select p_brand, min(p_retailprice) from g group by p_brand) as (brand, cheapest)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	out := fireAndCheck(t, cat, GApplyToGroupBy{}, plan)
	found := false
	core.Walk(out, func(n core.Node) {
		if gb, ok := n.(*core.GroupBy); ok && len(gb.GroupCols) == 2 {
			found = true
		}
	})
	if !found {
		t.Errorf("groupby on C∪B missing:\n%s", core.Format(out))
	}
}

func TestGApplyToGroupByDoesNotFireOnFilteredAggregate(t *testing.T) {
	cat := fixtureCatalog(t)
	// A selection under the aggregate means groups with no qualifying
	// rows still emit a row via GApply — a plain groupby would drop them.
	plan := bindSQL(t, cat, `
		select gapply(select count(*) from g where p_brand = 'Brand#A') as (n)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	mustNotFire(t, cat, GApplyToGroupBy{}, plan)
}

// ----------------------------------------------------- group selection

func TestGroupSelectionExists(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `
		select gapply(select * from g where exists
			(select p_partkey from g where p_retailprice > 35))
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	out := fireAndCheck(t, cat, GroupSelectionExists{}, plan)
	if countNodes(out, isGApply) != 0 {
		t.Errorf("GApply not eliminated:\n%s", core.Format(out))
	}
	// Figure 5's shape: Distinct over the ids, joined back.
	if countNodes(out, func(n core.Node) bool { _, ok := n.(*core.Distinct); return ok }) != 1 {
		t.Errorf("distinct group ids missing:\n%s", core.Format(out))
	}
	if countNodes(out, isJoin) < 2 { // reconstruction join + the outer's own join
		t.Errorf("reconstruction join missing:\n%s", core.Format(out))
	}
}

func TestGroupSelectionExistsDoesNotFireOnNegated(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `
		select gapply(select * from g where not exists
			(select p_partkey from g where p_retailprice > 35))
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	mustNotFire(t, cat, GroupSelectionExists{}, plan)
}

func TestGroupSelectionAggregate(t *testing.T) {
	cat := fixtureCatalog(t)
	// §4.2's second example: suppliers whose average part price exceeds a
	// threshold, returning the whole group.
	plan := bindSQL(t, cat, `
		select gapply(select * from g where
			(select avg(p_retailprice) from g) > 25)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	out := fireAndCheck(t, cat, GroupSelectionAggregate{}, plan)
	if countNodes(out, isGApply) != 0 {
		t.Errorf("GApply not eliminated:\n%s", core.Format(out))
	}
	if countNodes(out, func(n core.Node) bool { _, ok := n.(*core.GroupBy); return ok }) != 1 {
		t.Errorf("pipelined aggregate missing:\n%s", core.Format(out))
	}
	// Verify the selected supplier is #2 (avg 35 > 25; supplier 1 avg 20).
	rows := runPlan(t, cat, out)
	for _, r := range rows {
		if r[0].Int() != 2 {
			t.Errorf("wrong group: %v", r)
		}
	}
}

func TestGroupSelectionAggregateCountBlocked(t *testing.T) {
	cat := fixtureCatalog(t)
	// count over a *filtered* subset must not convert (0 ≠ dropped group).
	plan := bindSQL(t, cat, `
		select gapply(select * from g where
			(select count(p_partkey) from g where p_brand = 'Brand#A') < 2)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	mustNotFire(t, cat, GroupSelectionAggregate{}, plan)
}

// --------------------------------------------------- invariant grouping

func TestInvariantGroupingFigure7(t *testing.T) {
	cat := fixtureCatalog(t)
	// Figure 7: per supplier, the supplier name and the least expensive
	// part. s_name is only projected (not gp-eval), the supplier join is
	// FK, and its join column is the grouping column → GApply pushes
	// below the supplier join with s_name dropped from the adapted PGQ.
	plan := bindSQL(t, cat, `
		select gapply(select s_name, p_name, p_retailprice from g
		              where p_retailprice = (select min(p_retailprice) from g))
		from partsupp, part, supplier
		where ps_partkey = p_partkey and ps_suppkey = s_suppkey
		group by s_suppkey : g`)
	// Establish the annotated-join-tree normal form first (§4's setup).
	plan, _ = PushDownSelections{}.Apply(plan, &Context{Catalog: cat})
	out := fireAndCheck(t, cat, InvariantGrouping{}, plan)
	// The GApply must now sit below the supplier join: its outer subtree
	// contains no scan of supplier.
	var ga *core.GApply
	core.Walk(out, func(n core.Node) {
		if g, ok := n.(*core.GApply); ok {
			ga = g
		}
	})
	if ga == nil {
		t.Fatalf("GApply vanished:\n%s", core.Format(out))
	}
	if countNodes(ga.Outer, func(n core.Node) bool {
		s, ok := n.(*core.Scan)
		return ok && s.Table == "supplier"
	}) != 0 {
		t.Errorf("supplier still below GApply:\n%s", core.Format(out))
	}
	// The adapted PGQ no longer projects s_name from the group.
	for _, c := range core.ReferencedColumns(ga.Inner) {
		if strings.EqualFold(c.Name, "s_name") {
			t.Errorf("adapted PGQ still references s_name")
		}
	}
}

func TestInvariantGroupingRequiresForeignKey(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `
		select gapply(select count(*) from g) as (m)
		from partsupp, part
		where ps_partkey = p_partkey
		group by p_partkey : g`)
	plan, _ = PushDownSelections{}.Apply(plan, &Context{Catalog: cat})
	// Grouping by p_partkey: the join column ps_partkey maps to the
	// grouping column via the equality pair, the FK holds, and count(*)
	// needs no part columns — this SHOULD fire.
	fireAndCheck(t, cat, InvariantGrouping{}, plan)

	// Now group on a non-join column: condition 2 fails.
	plan2 := bindSQL(t, cat, `
		select gapply(select min(p_retailprice) from g) as (m)
		from partsupp, part
		where ps_partkey = p_partkey
		group by p_brand : g`)
	plan2, _ = PushDownSelections{}.Apply(plan2, &Context{Catalog: cat})
	mustNotFire(t, cat, InvariantGrouping{}, plan2)
}

func TestInvariantGroupingNeedsGpEvalAtN(t *testing.T) {
	cat := fixtureCatalog(t)
	// PGQ aggregates s_name (right-side column): gp-eval not at n.
	plan := bindSQL(t, cat, `
		select gapply(select min(s_name) from g) as (m)
		from partsupp, supplier
		where ps_suppkey = s_suppkey
		group by s_suppkey : g`)
	plan, _ = PushDownSelections{}.Apply(plan, &Context{Catalog: cat})
	mustNotFire(t, cat, InvariantGrouping{}, plan)
}

// --------------------------------------------------------- decorrelate

func TestDecorrelateQ2Branch(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `select ps1.ps_suppkey, count(*) from partsupp ps1, part
		where p_partkey = ps_partkey and p_retailprice >=
			(select avg(p_retailprice) from partsupp, part
			 where p_partkey = ps_partkey and ps_suppkey = ps1.ps_suppkey)
		group by ps1.ps_suppkey`)
	out := fireAndCheck(t, cat, Decorrelate{}, plan)
	// No Apply remains; a left-outer join over a grouped aggregate does.
	if countNodes(out, func(n core.Node) bool { _, ok := n.(*core.Apply); return ok }) != 0 {
		t.Errorf("apply not decorrelated:\n%s", core.Format(out))
	}
	leftOuter := countNodes(out, func(n core.Node) bool {
		j, ok := n.(*core.Join)
		return ok && j.Kind == core.LeftOuterJoin
	})
	if leftOuter != 1 {
		t.Errorf("left outer join count = %d:\n%s", leftOuter, core.Format(out))
	}
}

func TestDecorrelateSkipsCount(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `select s_name from supplier
		where 1 <= (select count(ps_partkey) from partsupp where ps_suppkey = s_suppkey)`)
	mustNotFire(t, cat, Decorrelate{}, plan)
}

func TestDecorrelateSkipsNonEquality(t *testing.T) {
	cat := fixtureCatalog(t)
	plan := bindSQL(t, cat, `select s_name from supplier
		where 20 <= (select avg(p_retailprice) from partsupp, part
		             where ps_partkey = p_partkey and ps_suppkey < s_suppkey)`)
	mustNotFire(t, cat, Decorrelate{}, plan)
}

// ------------------------------------------------------------- suite

func TestAllRulesPreserveSemanticsOnWorkloadQueries(t *testing.T) {
	cat := fixtureCatalog(t)
	queries := []string{
		// Q1 (paper §3.1 syntax)
		`select gapply(select p_name, p_retailprice, null from g
			union all select null, null, avg(p_retailprice) from g) as (name, price, ap)
		 from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g`,
		// Q2
		`select gapply(select count(*), null from g
			where p_retailprice >= (select avg(p_retailprice) from g)
			union all select null, count(*) from g
			where p_retailprice < (select avg(p_retailprice) from g)) as (above, below)
		 from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g`,
		// group selection
		`select gapply(select * from g where exists
			(select p_partkey from g where p_retailprice > 35))
		 from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g`,
		// invariant grouping candidate
		`select gapply(select s_name, p_name, p_retailprice from g
		               where p_retailprice = (select min(p_retailprice) from g))
		 from partsupp, part, supplier
		 where ps_partkey = p_partkey and ps_suppkey = s_suppkey
		 group by s_suppkey : g`,
		// covering range
		`select gapply(select p_name from g where p_brand = 'Brand#A')
		 from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g`,
	}
	for qi, q := range queries {
		plan := bindSQL(t, cat, q)
		want := runPlan(t, cat, plan)
		cur := plan
		for _, r := range All() {
			next, fired := r.Apply(cur, &Context{Catalog: cat})
			if !fired {
				continue
			}
			got := runPlan(t, cat, next)
			if !sameMultiset(want, got) {
				t.Fatalf("query %d: rule %s changed results\nbefore: %v\nafter:  %v\nplan:\n%s",
					qi, r.Name(), want, got, core.Format(next))
			}
			cur = next
		}
	}
}

func TestRuleNamesUniqueAndCostBasedSubset(t *testing.T) {
	names := map[string]bool{}
	for _, r := range All() {
		if names[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		names[r.Name()] = true
	}
	for n := range CostBasedNames() {
		if !names[n] {
			t.Errorf("cost-based rule %q not in All()", n)
		}
	}
}
