package bind

import (
	"strings"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/internal/schema"
	"gapplydb/internal/sql"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// fixtureCatalog mirrors the executor tests' data set:
//
//	supplier: (1, alpha) (2, beta) (3, gamma)
//	part:     (1, bolt, 10, Brand#A) (2, nut, 20, Brand#B)
//	          (3, washer, 30, Brand#A) (4, screw, 40, Brand#B)
//	partsupp: s1 → p1, p2, p3;  s2 → p3, p4
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

// run parses, binds and executes q against the fixture.
func run(t *testing.T, cat *storage.Catalog, q string) *exec.Result {
	t.Helper()
	plan := bindQuery(t, cat, q)
	ctx := exec.NewContext(cat, new(exec.Store))
	res, err := exec.Run(plan, ctx)
	if err != nil {
		t.Fatalf("exec %q: %v\nplan:\n%s", q, err, core.Format(plan))
	}
	return res
}

func bindQuery(t *testing.T, cat *storage.Catalog, q string) core.Node {
	t.Helper()
	stmt, _, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	plan, err := New(cat).Bind(stmt)
	if err != nil {
		t.Fatalf("bind %q: %v", q, err)
	}
	return plan
}

func bindErr(t *testing.T, cat *storage.Catalog, q string) error {
	t.Helper()
	stmt, _, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	_, err = New(cat).Bind(stmt)
	if err == nil {
		t.Fatalf("bind %q must fail", q)
	}
	return err
}

func TestBindSimpleProjectionFilter(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, "select p_name, p_retailprice * 2 as twice from part where p_retailprice >= 30")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Schema.Cols[1].Name != "twice" {
		t.Errorf("schema = %v", res.Schema)
	}
	if res.Rows[0][0].Str() != "washer" || res.Rows[0][1].Float() != 60 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestBindJoinAndQualifiedStars(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, "select * from partsupp, part where ps_partkey = p_partkey")
	if len(res.Rows) != 5 || res.Schema.Len() != 6 {
		t.Fatalf("rows=%d schema=%v", len(res.Rows), res.Schema)
	}
	// Aliased self-join: both sides visible under their aliases.
	res = run(t, cat, `select a.p_name, b.p_name from part a, part b
		where a.p_partkey = b.p_partkey and a.p_retailprice > 25`)
	if len(res.Rows) != 2 {
		t.Errorf("self join rows = %v", res.Rows)
	}
}

func TestBindGroupByAggregates(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `select ps_suppkey, avg(p_retailprice) as avgprice, count(*) as n
		from partsupp, part where ps_partkey = p_partkey group by ps_suppkey`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	byKey := map[int64]types.Row{}
	for _, r := range res.Rows {
		byKey[r[0].Int()] = r
	}
	if byKey[1][1].Float() != 20 || byKey[1][2].Int() != 3 {
		t.Errorf("supplier 1 = %v", byKey[1])
	}
	if byKey[2][1].Float() != 35 || byKey[2][2].Int() != 2 {
		t.Errorf("supplier 2 = %v", byKey[2])
	}
}

func TestBindHaving(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `select ps_suppkey from partsupp group by ps_suppkey having count(*) > 2`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("having rows = %v", res.Rows)
	}
}

func TestBindScalarAggregateNoGroup(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, "select count(*), avg(p_retailprice) from part")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 4 || res.Rows[0][1].Float() != 25 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Output names keep the display form.
	if res.Schema.Cols[0].Name != "count(*)" || res.Schema.Cols[1].Name != "avg(p_retailprice)" {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestBindRejectsUngroupedColumn(t *testing.T) {
	cat := fixtureCatalog(t)
	err := bindErr(t, cat, "select p_name, count(*) from part")
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("err = %v", err)
	}
	bindErr(t, cat, "select p_name from part group by p_brand")
}

func TestBindOrderBy(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, "select p_name from part order by p_retailprice desc")
	if res.Rows[0][0].Str() != "screw" || res.Rows[3][0].Str() != "bolt" {
		t.Errorf("order = %v", res.Rows)
	}
	// ORDER BY a column that is not selected (sort below the projection).
	res = run(t, cat, "select p_name from part order by p_partkey desc")
	if res.Rows[0][0].Str() != "screw" {
		t.Errorf("order below projection = %v", res.Rows)
	}
}

func TestBindDistinctAndUnion(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, "select distinct p_brand from part")
	if len(res.Rows) != 2 {
		t.Errorf("distinct = %v", res.Rows)
	}
	res = run(t, cat, "select p_brand from part union select p_brand from part")
	if len(res.Rows) != 2 {
		t.Errorf("union distinct = %v", res.Rows)
	}
	res = run(t, cat, "select p_brand from part union all select p_brand from part")
	if len(res.Rows) != 8 {
		t.Errorf("union all = %v", res.Rows)
	}
	bindErr(t, cat, "select p_brand, p_name from part union all select p_brand from part")
}

func TestBindDerivedTable(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `select tmp.k, tmp.avgprice from
		(select ps_suppkey, avg(p_retailprice) from partsupp, part
		 where ps_partkey = p_partkey group by ps_suppkey) as tmp(k, avgprice)
		where tmp.avgprice > 25`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("derived = %v", res.Rows)
	}
	bindErr(t, cat, "select 1 from (select p_name from part) as t(a, b)")
}

func TestBindExistsSubquery(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `select s_name from supplier where exists
		(select ps_partkey from partsupp where ps_suppkey = s_suppkey)`)
	if len(res.Rows) != 2 {
		t.Fatalf("exists = %v", res.Rows)
	}
	res = run(t, cat, `select s_name from supplier where not exists
		(select ps_partkey from partsupp where ps_suppkey = s_suppkey)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "gamma" {
		t.Errorf("not exists = %v", res.Rows)
	}
}

func TestBindCorrelatedScalarSubquery(t *testing.T) {
	cat := fixtureCatalog(t)
	// Parts priced above their supplier's average (paper §2's Q2 shape,
	// one branch).
	res := run(t, cat, `select ps1.ps_suppkey, count(*) from partsupp ps1, part
		where p_partkey = ps_partkey and p_retailprice >=
			(select avg(p_retailprice) from partsupp, part
			 where p_partkey = ps_partkey and ps_suppkey = ps1.ps_suppkey)
		group by ps1.ps_suppkey`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	counts := map[int64]int64{}
	for _, r := range res.Rows {
		counts[r[0].Int()] = r[1].Int()
	}
	// Supplier 1: avg 20 → parts ≥ 20: nut, washer = 2.
	// Supplier 2: avg 35 → parts ≥ 35: screw = 1.
	if counts[1] != 2 || counts[2] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestBindUncorrelatedScalarSubquery(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `select p_name from part
		where p_retailprice > (select avg(p_retailprice) from part)`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestBindGApplyQ1(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `
		select gapply(select p_name, p_retailprice, null from tmpSupp
		              union all
		              select null, null, avg(p_retailprice) from tmpSupp)
		       as (name, price, avgprice)
		from partsupp, part
		where ps_partkey = p_partkey
		group by ps_suppkey : tmpSupp`)
	if len(res.Rows) != 7 {
		t.Fatalf("Q1 rows = %v", res.Rows)
	}
	if res.Schema.Cols[0].Name != "ps_suppkey" ||
		res.Schema.Cols[1].Name != "name" || res.Schema.Cols[3].Name != "avgprice" {
		t.Errorf("schema = %v", res.Schema)
	}
	avgs := map[int64]float64{}
	for _, r := range res.Rows {
		if !r[3].IsNull() {
			avgs[r[0].Int()] = r[3].Float()
		}
	}
	if avgs[1] != 20 || avgs[2] != 35 {
		t.Errorf("avgs = %v", avgs)
	}
}

func TestBindGApplyQ2PaperSyntax(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `
		select gapply(
			select count(*), null from tmpSupp
			where p_retailprice >= (select avg(p_retailprice) from tmpSupp)
			union all
			select null, count(*) from tmpSupp
			where p_retailprice < (select avg(p_retailprice) from tmpSupp)
		) as (count_above, count_below)
		from partsupp, part
		where ps_partkey = p_partkey
		group by ps_suppkey : tmpSupp`)
	if len(res.Rows) != 4 {
		t.Fatalf("Q2 rows = %v", res.Rows)
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
	if above[1] != 2 || below[1] != 1 || above[2] != 1 || below[2] != 1 {
		t.Errorf("above=%v below=%v", above, below)
	}
}

func TestBindGApplyGroupSelection(t *testing.T) {
	cat := fixtureCatalog(t)
	// §4.2: return the whole group when it contains an expensive part.
	res := run(t, cat, `
		select gapply(select * from g where exists
			(select p_partkey from g where p_retailprice > 35))
		from partsupp, part
		where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	if len(res.Rows) != 2 {
		t.Fatalf("group selection rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].Int() != 2 {
			t.Errorf("wrong group: %v", r)
		}
	}
}

func TestBindGApplyQualifiedGroupVarColumns(t *testing.T) {
	cat := fixtureCatalog(t)
	// g.p_name is stripped to an unqualified reference (§3.1: all columns
	// of the joining tables are associated with x).
	res := run(t, cat, `
		select gapply(select g.p_name from g where g.p_retailprice > 25)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestBindGApplyOrderByInsidePGQ(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `
		select gapply(select p_name from g order by p_retailprice desc)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// First row of each group is its most expensive part.
	if res.Rows[0][1].Str() != "washer" && res.Rows[0][1].Str() != "screw" {
		t.Errorf("first of group = %v", res.Rows[0])
	}
}

func TestBindGApplyErrors(t *testing.T) {
	cat := fixtureCatalog(t)
	// Missing group variable.
	bindErr(t, cat, "select gapply(select count(*) from g) from part group by p_brand")
	// PGQ ignores the variable entirely.
	bindErr(t, cat, "select gapply(select count(*) from part) from part group by p_brand : g")
	// gapply mixed with other select items.
	bindErr(t, cat, "select p_brand, gapply(select count(*) from g) from part group by p_brand : g")
	// Group var with a plain query.
	bindErr(t, cat, "select p_brand from part group by p_brand : g")
	// as-list arity mismatch.
	bindErr(t, cat, "select gapply(select count(*) from g) as (a, b) from part group by p_brand : g")
	// Unknown grouping column.
	bindErr(t, cat, "select gapply(select count(*) from g) from part group by nosuch : g")
	// HAVING with gapply.
	bindErr(t, cat, "select gapply(select count(*) from g) from part group by p_brand : g having count(*) > 1")
}

func TestBindNameErrors(t *testing.T) {
	cat := fixtureCatalog(t)
	bindErr(t, cat, "select nosuch from part")
	bindErr(t, cat, "select p_name from nosuch")
	bindErr(t, cat, "select part.p_partkey from part a, part b") // alias hides base name
	// Ambiguity across a self-join.
	err := bindErr(t, cat, "select p_name from part a, part b")
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("err = %v", err)
	}
}

func TestBindGApplySimpleAggregate(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, `
		select gapply(select count(*) from g) as (n)
		from part group by p_brand : g`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].Int() != 2 {
			t.Errorf("brand group %v count = %v", r[0], r[1])
		}
	}
	if res.Schema.Cols[1].Name != "n" {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestBindCoalesceInQuery(t *testing.T) {
	cat := fixtureCatalog(t)
	res := run(t, cat, "select coalesce(null, p_name) from part where p_partkey = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "bolt" {
		t.Errorf("coalesce = %v", res.Rows)
	}
}

func TestBindPlanShapes(t *testing.T) {
	cat := fixtureCatalog(t)
	// The gapply query produces a GApply root (possibly below OrderBy).
	plan := bindQuery(t, cat, `select gapply(select count(*) from g) from part group by p_brand : g`)
	if _, ok := plan.(*core.GApply); !ok {
		t.Errorf("plan root = %T\n%s", plan, core.Format(plan))
	}
	// Correlated subqueries become Apply operators, not raw expressions.
	plan = bindQuery(t, cat, `select p_name from part
		where p_retailprice > (select avg(p_retailprice) from part)`)
	applies := 0
	core.Walk(plan, func(n core.Node) {
		if _, ok := n.(*core.Apply); ok {
			applies++
		}
	})
	if applies != 1 {
		t.Errorf("applies = %d\n%s", applies, core.Format(plan))
	}
}
