package core

import (
	"strings"
	"testing"
)

// q1Plan builds the paper's Q1 in the algebra (Figure 2, left):
// GApply[ps_suppkey] over partsupp⋈part, PGQ = UnionAll(project names
// and prices, scalar avg).
func q1Plan() *GApply {
	outer := joinedScan()
	gs := func() *GroupScan { return &GroupScan{Var: "tmpSupp"} }
	pgq := &UnionAll{Inputs: []Node{
		NewProject(gs(), []Expr{Col("p_name"), Col("p_retailprice"), &Lit{}}, []string{"", "", "avgprice"}),
		NewProject(
			&AggOp{Input: gs(), Aggs: []AggSpec{{Fn: "avg", Arg: Col("p_retailprice"), As: "a"}}},
			[]Expr{&Lit{}, &Lit{}, Col("a")}, []string{"p_name", "p_retailprice", "avgprice"},
		),
	}}
	return NewGApply(outer, []*ColRef{QCol("partsupp", "ps_suppkey")}, "tmpSupp", pgq)
}

func TestWalkCoversInnerTrees(t *testing.T) {
	ga := q1Plan()
	var kinds []string
	Walk(ga, func(n Node) {
		kinds = append(kinds, strings.Fields(n.Describe())[0])
	})
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"GApply", "Join", "Scan", "UnionAll", "Project", "Aggregate", "GroupScan"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Walk missed %s in %v", want, joined)
		}
	}
	Walk(nil, func(Node) { t.Error("walking nil must not visit") })
}

func TestTransformIdentityPreservesStructure(t *testing.T) {
	ga := q1Plan()
	got := Transform(ga, func(n Node) Node { return n })
	if got != Node(ga) {
		t.Error("identity transform must return the same root")
	}
}

func TestTransformRebuildsOnChange(t *testing.T) {
	ga := q1Plan()
	// Replace the inner UnionAll with just its first branch.
	got := Transform(ga, func(n Node) Node {
		if u, ok := n.(*UnionAll); ok {
			return u.Inputs[0]
		}
		return n
	})
	newGA, ok := got.(*GApply)
	if !ok {
		t.Fatalf("root changed type: %T", got)
	}
	if _, ok := newGA.Inner.(*Project); !ok {
		t.Errorf("inner = %T, want *Project", newGA.Inner)
	}
	// The original must be untouched.
	if _, ok := ga.Inner.(*UnionAll); !ok {
		t.Error("Transform mutated the original tree")
	}
}

func TestReplaceGroupScans(t *testing.T) {
	ga := q1Plan()
	pruned := ga.Outer.Schema().Project([]int{1, 4}) // ps_suppkey, p_retailprice
	newInner := ReplaceGroupScans(ga.Inner, "tmpSupp", pruned)
	for _, gs := range GroupScansIn(newInner) {
		if gs.Sch.Len() != 2 {
			t.Errorf("GroupScan not rebound: %v", gs.Sch)
		}
		if gs.Var != "tmpSupp" {
			t.Errorf("var changed: %q", gs.Var)
		}
	}
	// Other group variables are left alone.
	same := ReplaceGroupScans(ga.Inner, "otherVar", pruned)
	for _, gs := range GroupScansIn(same) {
		if gs.Sch.Len() == 2 {
			t.Error("rebound a non-matching group variable")
		}
	}
}

func TestFormatTree(t *testing.T) {
	out := Format(q1Plan())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "GApply") {
		t.Errorf("root line = %q", lines[0])
	}
	// Children are indented beneath their parents.
	if !strings.HasPrefix(lines[1], "  Join") {
		t.Errorf("second line = %q", lines[1])
	}
	depth := func(s string) int { return (len(s) - len(strings.TrimLeft(s, " "))) / 2 }
	maxDepth := 0
	for _, l := range lines {
		if d := depth(l); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth < 2 {
		t.Errorf("tree depth %d too shallow:\n%s", maxDepth, out)
	}
}

func TestReferencedColumns(t *testing.T) {
	ga := q1Plan()
	cols := DedupCols(ReferencedColumns(ga.Inner))
	names := make(map[string]bool)
	for _, c := range cols {
		names[c.Name] = true
	}
	if !names["p_name"] || !names["p_retailprice"] {
		t.Errorf("PGQ references = %v", cols)
	}
	if names["ps_partkey"] {
		t.Error("PGQ does not reference ps_partkey")
	}
	// GroupBy group cols, aggregate args and order keys are all collected.
	n := &OrderBy{
		Input: &GroupBy{
			Input:     &GroupScan{Var: "g", Sch: partSchema()},
			GroupCols: []*ColRef{Col("p_name")},
			Aggs:      []AggSpec{{Fn: "sum", Arg: Col("p_retailprice")}},
		},
		Keys: []OrderKey{{Expr: Col("p_name")}},
	}
	got := DedupCols(ReferencedColumns(n))
	if len(got) != 2 {
		t.Errorf("ReferencedColumns = %v", got)
	}
}

func TestOuterRefsIn(t *testing.T) {
	inner := &Select{
		Input: &Scan{Table: "part", Def: partDef()},
		Cond:  &Cmp{Op: "=", L: Col("p_partkey"), R: &OuterRef{Table: "partsupp", Name: "ps_partkey"}},
	}
	refs := OuterRefsIn(inner)
	if len(refs) != 1 || refs[0].Name != "ps_partkey" {
		t.Errorf("OuterRefsIn = %v", refs)
	}
	if len(OuterRefsIn(&Scan{Table: "part", Def: partDef()})) != 0 {
		t.Error("scan has no outer refs")
	}
}

func TestDedupCols(t *testing.T) {
	cols := []*ColRef{QCol("t", "a"), QCol("T", "A"), QCol("t", "b"), Col("a")}
	got := DedupCols(cols)
	if len(got) != 3 {
		t.Errorf("DedupCols = %v", got)
	}
	if got[0].Name != "a" || got[1].Name != "b" {
		t.Errorf("order not preserved: %v", got)
	}
}

func TestGroupInvariant(t *testing.T) {
	part := func() Node { return &Scan{Table: "part", Def: partDef()} }
	sel := &Select{Input: part(), Cond: &Cmp{Op: ">", L: Col("p_retailprice"), R: &Lit{}}}
	if !GroupInvariant(sel) {
		t.Error("Select over a base scan is invariant")
	}
	if GroupInvariant(&GroupScan{Var: "g"}) {
		t.Error("a GroupScan is never invariant")
	}
	// Any GroupScan anywhere in the subtree disqualifies it, regardless of
	// the variable it reads.
	j := &Join{Left: &GroupScan{Var: "other"}, Right: part()}
	if GroupInvariant(j) {
		t.Error("subtree containing a GroupScan is not invariant")
	}
	// A correlated predicate (OuterRef) also disqualifies: its result
	// changes per outer row even though no group variable appears.
	corr := &Select{Input: part(), Cond: &Cmp{Op: "=", L: Col("p_partkey"), R: &OuterRef{Table: "partsupp", Name: "ps_partkey"}}}
	if GroupInvariant(corr) {
		t.Error("correlated subtree is not invariant")
	}
}

func TestInvariantRootsMaximal(t *testing.T) {
	part := &Scan{Table: "part", Def: partDef()}
	sel := &Select{Input: part, Cond: &Cmp{Op: ">", L: Col("p_retailprice"), R: &Lit{}}}
	join := &Join{
		Left:  &GroupScan{Var: "g", Sch: partsuppDef().Schema},
		Right: sel,
		Cond:  &Cmp{Op: "=", L: Col("ps_partkey"), R: Col("p_partkey")},
	}
	roots, _ := InvariantRoots(join)
	// Maximality: the Select (not the Scan under it) is the single root.
	if len(roots) != 1 || roots[0] != Node(sel) {
		t.Errorf("InvariantRoots = %v, want the Select subtree", roots)
	}
	// A fully invariant tree reports itself.
	if roots, _ := InvariantRoots(sel); len(roots) != 1 || roots[0] != Node(sel) {
		t.Errorf("InvariantRoots(invariant tree) = %v", roots)
	}
	// No invariant subtree at all.
	if roots, _ := InvariantRoots(&GroupScan{Var: "g"}); len(roots) != 0 {
		t.Errorf("InvariantRoots(GroupScan) = %v", roots)
	}
	// Roots come in pre-order, and correlation anywhere is reported as
	// OuterRefsIn reports it.
	other := &Scan{Table: "part", Def: partDef()}
	corr := &Select{Input: &GroupScan{Var: "g", Sch: partsuppDef().Schema},
		Cond: &Cmp{Op: "=", L: Col("ps_partkey"), R: &OuterRef{Name: "p_partkey"}}}
	union := &UnionAll{Inputs: []Node{other, &Join{Left: corr, Right: sel}}}
	roots, correlated := InvariantRoots(union)
	if len(roots) != 2 || roots[0] != Node(other) || roots[1] != Node(sel) || !correlated {
		t.Errorf("InvariantRoots = %v, correlated %v; want [Scan, Select], true", roots, correlated)
	}
	if _, correlated := InvariantRoots(join); correlated {
		t.Error("an uncorrelated tree reported correlated")
	}
}

func TestInvariantRootsNestedGApplyOpaque(t *testing.T) {
	// A nested GApply materializes its own inner's invariant subtrees;
	// only its Outer
	// side is searched. The invariant scan inside the nested inner must
	// NOT be reported.
	innerInvariant := &Scan{Table: "part", Def: partDef()}
	nested := &GApply{
		Outer:    &GroupScan{Var: "g", Sch: partsuppDef().Schema},
		GroupVar: "h",
		Inner:    &Join{Left: &GroupScan{Var: "h"}, Right: innerInvariant},
	}
	roots, _ := InvariantRoots(nested)
	if len(roots) != 0 {
		t.Errorf("InvariantRoots looked through a nested GApply: %v", roots)
	}
}
