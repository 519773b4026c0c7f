package core

import (
	"strings"

	"gapplydb/internal/schema"
)

// Walk visits n and all descendants pre-order, including per-group query
// trees (GApply.Inner) and apply inners.
func Walk(n Node, f func(Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children() {
		Walk(c, f)
	}
}

// Transform rebuilds the tree bottom-up, replacing each node with the
// result of f. f receives nodes whose children have already been
// transformed.
func Transform(n Node, f func(Node) Node) Node {
	ch := n.Children()
	if len(ch) > 0 {
		newCh := make([]Node, len(ch))
		changed := false
		for i, c := range ch {
			newCh[i] = Transform(c, f)
			if newCh[i] != c {
				changed = true
			}
		}
		if changed {
			n = n.WithChildren(newCh)
		}
	}
	return f(n)
}

// ReplaceGroupScans rebinds every GroupScan for the named group variable
// in the tree to a new schema. Rules that change the shape of a GApply's
// outer input (projection pruning, pushing GApply below a join) call this
// to keep the per-group query's leaves consistent.
func ReplaceGroupScans(n Node, groupVar string, sch *schema.Schema) Node {
	return Transform(n, func(m Node) Node {
		if gs, ok := m.(*GroupScan); ok && strings.EqualFold(gs.Var, groupVar) {
			return &GroupScan{Var: gs.Var, Sch: sch}
		}
		return m
	})
}

// GroupScansIn returns all GroupScan nodes in the tree.
func GroupScansIn(n Node) []*GroupScan {
	var out []*GroupScan
	Walk(n, func(m Node) {
		if gs, ok := m.(*GroupScan); ok {
			out = append(out, gs)
		}
	})
	return out
}

// Format renders the plan tree for EXPLAIN output, one operator per line
// with two-space indentation per level.
func Format(n Node) string {
	var b strings.Builder
	format(n, 0, &b)
	return b.String()
}

func format(n Node, depth int, b *strings.Builder) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		format(c, depth+1, b)
	}
}

// ReferencedColumns collects every (qualified) column name referenced by
// expressions anywhere in the tree, including aggregate arguments, group
// columns and order keys, but excluding OuterRefs. The
// projection-before-GApply rule uses this over the per-group query to
// decide which outer columns PGQ actually needs.
func ReferencedColumns(n Node) []*ColRef {
	var out []*ColRef
	add := func(e Expr) {
		if e == nil {
			return
		}
		out = append(out, ColRefsIn(e)...)
	}
	Walk(n, func(m Node) {
		switch x := m.(type) {
		case *Select:
			add(x.Cond)
		case *Project:
			for _, e := range x.Exprs {
				add(e)
			}
		case *Join:
			add(x.Cond)
		case *GroupBy:
			for _, c := range x.GroupCols {
				out = append(out, c)
			}
			for _, a := range x.Aggs {
				add(a.Arg)
			}
		case *AggOp:
			for _, a := range x.Aggs {
				add(a.Arg)
			}
		case *OrderBy:
			for _, k := range x.Keys {
				add(k.Expr)
			}
		case *GApply:
			for _, c := range x.GroupCols {
				out = append(out, c)
			}
		}
	})
	return out
}

// OuterRefsIn collects every OuterRef used anywhere in the tree's
// expressions — the correlation footprint of a subquery plan.
func OuterRefsIn(n Node) []*OuterRef {
	var out []*OuterRef
	see := func(x Expr) {
		if o, ok := x.(*OuterRef); ok {
			out = append(out, o)
		}
	}
	Walk(n, func(m Node) { walkExprs(m, see) })
	return out
}

// walkExprs walks every expression n itself holds, not its children's.
func walkExprs(n Node, f func(Expr)) {
	walk := func(e Expr) {
		if e != nil {
			e.Walk(f)
		}
	}
	switch x := n.(type) {
	case *Select:
		walk(x.Cond)
	case *Project:
		for _, e := range x.Exprs {
			walk(e)
		}
	case *Join:
		walk(x.Cond)
	case *GroupBy:
		for _, a := range x.Aggs {
			walk(a.Arg)
		}
	case *AggOp:
		for _, a := range x.Aggs {
			walk(a.Arg)
		}
	case *OrderBy:
		for _, k := range x.Keys {
			walk(k.Expr)
		}
	}
}

// GroupInvariant reports whether the subtree's result is independent of
// the enclosing group binding and of any outer row: it contains no
// GroupScan (of any variable — conservative, so a nested GApply's inner
// is never misclassified) and no OuterRef in any expression position.
// Such a subtree produces the same rows on every re-Open within one
// query, which is what licenses materializing it once.
func GroupInvariant(n Node) bool {
	roots, _ := InvariantRoots(n)
	return len(roots) == 1 && roots[0] == n
}

// InvariantRoots returns the maximal group-invariant subtrees of a
// per-group plan, in pre-order: once a subtree qualifies, its
// descendants are not reported separately. A nested GApply is treated
// as opaque on its inner side — only its Outer input is searched —
// because the nested operator materializes its own inner's. correlated
// reports whether an expression anywhere in n holds an OuterRef, as
// OuterRefsIn would. One pass decides every node, bottom-up.
func InvariantRoots(n Node) (roots []Node, correlated bool) {
	f := &invariantFinder{}
	f.see = func(x Expr) {
		if _, ok := x.(*OuterRef); ok {
			f.ref = true
		}
	}
	if f.visit(n) {
		return []Node{n}, false
	}
	return f.out, f.correlated
}

type invariantFinder struct {
	out        []Node
	see        func(Expr) // sets ref on an OuterRef
	ref        bool       // the node being visited holds an OuterRef
	correlated bool       // some node did
}

// visit reports whether m is invariant; when it is not, it leaves m's
// maximal invariant subtrees appended to out.
func (f *invariantFinder) visit(m Node) bool {
	if _, ok := m.(*GroupScan); ok {
		return false
	}
	f.ref = false
	walkExprs(m, f.see)
	f.correlated = f.correlated || f.ref
	inv, mark := !f.ref, len(f.out)
	ga, _ := m.(*GApply)
	for _, c := range m.Children() {
		switch {
		case ga != nil && c == ga.Inner:
			before := len(f.out)
			inv = f.visit(c) && inv
			f.out = f.out[:before]
		case f.visit(c):
			f.out = append(f.out, c)
		default:
			inv = false
		}
	}
	if inv {
		f.out = f.out[:mark]
	}
	return inv
}

// DedupCols returns the column list with duplicates (same qualified name,
// case-insensitive) removed, preserving first-occurrence order.
func DedupCols(cols []*ColRef) []*ColRef {
	seen := make(map[string]bool, len(cols))
	var out []*ColRef
	for _, c := range cols {
		key := strings.ToLower(c.Table) + "." + strings.ToLower(c.Name)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}
