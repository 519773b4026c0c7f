package rules

import (
	"strings"

	"gapplydb/internal/analyze"
	"gapplydb/internal/core"
)

// InvariantGrouping implements §4.3 (Theorem 2): GApply moves below the
// top join of its left-deep outer tree onto node n = the join's left
// child when n has the invariant grouping property:
//
//  1. n's columns contain the grouping columns (possibly remapped
//     through the join's equality pairs) and the gp-eval columns;
//  2. every join column of n is a grouping column;
//  3. the join above n is a foreign-key join (outer side holds the
//     foreign key to the inner side's key).
//
// The per-group query is adapted by dropping projected columns that are
// not available at n — later joins re-attach them — and the original
// output shape is restored by a final projection. Repeated firing pushes
// GApply arbitrarily deep, one join per firing.
type InvariantGrouping struct{}

// Name implements Rule.
func (InvariantGrouping) Name() string { return "invariant-grouping" }

// Apply implements Rule.
func (InvariantGrouping) Apply(n core.Node, ctx *Context) (core.Node, bool) {
	return rewriteGApplies(n, func(ga *core.GApply) (core.Node, bool) {
		join, ok := ga.Outer.(*core.Join)
		if !ok || join.Kind != core.InnerJoin {
			return nil, false
		}
		// The join must be a pure equijoin: each conjunct one equality.
		pairs := join.EquiPairs()
		if len(pairs) == 0 || len(pairs) != len(core.ConjunctsOf(join.Cond)) {
			return nil, false
		}
		nNode := join.Left
		nSchema := nNode.Schema()
		rightScan, ok := join.Right.(*core.Scan)
		if !ok {
			return nil, false // need a base table to check the foreign key
		}

		// Remap grouping columns through the join equalities onto n.
		newGCols := make([]*core.ColRef, len(ga.GroupCols))
		for i, gc := range ga.GroupCols {
			switch {
			case nSchema.Has(gc.Table, gc.Name):
				newGCols[i] = gc
			default:
				mapped := remapThroughPairs(gc, pairs, join.Right.Schema())
				if mapped == nil {
					return nil, false
				}
				newGCols[i] = mapped
			}
		}

		// Condition 2: every join column of n is a grouping column.
		for _, p := range pairs {
			if !colInList(p.Left, newGCols) {
				return nil, false
			}
		}

		// Condition 3: the join is a foreign-key join from n's side to
		// the right table's key.
		for _, p := range pairs {
			lord, err := nSchema.Resolve(p.Left.Table, p.Left.Name)
			if err != nil {
				return nil, false
			}
			leftCol := nSchema.Cols[lord]
			if !ctx.Catalog.HasForeignKey(leftCol.Table, []string{leftCol.Name}, rightScan.Table, []string{p.Right.Name}) {
				return nil, false
			}
		}

		// Condition 1 (second half): gp-eval columns available at n.
		for _, c := range analyze.GpEvalColumns(ga.Inner, ga.Outer.Schema()) {
			if !nSchema.Has(c.Table, c.Name) {
				return nil, false
			}
		}

		// Adapt the per-group query: drop projected columns not present
		// at n (they get re-attached by the join above).
		adapted, ok := adaptPGQ(ga.Inner, ga.Outer.Schema(), nSchema)
		if !ok {
			return nil, false
		}

		newGA := withPartition(core.NewGApply(nNode, newGCols, ga.GroupVar, adapted), ga.Partition)
		newJoin := &core.Join{Left: newGA, Right: join.Right, Cond: join.Cond, Method: join.Method}

		// Restore the original output shape by name.
		origCols := ga.Schema().Cols
		outExprs := make([]core.Expr, len(origCols))
		for i, c := range origCols {
			if _, err := newJoin.Schema().Resolve(c.Table, c.Name); err != nil {
				return nil, false
			}
			outExprs[i] = &core.ColRef{Table: c.Table, Name: c.Name}
		}
		return core.NewProject(newJoin, outExprs, nil), true
	})
}

// remapThroughPairs maps a grouping column that lives on the join's
// right side onto its equal left-side column.
func remapThroughPairs(gc *core.ColRef, pairs []core.EquiPair, rightSchema interface {
	Resolve(string, string) (int, error)
}) *core.ColRef {
	gcOrd, err := rightSchema.Resolve(gc.Table, gc.Name)
	if err != nil {
		return nil
	}
	for _, p := range pairs {
		if ord, err := rightSchema.Resolve(p.Right.Table, p.Right.Name); err == nil && ord == gcOrd {
			return p.Left
		}
	}
	return nil
}

func colInList(c *core.ColRef, list []*core.ColRef) bool {
	for _, l := range list {
		if strings.EqualFold(c.Name, l.Name) &&
			(c.Table == "" || l.Table == "" || strings.EqualFold(c.Table, l.Table)) {
			return true
		}
	}
	return false
}

// adaptPGQ drops from every projection list the columns that come from
// the group but are not available at the new, narrower group schema.
// If any projection would become empty (the exists-subquery caveat in
// §4.3), the adaptation fails.
func adaptPGQ(pgq core.Node, oldGroup, newGroup interface{ Has(string, string) bool }) (core.Node, bool) {
	ok := true
	out := core.Transform(pgq, func(m core.Node) core.Node {
		p, isProj := m.(*core.Project)
		if !isProj {
			return m
		}
		var exprs []core.Expr
		var names []string
		for i, e := range p.Exprs {
			drop := false
			for _, c := range core.ColRefsIn(e) {
				if oldGroup.Has(c.Table, c.Name) && !newGroup.Has(c.Table, c.Name) {
					drop = true
				}
			}
			if !drop {
				exprs = append(exprs, e)
				if i < len(p.Names) {
					names = append(names, p.Names[i])
				} else {
					names = append(names, "")
				}
			}
		}
		if len(exprs) == 0 {
			ok = false
			return m
		}
		if len(exprs) == len(p.Exprs) {
			return m
		}
		np := core.NewProject(p.Input, exprs, names)
		np.Qualifier = p.Qualifier
		return np
	})
	if !ok {
		return nil, false
	}
	return out, true
}
