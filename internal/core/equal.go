package core

import (
	"strings"

	"gapplydb/internal/types"
)

// ExprEqual reports structural equality of two expressions, with
// case-insensitive column names and order-insensitive And/Or operand
// comparison. The selection-before-GApply rule uses it to drop per-group
// selections that are logically equivalent to the pushed covering range.
func ExprEqual(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Name, y.Name)
	case *OuterRef:
		y, ok := b.(*OuterRef)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Name, y.Name)
	case *Lit:
		y, ok := b.(*Lit)
		return ok && types.Identical(x.V, y.V)
	case *BinOp:
		y, ok := b.(*BinOp)
		return ok && x.Op == y.Op && ExprEqual(x.L, y.L) && ExprEqual(x.R, y.R)
	case *Cmp:
		y, ok := b.(*Cmp)
		if !ok {
			return false
		}
		if x.Op == y.Op && ExprEqual(x.L, y.L) && ExprEqual(x.R, y.R) {
			return true
		}
		// Symmetric comparisons match with sides flipped.
		if flip := flipCmp(x.Op); flip == y.Op && ExprEqual(x.L, y.R) && ExprEqual(x.R, y.L) {
			return true
		}
		return false
	case *And:
		y, ok := b.(*And)
		return ok && operandsEqual(x.Ops, y.Ops)
	case *Or:
		y, ok := b.(*Or)
		return ok && operandsEqual(x.Ops, y.Ops)
	case *Not:
		y, ok := b.(*Not)
		return ok && ExprEqual(x.Op, y.Op)
	case *Func:
		y, ok := b.(*Func)
		if !ok || !strings.EqualFold(x.Name, y.Name) || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !ExprEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// flipCmp returns the operator that holds when the operands are swapped.
func flipCmp(op string) string {
	switch op {
	case "=":
		return "="
	case "<>":
		return "<>"
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return ""
}

// operandsEqual matches operand multisets regardless of order.
func operandsEqual(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, x := range a {
		found := false
		for j, y := range b {
			if !used[j] && ExprEqual(x, y) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
