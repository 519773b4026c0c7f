package exec

import (
	"cmp"
	"math"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// This file compiles WHERE-style predicates into vectorized selection
// kernels. A kernel traverses one column of a batch's live rows in a
// tight loop and narrows the selection vector in place — no interface
// call, no closure chain, no Tri boxing per row.
//
// Kernels are compiled only for expression shapes that provably cannot
// error at runtime: comparisons over column references and literals,
// and conjunctions of those. (compileExpr's Cmp closures return errors
// only from their operand closures; ColRef and Lit operands cannot
// fail.) That guarantee is what makes conjunct-at-a-time narrowing
// semantics-preserving: a row dropped by an earlier conjunct can never
// have produced an error in a later one, and a WHERE passes a row only
// when every conjunct is True — NULL (Unknown) and false both reject —
// which is exactly "survives every kernel". Anything outside this
// shape (OuterRefs, arithmetic, functions, OR, NOT) compiles to the row
// predicate instead, still run a batch at a time (filter.narrow).

// selKernel narrows a selection vector: it returns the indexes in sel
// (in order) whose rows pass one conjunct. It may write the result into
// sel's backing array — callers pass a scratch selection they own.
type selKernel func(rows []types.Row, sel []int) []int

// compileFilterKernels compiles a predicate into a kernel per conjunct.
// ok=false means the expression is not kernelizable and the caller must
// use the compiled row closure instead.
func compileFilterKernels(e core.Expr, in *schema.Schema) ([]selKernel, bool) {
	switch x := e.(type) {
	case *core.And:
		var out []selKernel
		for _, op := range x.Ops {
			ks, ok := compileFilterKernels(op, in)
			if !ok {
				return nil, false
			}
			out = append(out, ks...)
		}
		return out, true
	case *core.Cmp:
		k, ok := compileCmpKernel(x, in)
		if !ok {
			return nil, false
		}
		return []selKernel{k}, true
	default:
		return nil, false
	}
}

// filter is a compiled WHERE and the selection it narrows: vector
// kernels when the condition kernelizes, the compiled row predicate
// otherwise, and a scratch selection vector taken from the execution's
// arena on first use and rewritten per window. The iterator tree's
// bFilter and the segment program's Select both narrow through it.
type filter struct {
	kernels []selKernel
	pred    func(types.Row, *Context) (bool, error)
	sel     []int
	rows    int // the most rows a window holds: the scratch's size
}

// compileFilter compiles cond over in, for windows of up to rows rows.
// The row predicate is compiled only when the condition does not
// kernelize; a kernelizable condition always compiles, so any compile
// error is the predicate's.
func compileFilter(cond core.Expr, in *schema.Schema, env compileEnv, rows int) (filter, error) {
	if ks, ok := compileFilterKernels(cond, in); ok && len(ks) > 0 {
		return filter{kernels: ks, rows: rows}, nil
	}
	pred, err := compilePredicate(cond, in, env)
	return filter{pred: pred, rows: rows}, err
}

// live returns the indexes of b's live rows, copied into the scratch,
// which the kernels narrow in place.
func (f *filter) live(b *Batch, a *arena) []int {
	if f.sel == nil {
		f.sel = a.sel(f.rows)
	}
	if b.Sel != nil {
		return append(f.sel[:0], b.Sel...)
	}
	return identitySel(f.sel, len(b.Rows))
}

// narrow leaves in f.sel the live rows of b that pass the condition, in
// order. The row predicate runs row by row, so its error is the first
// failing row's.
func (f *filter) narrow(b *Batch, ctx *Context) error {
	sel := f.live(b, ctx.arena)
	if f.kernels != nil {
		f.sel = runKernels(f.kernels, b.Rows, sel)
		return nil
	}
	kept := sel[:0]
	for _, i := range sel {
		pass, err := f.pred(b.Rows[i], ctx)
		if err != nil {
			return err
		}
		if pass {
			kept = append(kept, i)
		}
	}
	f.sel = kept
	return nil
}

// cmpTest returns the comparison-outcome test for an operator.
func cmpTest(op string) (func(int) bool, bool) {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }, true
	case "<>", "!=":
		return func(c int) bool { return c != 0 }, true
	case "<":
		return func(c int) bool { return c < 0 }, true
	case "<=":
		return func(c int) bool { return c <= 0 }, true
	case ">":
		return func(c int) bool { return c > 0 }, true
	case ">=":
		return func(c int) bool { return c >= 0 }, true
	default:
		return nil, false
	}
}

// compileCmpKernel builds the kernel for one comparison whose operands
// are column refs or literals. types.Compare returning ok=false is SQL
// Unknown (a NULL operand or incomparable kinds), which rejects.
func compileCmpKernel(x *core.Cmp, in *schema.Schema) (selKernel, bool) {
	test, ok := cmpTest(x.Op)
	if !ok {
		return nil, false
	}
	lo, lv, lok := kernelOperand(x.L, in)
	ro, rv, rok := kernelOperand(x.R, in)
	if !lok || !rok {
		return nil, false
	}
	switch {
	case lo >= 0 && ro >= 0: // column <op> column
		return func(rows []types.Row, sel []int) []int {
			out := sel[:0]
			for _, i := range sel {
				if c, ok := types.Compare(rows[i][lo], rows[i][ro]); ok && test(c) {
					out = append(out, i)
				}
			}
			return out
		}, true
	case lo >= 0: // column <op> literal
		mask := outcomeMask(test, false)
		return func(rows []types.Row, sel []int) []int { return selectCmpConst(rows, sel, lo, rv, mask) }, true
	case ro >= 0: // literal <op> column
		mask := outcomeMask(test, true)
		return func(rows []types.Row, sel []int) []int { return selectCmpConst(rows, sel, ro, lv, mask) }, true
	default: // literal <op> literal: decided once, keep all or none
		keep := false
		if c, ok := types.Compare(lv, rv); ok && test(c) {
			keep = true
		}
		return func(rows []types.Row, sel []int) []int {
			if keep {
				return sel
			}
			return sel[:0]
		}, true
	}
}

// kernelOperand classifies a comparison operand: (ordinal, _, true) for
// a resolvable column ref, (-1, value, true) for a literal, ok=false
// otherwise.
func kernelOperand(e core.Expr, in *schema.Schema) (int, types.Value, bool) {
	switch x := e.(type) {
	case *core.ColRef:
		ord, err := in.Resolve(x.Table, x.Name)
		if err != nil {
			return -1, types.Null, false
		}
		return ord, types.Null, true
	case *core.Lit:
		return -1, x.V, true
	}
	return -1, types.Null, false
}

// runKernels applies every kernel in sequence, narrowing sel.
func runKernels(kernels []selKernel, rows []types.Row, sel []int) []int {
	for _, k := range kernels {
		if len(sel) == 0 {
			return sel
		}
		sel = k(rows, sel)
	}
	return sel
}

// outcomeMask encodes a comparison test as the outcomes it accepts:
// bit c+1 is set when test passes result c (-1, 0 or 1). flip gives the
// mask of the comparison with its operands swapped.
func outcomeMask(test func(int) bool, flip bool) (m uint8) {
	for c := -1; c <= 1; c++ {
		if flip && test(-c) || !flip && test(c) {
			m |= 1 << (c + 1)
		}
	}
	return m
}

// selectCmpConst narrows sel, in place, to the rows whose column ord
// compares with c to an outcome mask accepts (outcomeMask): the
// column-against-constant kernel. An INT against an INT constant, and a
// FLOAT against a FLOAT constant, neither NaN, compare inline; any other
// pair goes through types.Compare, whose Unknown rejects.
func selectCmpConst(rows []types.Row, sel []int, ord int, c types.Value, mask uint8) []int {
	out := sel[:0]
	if c.IsNull() {
		return out
	}
	fast := c.K == types.KindInt || c.K == types.KindFloat && !math.IsNaN(c.F)
	for _, i := range sel {
		v := &rows[i][ord]
		r, ok := 0, true
		switch {
		case !fast || v.K != c.K:
			r, ok = types.Compare(*v, c)
		case v.K == types.KindInt:
			r = cmp.Compare(v.I, c.I)
		case !math.IsNaN(v.F):
			r = cmp.Compare(v.F, c.F)
		default:
			r, ok = types.Compare(*v, c)
		}
		if ok && mask>>(r+1)&1 != 0 {
			out = append(out, i)
		}
	}
	return out
}
