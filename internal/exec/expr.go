package exec

import (
	"fmt"
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// evalFn evaluates a compiled expression against an input row.
type evalFn func(row types.Row, ctx *Context) (types.Value, error)

// compileEnv is what a plan compiles against besides its input schema:
// the stack of enclosing Apply outer schemas, innermost last, against
// which OuterRefs resolve to a (depth, ordinal), and the scope of the
// innermost enclosing GApply, which binds group variables.
type compileEnv struct {
	outer []*schema.Schema
	scope *scope
}

// push returns the env extended with one more outer schema.
func (e compileEnv) push(s *schema.Schema) compileEnv {
	e.outer = append(e.outer[:len(e.outer):len(e.outer)], s)
	return e
}

// compileExpr compiles a scalar expression against an input schema.
func compileExpr(e core.Expr, in *schema.Schema, env compileEnv) (evalFn, error) {
	switch x := e.(type) {
	case *core.ColRef:
		ord, err := in.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return func(row types.Row, _ *Context) (types.Value, error) {
			return row[ord], nil
		}, nil

	case *core.OuterRef:
		// Resolve from the innermost enclosing outer schema out.
		for depth := 0; depth < len(env.outer); depth++ {
			sch := env.outer[len(env.outer)-1-depth]
			if ord, err := sch.Resolve(x.Table, x.Name); err == nil {
				d := depth
				return func(_ types.Row, ctx *Context) (types.Value, error) {
					return ctx.outerAt(d)[ord], nil
				}, nil
			}
		}
		return nil, fmt.Errorf("exec: outer reference %s does not resolve in any enclosing scope", x)

	case *core.Lit:
		v := x.V
		return func(types.Row, *Context) (types.Value, error) { return v, nil }, nil

	case *core.BinOp:
		// Column and literal operands are read in place, without a call;
		// they cannot fail to compile, so the operator is the first error.
		lo, lv, lok := kernelOperand(x.L, in)
		ro, rv, rok := kernelOperand(x.R, in)
		if lok && rok && (lo >= 0 || ro >= 0) {
			op, err := arithOp(x.Op)
			if err != nil {
				return nil, err
			}
			switch {
			case lo >= 0 && ro >= 0:
				return func(row types.Row, _ *Context) (types.Value, error) { return op(row[lo], row[ro]) }, nil
			case lo >= 0:
				return func(row types.Row, _ *Context) (types.Value, error) { return op(row[lo], rv) }, nil
			default:
				return func(row types.Row, _ *Context) (types.Value, error) { return op(lv, row[ro]) }, nil
			}
		}
		l, err := compileExpr(x.L, in, env)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.R, in, env)
		if err != nil {
			return nil, err
		}
		op, err := arithOp(x.Op)
		if err != nil {
			return nil, err
		}
		return func(row types.Row, ctx *Context) (types.Value, error) {
			a, err := l(row, ctx)
			if err != nil {
				return types.Null, err
			}
			b, err := r(row, ctx)
			if err != nil {
				return types.Null, err
			}
			return op(a, b)
		}, nil

	case *core.Cmp:
		l, err := compileExpr(x.L, in, env)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.R, in, env)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(row types.Row, ctx *Context) (types.Value, error) {
			a, err := l(row, ctx)
			if err != nil {
				return types.Null, err
			}
			b, err := r(row, ctx)
			if err != nil {
				return types.Null, err
			}
			c, ok := types.Compare(a, b)
			if !ok {
				return types.Unknown.Value(), nil
			}
			var t types.Tri
			switch op {
			case "=":
				t = types.TriOf(c == 0)
			case "<>", "!=":
				t = types.TriOf(c != 0)
			case "<":
				t = types.TriOf(c < 0)
			case "<=":
				t = types.TriOf(c <= 0)
			case ">":
				t = types.TriOf(c > 0)
			case ">=":
				t = types.TriOf(c >= 0)
			default:
				return types.Null, fmt.Errorf("exec: unknown comparison %q", op)
			}
			return t.Value(), nil
		}, nil

	case *core.And:
		ops, err := compileAll(x.Ops, in, env)
		if err != nil {
			return nil, err
		}
		return func(row types.Row, ctx *Context) (types.Value, error) {
			acc := types.True
			for _, f := range ops {
				v, err := f(row, ctx)
				if err != nil {
					return types.Null, err
				}
				acc = acc.And(triOf(v))
				if acc == types.False {
					break
				}
			}
			return acc.Value(), nil
		}, nil

	case *core.Or:
		ops, err := compileAll(x.Ops, in, env)
		if err != nil {
			return nil, err
		}
		return func(row types.Row, ctx *Context) (types.Value, error) {
			acc := types.False
			for _, f := range ops {
				v, err := f(row, ctx)
				if err != nil {
					return types.Null, err
				}
				acc = acc.Or(triOf(v))
				if acc == types.True {
					break
				}
			}
			return acc.Value(), nil
		}, nil

	case *core.Not:
		f, err := compileExpr(x.Op, in, env)
		if err != nil {
			return nil, err
		}
		return func(row types.Row, ctx *Context) (types.Value, error) {
			v, err := f(row, ctx)
			if err != nil {
				return types.Null, err
			}
			return triOf(v).Not().Value(), nil
		}, nil

	case *core.Func:
		args, err := compileAll(x.Args, in, env)
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(x.Name) {
		case "coalesce":
			return func(row types.Row, ctx *Context) (types.Value, error) {
				for _, f := range args {
					v, err := f(row, ctx)
					if err != nil {
						return types.Null, err
					}
					if !v.IsNull() {
						return v, nil
					}
				}
				return types.Null, nil
			}, nil
		case "abs":
			if len(args) != 1 {
				return nil, fmt.Errorf("exec: abs takes one argument")
			}
			return func(row types.Row, ctx *Context) (types.Value, error) {
				v, err := args[0](row, ctx)
				if err != nil || v.IsNull() {
					return types.Null, err
				}
				switch v.K {
				case types.KindInt:
					if v.I < 0 {
						return types.NewInt(-v.I), nil
					}
					return v, nil
				case types.KindFloat:
					if v.F < 0 {
						return types.NewFloat(-v.F), nil
					}
					return v, nil
				default:
					return types.Null, fmt.Errorf("exec: abs of %s", v.K)
				}
			}, nil
		default:
			return nil, fmt.Errorf("exec: unknown function %q", x.Name)
		}

	case *core.ScalarSubquery, *core.ExistsExpr:
		return nil, fmt.Errorf("exec: un-normalized subquery reached the executor; the binder must rewrite it into Apply")

	default:
		return nil, fmt.Errorf("exec: unknown expression %T", e)
	}
}

// arithOp returns the arithmetic operator's implementation.
func arithOp(op string) (func(a, b types.Value) (types.Value, error), error) {
	switch op {
	case "+":
		return types.Add, nil
	case "-":
		return types.Sub, nil
	case "*":
		return types.Mul, nil
	case "/":
		return types.Div, nil
	}
	return nil, fmt.Errorf("exec: unknown arithmetic operator %q", op)
}

func compileAll(exprs []core.Expr, in *schema.Schema, env compileEnv) ([]evalFn, error) {
	out := make([]evalFn, len(exprs))
	for i, e := range exprs {
		f, err := compileExpr(e, in, env)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// triOf interprets a value as a predicate result.
func triOf(v types.Value) types.Tri {
	if v.IsNull() {
		return types.Unknown
	}
	return types.TriOf(v.Bool())
}

// compilePredicate wraps compileExpr for WHERE-style conditions: the
// returned function is true only when the expression is True (NULL and
// false both reject the row).
func compilePredicate(e core.Expr, in *schema.Schema, env compileEnv) (func(types.Row, *Context) (bool, error), error) {
	if e == nil {
		return func(types.Row, *Context) (bool, error) { return true, nil }, nil
	}
	if cmp, ok := e.(*core.Cmp); ok {
		if test, ok := cmpTest(cmp.Op); ok {
			return compileCmpPredicate(cmp, test, in, env)
		}
	}
	f, err := compileExpr(e, in, env)
	if err != nil {
		return nil, err
	}
	return func(row types.Row, ctx *Context) (bool, error) {
		v, err := f(row, ctx)
		if err != nil {
			return false, err
		}
		return triOf(v) == types.True, nil
	}, nil
}

// compileCmpPredicate is compilePredicate for a comparison with a known
// operator (test): it is True exactly when the operands compare and the
// outcome passes the operator, which the predicate tests directly,
// without building the comparison's Tri value, reading column and
// literal operands without a closure call. Operands compile in
// compileExpr's order, so a bad one fails with the same error.
func compileCmpPredicate(x *core.Cmp, test func(int) bool, in *schema.Schema, env compileEnv) (func(types.Row, *Context) (bool, error), error) {
	lo, lv, lok := kernelOperand(x.L, in)
	ro, rv, rok := kernelOperand(x.R, in)
	switch {
	case lok && lo >= 0 && rok && ro >= 0: // column <op> column
		return func(row types.Row, _ *Context) (bool, error) {
			c, ok := types.Compare(row[lo], row[ro])
			return ok && test(c), nil
		}, nil
	case lok && lo >= 0 && rok: // column <op> literal
		return func(row types.Row, _ *Context) (bool, error) {
			c, ok := types.Compare(row[lo], rv)
			return ok && test(c), nil
		}, nil
	case lok && rok && ro >= 0: // literal <op> column
		return func(row types.Row, _ *Context) (bool, error) {
			c, ok := types.Compare(lv, row[ro])
			return ok && test(c), nil
		}, nil
	}
	l, err := compileExpr(x.L, in, env)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(x.R, in, env)
	if err != nil {
		return nil, err
	}
	return func(row types.Row, ctx *Context) (bool, error) {
		a, err := l(row, ctx)
		if err != nil {
			return false, err
		}
		b, err := r(row, ctx)
		if err != nil {
			return false, err
		}
		c, ok := types.Compare(a, b)
		return ok && test(c), nil
	}, nil
}
