package exec

import (
	"fmt"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
)

// Build compiles a logical plan into an iterator tree bound to ctx.
// Physical choices honor the hints the optimizer set on the logical
// nodes (join method, GApply partition strategy), defaulting sensibly.
func Build(n core.Node, ctx *Context) (Iterator, error) {
	return build(n, ctx, nil)
}

// build compiles one node (and, recursively, its subtree). When the
// context carries a Profile, every compiled iterator is wrapped in an
// instrumented probe keyed by its plan node; with a nil Profile the
// iterators are returned bare, so disabled instrumentation costs
// nothing at execution time.
//
// When the node is a registered invariant root of the enclosing GApply's
// inner plan, the (probe-wrapped) iterator is additionally wrapped in a
// spool sharing the registry's holder. The spool goes outside the probe
// on purpose: replays then bypass the subtree's instrumentation, so
// EXPLAIN ANALYZE reports the one real execution (loops=1) at every
// degree of parallelism.
func build(n core.Node, ctx *Context, env compileEnv) (Iterator, error) {
	it, err := buildNode(n, ctx, env)
	if err != nil {
		return nil, err
	}
	if ctx.Prof != nil {
		it = ctx.Prof.wrap(n, it)
	}
	if ctx.spools != nil {
		if h, ok := ctx.spools.holders[n]; ok {
			it = &spool{inner: it, node: n, h: h, ctx: ctx}
		}
	}
	return it, nil
}

func buildNode(n core.Node, ctx *Context, env compileEnv) (Iterator, error) {
	switch x := n.(type) {
	case *core.Scan:
		tab, err := ctx.Catalog.Lookup(x.Table)
		if err != nil {
			return nil, err
		}
		return &tableScan{table: tab, ctx: ctx}, nil

	case *core.IndexScan:
		if err := checkIndexScan(x, ctx); err != nil {
			return nil, err
		}
		return &indexScan{indexCursor{plan: x, ctx: ctx}}, nil

	case *core.GroupScan:
		return &groupScan{varName: x.Var, ctx: ctx}, nil

	case *core.Select:
		in, err := build(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		pred, err := compilePredicate(x.Cond, x.Input.Schema(), env)
		if err != nil {
			return nil, err
		}
		return &filter{input: in, pred: pred, ctx: ctx}, nil

	case *core.Project:
		in, err := build(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		// Fast path: a pure column projection compiles to an ordinal
		// copy instead of per-expression closures. The optimizer's
		// projection-before-GApply and invariant-grouping rules insert
		// exactly this shape on hot paths.
		inSchema := x.Input.Schema()
		ords := make([]int, 0, len(x.Exprs))
		pure := true
		for _, e := range x.Exprs {
			c, ok := e.(*core.ColRef)
			if !ok {
				pure = false
				break
			}
			ord, err := inSchema.Resolve(c.Table, c.Name)
			if err != nil {
				pure = false
				break
			}
			ords = append(ords, ord)
		}
		if pure {
			return &projectCols{input: in, ords: ords}, nil
		}
		fns, err := compileAll(x.Exprs, inSchema, env)
		if err != nil {
			return nil, err
		}
		return &project{input: in, exprs: fns, ctx: ctx}, nil

	case *core.Distinct:
		in, err := build(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		return &distinct{input: in}, nil

	case *core.Join:
		return buildJoin(x, ctx, env)

	case *core.GroupBy:
		return buildGroupBy(x, ctx, env)

	case *core.AggOp:
		return buildScalarAgg(x, ctx, env)

	case *core.OrderBy:
		if x.Elided {
			// The optimizer proved the input provides exactly this
			// ordering; the node compiles to a pass-through. Its probe
			// wrapper (in build) still counts rows, so EXPLAIN ANALYZE
			// keeps the operator's line with sort work elided.
			return build(x.Input, ctx, env)
		}
		in, err := build(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		keys, err := compileOrderKeys(x.Keys, x.Input.Schema(), env)
		if err != nil {
			return nil, err
		}
		return &sortIter{input: in, keys: keys, ctx: ctx}, nil

	case *core.UnionAll:
		// All inputs must have the same arity; the binder checks this,
		// and the executor re-checks cheaply here.
		arity := x.Inputs[0].Schema().Len()
		ins := make([]Iterator, len(x.Inputs))
		for i, c := range x.Inputs {
			if c.Schema().Len() != arity {
				return nil, fmt.Errorf("exec: union input %d has %d columns, want %d", i, c.Schema().Len(), arity)
			}
			it, err := build(c, ctx, env)
			if err != nil {
				return nil, err
			}
			ins[i] = it
		}
		return &unionAll{inputs: ins}, nil

	case *core.Apply:
		return buildApply(x, ctx, env)

	case *core.Exists:
		in, err := build(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		return &exists{input: in, negated: x.Negated}, nil

	case *core.GApply:
		return buildGApply(x, ctx, env)

	default:
		return nil, fmt.Errorf("exec: unknown logical operator %T", n)
	}
}

// compiledKey is a sort key with its evaluator.
type compiledKey struct {
	fn   evalFn
	desc bool
}

func compileOrderKeys(keys []core.OrderKey, in *schema.Schema, env compileEnv) ([]compiledKey, error) {
	out := make([]compiledKey, len(keys))
	for i, k := range keys {
		fn, err := compileExpr(k.Expr, in, env)
		if err != nil {
			return nil, err
		}
		out[i] = compiledKey{fn: fn, desc: k.Desc}
	}
	return out, nil
}

// resolveCols maps column refs to ordinals in a schema.
func resolveCols(cols []*core.ColRef, in *schema.Schema) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		ord, err := in.Resolve(c.Table, c.Name)
		if err != nil {
			return nil, err
		}
		out[i] = ord
	}
	return out, nil
}
