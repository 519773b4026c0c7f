package exec

import (
	"fmt"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// BuildBatch compiles a logical plan into a batch-iterator tree bound
// to ctx — the batch engine's Build. Physical choices honor the same
// optimizer hints, and probe/spool wrapping follows the same discipline
// as build: the probe sits inside the spool, so replays bypass the
// subtree's instrumentation and EXPLAIN ANALYZE actuals stay
// dop-invariant and engine-invariant (rows are counted, not batches).
func BuildBatch(n core.Node, ctx *Context) (BatchIterator, error) {
	return buildBatch(n, ctx, nil)
}

func buildBatch(n core.Node, ctx *Context, env compileEnv) (BatchIterator, error) {
	it, err := buildBatchNode(n, ctx, env)
	if err != nil {
		return nil, err
	}
	if ctx.Prof != nil {
		it = ctx.Prof.wrapBatch(n, it)
	}
	if ctx.spools != nil {
		if h, ok := ctx.spools.holders[n]; ok {
			it = &bspool{inner: it, node: n, h: h, ctx: ctx}
		}
	}
	return it, nil
}

// fusable reports whether a Select node may be fused into its parent
// Project: fusion elides the Select as a distinct operator, so it is
// only legal when nothing needs the node's identity — no per-operator
// probe (EXPLAIN ANALYZE) and no spool holder (invariant-subtree
// materialization is keyed by node).
func fusable(sel *core.Select, ctx *Context) bool {
	if ctx.Prof != nil {
		return false
	}
	if ctx.spools != nil && ctx.spools.holders[sel] != nil {
		return false
	}
	return true
}

// joinFusable reports whether a Join node may absorb its parent Select
// as a post-filter: like fusable, the join's node identity must be
// unobserved (no per-operator probe, no spool holder), since the fused
// build bypasses buildBatch's wrapping of the join node.
func joinFusable(j *core.Join, ctx *Context) bool {
	if ctx.Prof != nil {
		return false
	}
	if ctx.spools != nil && ctx.spools.holders[j] != nil {
		return false
	}
	return true
}

// pureColOrds resolves a projection list that is purely column refs to
// their input ordinals; ok=false for anything else.
func pureColOrds(exprs []core.Expr, in interface {
	Resolve(table, name string) (int, error)
}) ([]int, bool) {
	ords := make([]int, 0, len(exprs))
	for _, e := range exprs {
		c, ok := e.(*core.ColRef)
		if !ok {
			return nil, false
		}
		ord, err := in.Resolve(c.Table, c.Name)
		if err != nil {
			return nil, false
		}
		ords = append(ords, ord)
	}
	return ords, true
}

func buildBatchNode(n core.Node, ctx *Context, env compileEnv) (BatchIterator, error) {
	switch x := n.(type) {
	case *core.Scan:
		tab, err := ctx.Catalog.Lookup(x.Table)
		if err != nil {
			return nil, err
		}
		return &bScan{table: tab, ctx: ctx}, nil

	case *core.IndexScan:
		if err := checkIndexScan(x, ctx); err != nil {
			return nil, err
		}
		return &bIndexScan{indexCursor: indexCursor{plan: x, ctx: ctx}}, nil

	case *core.GroupScan:
		return &bGroupScan{varName: x.Var, ctx: ctx}, nil

	case *core.Select:
		// Select-over-Join fuses the filter into the join as a post
		// predicate: candidates are rejected on the reused probe row
		// before they are ever copied into the output slab. High-reject
		// filters directly over joins (the sorted-outer-union shape) are
		// where the copy-then-discard churn was worst.
		if j, ok := x.Input.(*core.Join); ok && fusable(x, ctx) && joinFusable(j, ctx) {
			return buildBatchJoin(j, x.Cond, ctx, env)
		}
		in, err := buildBatch(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		inSchema := x.Input.Schema()
		pred, err := compilePredicate(x.Cond, inSchema, env)
		if err != nil {
			return nil, err
		}
		f := &bFilter{input: in, pred: pred, ctx: ctx}
		if kernels, ok := compileFilterKernels(x.Cond, inSchema); ok {
			f.kernels = kernels
		}
		return f, nil

	case *core.Project:
		// Fused filter+project: when the input is a Select whose node
		// identity nothing observes, compile one operator that narrows
		// the selection and gathers the survivors in a single pass.
		if sel, ok := x.Input.(*core.Select); ok && fusable(sel, ctx) {
			// Select-over-Join below the projection: prefer pushing the
			// filter into the join (reject before copy) and projecting on
			// top over fusing filter+project above a join that copies
			// every candidate.
			if j, ok := sel.Input.(*core.Join); ok && joinFusable(j, ctx) {
				in, err := buildBatchJoin(j, sel.Cond, ctx, env)
				if err != nil {
					return nil, err
				}
				if ords, ok := pureColOrds(x.Exprs, x.Input.Schema()); ok {
					return &bProjectCols{input: in, ords: ords}, nil
				}
				fns, err := compileAll(x.Exprs, x.Input.Schema(), env)
				if err != nil {
					return nil, err
				}
				return &bProject{input: in, exprs: fns, ctx: ctx}, nil
			}
			in, err := buildBatch(sel.Input, ctx, env)
			if err != nil {
				return nil, err
			}
			selSchema := sel.Input.Schema()
			pred, err := compilePredicate(sel.Cond, selSchema, env)
			if err != nil {
				return nil, err
			}
			fu := &bFused{input: in, pred: pred, ctx: ctx}
			if kernels, ok := compileFilterKernels(sel.Cond, selSchema); ok {
				fu.kernels = kernels
			}
			// The projection compiles against the Select's output schema,
			// which row-for-row is the Select input's schema.
			if ords, ok := pureColOrds(x.Exprs, x.Input.Schema()); ok {
				fu.ords = ords
				return fu, nil
			}
			fns, err := compileAll(x.Exprs, x.Input.Schema(), env)
			if err != nil {
				return nil, err
			}
			fu.exprs = fns
			return fu, nil
		}
		in, err := buildBatch(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		if ords, ok := pureColOrds(x.Exprs, x.Input.Schema()); ok {
			return &bProjectCols{input: in, ords: ords}, nil
		}
		fns, err := compileAll(x.Exprs, x.Input.Schema(), env)
		if err != nil {
			return nil, err
		}
		return &bProject{input: in, exprs: fns, ctx: ctx}, nil

	case *core.Distinct:
		in, err := buildBatch(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		return &bDistinct{input: in}, nil

	case *core.Join:
		return buildBatchJoin(x, nil, ctx, env)

	case *core.GroupBy:
		in, err := buildBatch(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		inSchema := x.Input.Schema()
		ords, err := resolveCols(x.GroupCols, inSchema)
		if err != nil {
			return nil, err
		}
		aggs, err := compileAggs(x.Aggs, inSchema, env)
		if err != nil {
			return nil, err
		}
		return &bHashGroupBy{input: in, ords: ords, aggs: aggs, ctx: ctx}, nil

	case *core.AggOp:
		in, err := buildBatch(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		aggs, err := compileAggs(x.Aggs, x.Input.Schema(), env)
		if err != nil {
			return nil, err
		}
		return &bScalarAgg{input: in, aggs: aggs, ctx: ctx}, nil

	case *core.OrderBy:
		if x.Elided {
			// Pass-through, mirroring build: the input already provides
			// this exact ordering, the probe wrapper keeps the operator's
			// EXPLAIN ANALYZE line.
			return buildBatch(x.Input, ctx, env)
		}
		in, err := buildBatch(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		keys, err := compileOrderKeys(x.Keys, x.Input.Schema(), env)
		if err != nil {
			return nil, err
		}
		return &bSort{input: in, keys: keys, ctx: ctx}, nil

	case *core.UnionAll:
		arity := x.Inputs[0].Schema().Len()
		ins := make([]BatchIterator, len(x.Inputs))
		for i, c := range x.Inputs {
			if c.Schema().Len() != arity {
				return nil, fmt.Errorf("exec: union input %d has %d columns, want %d", i, c.Schema().Len(), arity)
			}
			it, err := buildBatch(c, ctx, env)
			if err != nil {
				return nil, err
			}
			ins[i] = it
		}
		return &bUnionAll{inputs: ins}, nil

	case *core.Apply:
		outer, err := buildBatch(x.Outer, ctx, env)
		if err != nil {
			return nil, err
		}
		outerSchema := x.Outer.Schema()
		inner, err := buildBatch(x.Inner, ctx, env.push(outerSchema))
		if err != nil {
			return nil, err
		}
		innerArity := x.Inner.Schema().Len()
		return &bApply{
			outer:        outer,
			inner:        inner,
			ctx:          ctx,
			outerApply:   x.Kind == core.OuterApply,
			innerArity:   innerArity,
			width:        outerSchema.Len() + innerArity,
			uncorrelated: len(core.OuterRefsIn(x.Inner)) == 0,
		}, nil

	case *core.Exists:
		in, err := buildBatch(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		return &bExists{input: in, negated: x.Negated}, nil

	case *core.GApply:
		return buildBatchGApply(x, ctx, env)

	default:
		return nil, fmt.Errorf("exec: unknown logical operator %T", n)
	}
}

// buildBatchJoin compiles a join; postCond, when non-nil, is a parent
// Select's condition fused in as a post-filter over the join's output
// schema (see bHashJoin.post).
func buildBatchJoin(j *core.Join, postCond core.Expr, ctx *Context, env compileEnv) (BatchIterator, error) {
	left, err := buildBatch(j.Left, ctx, env)
	if err != nil {
		return nil, err
	}
	probe, err := probedRight(j, ctx)
	if err != nil {
		return nil, err
	}
	var right BatchIterator
	if probe == nil {
		if right, err = buildBatch(j.Right, ctx, env); err != nil {
			return nil, err
		}
	}
	outSchema := j.Schema()
	pred, err := compilePredicate(j.Cond, outSchema, env)
	if err != nil {
		return nil, err
	}
	var post func(types.Row, *Context) (bool, error)
	if postCond != nil {
		post, err = compilePredicate(postCond, outSchema, env)
		if err != nil {
			return nil, err
		}
	}
	pairs := j.EquiPairs()
	method := j.Method
	if method == core.JoinAuto {
		if len(pairs) > 0 {
			method = core.JoinHash
		} else {
			method = core.JoinNestedLoops
		}
	}
	leftArity := j.Left.Schema().Len()
	rightArity := j.Right.Schema().Len()
	if method == core.JoinMerge && len(pairs) == 1 {
		ls, rs := j.Left.Schema(), j.Right.Schema()
		lo, err := ls.Resolve(pairs[0].Left.Table, pairs[0].Left.Name)
		if err != nil {
			return nil, err
		}
		ro, err := rs.Resolve(pairs[0].Right.Table, pairs[0].Right.Name)
		if err != nil {
			return nil, err
		}
		// Same residual-free proof as the hash path below: the order-key
		// encoding is canonical over value equality, so an equal-range hit
		// cannot fail a condition the equi-pair fully covers.
		if len(core.ConjunctsOf(j.Cond)) == len(pairs) {
			pred = nil
		}
		return &bMergeJoin{
			left: left, right: right, probe: probe, pred: pred, post: post, ctx: ctx,
			leftOrd: lo, rightOrd: ro,
			outerJoin: j.Kind == core.LeftOuterJoin, rightArity: rightArity,
			width: leftArity + rightArity,
		}, nil
	}
	if (method == core.JoinHash || method == core.JoinMerge) && len(pairs) > 0 {
		leftOrds := make([]int, len(pairs))
		rightOrds := make([]int, len(pairs))
		ls, rs := j.Left.Schema(), j.Right.Schema()
		for i, p := range pairs {
			lo, err := ls.Resolve(p.Left.Table, p.Left.Name)
			if err != nil {
				return nil, err
			}
			ro, err := rs.Resolve(p.Right.Table, p.Right.Name)
			if err != nil {
				return nil, err
			}
			leftOrds[i], rightOrds[i] = lo, ro
		}
		// When every conjunct of the join condition is one of the
		// extracted equi-pairs, the hash probe already guarantees the
		// whole predicate: the key encoding is canonical (key equality is
		// exactly Compare equality, including cross-type numerics, -0.0
		// and NaN), so a bucket hit cannot fail the condition. Drop the
		// residual and let the probe emit whole buckets in a tight loop.
		if len(core.ConjunctsOf(j.Cond)) == len(pairs) {
			pred = nil
		}
		return &bHashJoin{
			left: left, right: right, pred: pred, post: post, ctx: ctx,
			leftOrds: leftOrds, rightOrds: rightOrds,
			outerJoin: j.Kind == core.LeftOuterJoin, rightArity: rightArity,
			width: leftArity + rightArity,
		}, nil
	}
	return &bNLJoin{
		left: left, right: right, pred: pred, post: post, ctx: ctx,
		outerJoin: j.Kind == core.LeftOuterJoin, rightArity: rightArity,
		width: leftArity + rightArity,
	}, nil
}

func buildBatchGApply(g *core.GApply, ctx *Context, env compileEnv) (BatchIterator, error) {
	outer, err := buildBatch(g.Outer, ctx, env)
	if err != nil {
		return nil, err
	}
	ords, err := resolveCols(g.GroupCols, g.Outer.Schema())
	if err != nil {
		return nil, err
	}
	var spools *spoolRegistry
	if !ctx.NoSpool {
		if roots := core.InvariantRoots(g.Inner); len(roots) > 0 {
			spools = newSpoolRegistry(roots)
		}
	}
	prevSpools := ctx.spools
	ctx.spools = spools
	inner, err := buildBatch(g.Inner, ctx, env)
	ctx.spools = prevSpools
	if err != nil {
		return nil, err
	}
	return &bgapply{
		outer:      outer,
		inner:      inner,
		spools:     spools,
		innerPlan:  g.Inner,
		plan:       g,
		innerArity: g.Inner.Schema().Len(),
		env:        env,
		ctx:        ctx,
		ords:       ords,
		groupVar:   g.GroupVar,
		sortPart:   g.Partition == core.PartitionSort,
		ordered:    core.GApplyOuterOrdered(g),
		correlated: len(core.OuterRefsIn(g.Inner)) > 0,
	}, nil
}
