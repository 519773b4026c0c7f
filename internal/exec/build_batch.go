package exec

import (
	"fmt"
	"slices"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// BuildBatch compiles a logical plan into a batch-iterator tree bound
// to ctx: each maximal chain of the operators segment programs run
// natively is one program (bProgram), and every other operator is an
// iterator of its own. Physical choices honor the hints the optimizer
// set on the logical nodes (join method, GApply partition strategy),
// defaulting sensibly. When the context carries a Profile every compiled
// iterator is wrapped in an instrumented probe keyed by its plan node —
// a program's by its chain root — counting rows, not batches, so
// EXPLAIN ANALYZE actuals are dop-invariant. Rows come from an arena it
// attaches to ctx.
func BuildBatch(n core.Node, ctx *Context) (BatchIterator, error) {
	ctx.attachArena()
	return buildBatch(n, ctx, compileEnv{})
}

func buildBatch(n core.Node, ctx *Context, env compileEnv) (BatchIterator, error) {
	it, _, err := buildBatchNeed(n, nil, ctx, env)
	return it, err
}

// Narrow join emission. A join copies every row it emits into its
// output slab, so emitting columns nobody reads is pure waste: the
// sorted outer union's joins emit partsupp ++ part (14 values) to a
// Project or GroupBy that reads two to five of them. The build threads
// a need down the tree instead — the ordinals of a node's output its
// consumer reads, ascending; nil means every column — and a join emits
// exactly its need.
//
//   - Project, GroupBy and AggOp originate needs: the columns their
//     expressions, group columns and aggregate arguments read (none, for
//     count(*)).
//   - A Select passes its need through plus its condition's columns. A
//     Select fused into its join adds none: the post-filter reads the
//     join's probe row, not its output.
//   - A join adds its condition's and fused post-filter's columns and
//     splits the union between its sides, so nested joins narrow too.
//   - Every other consumer reads whole rows, and so does an invariant
//     subtree's materialization: it and its byte accounting stay
//     full-width.
//
// A consumer compiles against its input's emitted schema, the full
// schema projected to the emission. Needs resolve against the full
// schema; a reference that does not resolve there (unknown or
// ambiguous) turns narrowing off for that consumer, so compile errors
// are exactly the unnarrowed build's, and a reference that does resolve
// finds the same column in the projection. Probes wrap narrowed
// iterators like any other, so unlike Select fusion narrowing does not
// depend on ctx.Prof: EXPLAIN ANALYZE measures the plan that runs.

// buildBatchNeed builds n for a consumer that reads only the columns
// need of n's schema (nil: all of them). It returns the ordinals of n's
// schema its rows carry: nil for full rows, otherwise a superset of
// need. An invariant subtree of an enclosing GApply's inner builds as a
// replay of its materialization.
func buildBatchNeed(n core.Node, need []int, ctx *Context, env compileEnv) (BatchIterator, []int, error) {
	if m := env.scope.invariant(n); m != nil {
		return &bReplay{m: m, ctx: ctx}, nil, nil
	}
	var it BatchIterator
	var emit []int
	var err error
	switch x := n.(type) {
	case *core.Join:
		it, emit, err = buildBatchJoin(x, nil, need, ctx, env)
	default:
		if native(n) {
			it, emit, err = buildProgram(n, need, ctx, env)
		} else {
			it, err = buildBatchNode(n, ctx, env)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if ctx.Prof != nil {
		it = ctx.Prof.wrapBatch(n, it)
	}
	return it, emit, nil
}

// narrowable reports whether building n for a need can narrow it: n is
// a join, or a Select over one. Needs are computed only for such
// inputs, so plans without joins build exactly as before.
func narrowable(n core.Node) bool {
	for {
		switch x := n.(type) {
		case *core.Join:
			return true
		case *core.Select:
			n = x.Input
		default:
			return false
		}
	}
}

// readNeed is the need a Project, GroupBy or AggOp originates for its
// input in: the columns exprs read, or nil when in is not narrowable
// or a reference does not resolve.
func readNeed(in core.Node, exprs ...core.Expr) []int {
	if !narrowable(in) {
		return nil
	}
	return addNeed([]int{}, in, exprs...)
}

// aggNeed is readNeed for group columns and aggregate arguments.
func aggNeed(in core.Node, cols []*core.ColRef, aggs []core.AggSpec) []int {
	if !narrowable(in) {
		return nil
	}
	read := make([]core.Expr, 0, len(cols)+len(aggs))
	for _, c := range cols {
		read = append(read, c)
	}
	for _, a := range aggs {
		read = append(read, a.Arg)
	}
	return addNeed([]int{}, in, read...)
}

// addNeed returns need extended with the columns of n's schema that
// exprs reference, ascending and without duplicates. A nil need stays
// nil (every column is needed already), and a reference that does not
// resolve turns narrowing off: the result is nil.
func addNeed(need []int, n core.Node, exprs ...core.Expr) []int {
	if need == nil {
		return nil
	}
	in := n.Schema()
	out := append(make([]int, 0, len(need)+4), need...)
	resolved := true
	visit := func(e core.Expr) {
		if c, ok := e.(*core.ColRef); ok && resolved {
			ord, err := in.Resolve(c.Table, c.Name)
			out = append(out, ord)
			resolved = err == nil
		}
	}
	for _, e := range exprs {
		if e != nil {
			e.Walk(visit)
		}
	}
	if !resolved {
		return nil
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// emitted returns the schema of rows that carry the columns emit of s.
func emitted(s *schema.Schema, emit []int) *schema.Schema {
	if emit == nil {
		return s
	}
	return s.Project(emit)
}

// fusedJoin returns the join a Select fuses into as a post-filter: its
// input, when nothing observes either node's identity — no
// per-operator probe (EXPLAIN ANALYZE) and no materialization of either
// as an invariant subtree — since the fused build bypasses the wrapping
// of both.
func fusedJoin(sel *core.Select, ctx *Context, env compileEnv) (*core.Join, bool) {
	j, ok := sel.Input.(*core.Join)
	if !ok || ctx.Prof != nil || env.scope.invariant(sel) != nil || env.scope.invariant(j) != nil {
		return nil, false
	}
	return j, true
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
		rows, err := env.scope.bound(x.Var)
		if err != nil {
			return nil, err
		}
		return &bGroupScan{rows: rows, ctx: ctx}, nil

	case *core.Distinct:
		in, err := buildBatch(x.Input, ctx, env)
		if err != nil {
			return nil, err
		}
		cols := make([]int, x.Input.Schema().Len())
		for i := range cols {
			cols[i] = i
		}
		return &bDistinct{input: in, cols: cols}, nil

	case *core.GroupBy:
		in, emit, err := buildBatchNeed(x.Input, aggNeed(x.Input, x.GroupCols, x.Aggs), ctx, env)
		if err != nil {
			return nil, err
		}
		inSchema := emitted(x.Input.Schema(), emit)
		ords, err := resolveCols(x.GroupCols, inSchema)
		if err != nil {
			return nil, err
		}
		aggs, err := compileAggs(x.Aggs, inSchema, env)
		if err != nil {
			return nil, err
		}
		return &bHashGroupBy{input: in, ords: ords, aggs: aggs, ctx: ctx, keys: types.KeyTable{Storage: ctx.arena}}, nil

	case *core.OrderBy:
		if x.Elided {
			// The optimizer proved the input provides exactly this
			// ordering; the node compiles to a pass-through. Its probe
			// wrapper still counts rows, so EXPLAIN ANALYZE keeps the
			// operator's line with sort work elided.
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
		return &bSort{input: in, keys: keys, ctx: ctx, in: chunked[types.Row]{arena: ctx.arena}}, nil

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
		return &bJoin{
			method: joinApply, left: outer, right: inner, ctx: ctx,
			outer: x.Kind == core.OuterApply, rightArity: innerArity,
			width: outerSchema.Len() + innerArity, uncorrelated: len(core.OuterRefsIn(x.Inner)) == 0,
			outBuf: joinOut{slab: rowSlab{arena: ctx.arena}},
		}, nil

	case *core.GApply:
		return buildBatchGApply(x, ctx, env)

	default:
		return nil, fmt.Errorf("exec: unknown logical operator %T", n)
	}
}

// buildBatchJoin compiles a join that emits need (ordinals of j's
// schema; nil for all of them) and returns its emission, as
// buildBatchNeed does. postCond, when non-nil, is a parent Select's
// condition fused in as a post-filter (see bJoin.post). Predicates
// evaluate over the concatenation of the two input rows as built, which
// carry the emission plus the columns the condition and post-filter
// read.
func buildBatchJoin(j *core.Join, postCond core.Expr, need []int, ctx *Context, env compileEnv) (BatchIterator, []int, error) {
	lfull, rfull := j.Left.Schema(), j.Right.Schema()
	leftArity := lfull.Len()
	// A side that can narrow is told its share of the emission plus
	// what the condition and post-filter read.
	var lneed, rneed []int
	if need != nil && (narrowable(j.Left) || narrowable(j.Right)) {
		sides := addNeed(need, j, j.Cond, postCond)
		if sides == nil {
			need = nil
		} else {
			split, _ := slices.BinarySearch(sides, leftArity)
			lneed, rneed = sides[:split:split], make([]int, 0, len(sides)-split)
			for _, o := range sides[split:] {
				rneed = append(rneed, o-leftArity)
			}
		}
	}
	left, lemit, err := buildBatchNeed(j.Left, lneed, ctx, env)
	if err != nil {
		return nil, nil, err
	}
	probe, err := probedRight(j, ctx, env)
	if err != nil {
		return nil, nil, err
	}
	var right BatchIterator
	var remit []int
	if probe.plan == nil {
		if right, remit, err = buildBatchNeed(j.Right, rneed, ctx, env); err != nil {
			return nil, nil, err
		}
	}
	ls, rs := emitted(lfull, lemit), emitted(rfull, remit)
	inSchema := ls.Concat(rs)
	pred, err := compilePredicate(j.Cond, inSchema, env)
	if err != nil {
		return nil, nil, err
	}
	var post func(types.Row, *Context) (bool, error)
	if postCond != nil {
		post, err = compilePredicate(postCond, inSchema, env)
		if err != nil {
			return nil, nil, err
		}
	}
	b := &bJoin{
		method: joinLoops, left: left, right: right, pred: pred, post: post, ctx: ctx,
		outer: j.Kind == core.LeftOuterJoin, rightArity: rs.Len(), width: inSchema.Len(),
		outBuf: joinOut{slab: rowSlab{arena: ctx.arena}},
	}
	if need != nil {
		ords := make([]int, len(need))
		split, _ := slices.BinarySearch(need, leftArity)
		for i, o := range need {
			if i < split {
				ords[i] = emittedOrd(lemit, o)
			} else {
				ords[i] = emittedOrd(remit, o-leftArity)
			}
		}
		b.outBuf.left, b.outBuf.right = ords[:split:split], ords[split:]
	}
	pairs := j.EquiPairs()
	method := j.Method
	if method == core.JoinAuto {
		method = core.JoinHash
	}
	if len(pairs) == 0 || method == core.JoinNestedLoops {
		return b, need, nil
	}
	resolve := func(p core.EquiPair) (int, int, error) {
		lo, err := ls.Resolve(p.Left.Table, p.Left.Name)
		if err != nil {
			return 0, 0, err
		}
		ro, err := rs.Resolve(p.Right.Table, p.Right.Name)
		return lo, ro, err
	}
	// When every conjunct of the join condition is one of the extracted
	// equi-pairs, a hash or merge match already guarantees the whole
	// predicate. The hash kernel confirms every hit column by column
	// with Identical, which on non-NULL values is exactly Compare
	// equality (cross-type numerics, -0.0 and NaN included), and join
	// mode never matches a NULL; the order-key encoding an equal range
	// compares is canonical over value equality. A match cannot fail the
	// condition, so drop the residual and let the probe emit whole
	// matches in a tight loop.
	if len(core.ConjunctsOf(j.Cond)) == len(pairs) {
		b.pred = nil
	}
	if method == core.JoinMerge && len(pairs) == 1 {
		b.method = joinMerge
		b.merge.probe = probe
		if b.merge.leftOrd, b.merge.rightOrd, err = resolve(pairs[0]); err != nil {
			return nil, nil, err
		}
		return b, need, nil
	}
	b.method = joinHash
	b.hash.keys = types.KeyTable{Join: true, Storage: ctx.arena}
	b.hash.leftOrds, b.hash.rightOrds = make([]int, len(pairs)), make([]int, len(pairs))
	for i, p := range pairs {
		if b.hash.leftOrds[i], b.hash.rightOrds[i], err = resolve(p); err != nil {
			return nil, nil, err
		}
	}
	return b, need, nil
}

// emittedOrd maps ordinal o of a node's full schema to its position in
// rows that carry the columns emit (nil: every column). o is in emit.
func emittedOrd(emit []int, o int) int {
	if emit == nil {
		return o
	}
	i, _ := slices.BinarySearch(emit, o)
	return i
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
	ga := &bgapply{
		outer:     outer,
		plan:      g,
		env:       env,
		ctx:       ctx,
		ords:      ords,
		streaming: core.GApplyOuterOrdered(g),
		out:       joinOut{left: ords, slab: rowSlab{arena: ctx.arena}},
	}
	ga.cut.outer = outer
	if p, ok := outer.(*batchProbe); ok && ga.streaming {
		outer = p.inner
	}
	if s, ok := outer.(*bSort); ok && ga.streaming {
		// An enforcer sort materializes the outer: it charges the budget.
		s.charge, ga.cut.charged = g, true
	}
	var roots []core.Node
	roots, ga.correlated = core.InvariantRoots(g.Inner)
	for _, n := range roots {
		ictx := ctx.fork()
		it, err := buildBatch(n, ictx, env)
		if err != nil {
			return nil, err
		}
		ga.invs = append(ga.invs, &invariant{node: n, it: it, ctx: ictx})
	}
	if ga.exec, err = ga.buildExec(ctx); err != nil {
		return nil, err
	}
	if ctx.hosted != nil {
		ctx.hosted[g] = ga.exec.hosted()
	}
	return ga, nil
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
