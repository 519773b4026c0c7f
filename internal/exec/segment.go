package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Segment programs. A segment program is the one implementation of the
// operators the publishing workload's queries are built from —
// projections, filters, scalar aggregates (DISTINCT included), UNION
// ALL, Exists, and a cross Apply whose inner yields at most one row and
// holds no OuterRef — compiled from a chain of them into one loop that
// moves a window of up to batchSize rows per call. One compiler
// (segProgram.compile) builds it, and it has two sinks:
//
//   - A GApply's per-group query is a program over the group's run. The
//     partition phase leaves every group as one contiguous run of rows,
//     and the GApply pushes each group through the program whole (eval),
//     its output prefixed with the grouping columns and written into the
//     GApply's output slab, so on groups of a few rows nothing is opened
//     or allocated per group.
//   - Anywhere else in the iterator tree a maximal chain of these
//     operators is a program run by bProgram, a BatchIterator that pulls
//     the program's root a window at a time.
//
// A filter narrows the window's selection vector, a scalar aggregate
// folds whole windows (accum.fold), and a projection at the root writes
// its rows straight into the sink's storage. An Apply binds its
// scalar's columns as parameters — per evaluation, for a GApply per
// group — instead of widening every outer row, and a filter comparing a
// column with a literal, or an expression over parameters and literals,
// evaluates it once per window and runs a column-against-constant
// kernel. Rows are widened, parameters appended, only where a consumer
// needs them whole: a union input, the root, or an expression reading
// parameters row by row.
//
// Any other operator is hosted (segHost): buildBatch compiles it, and
// everything under it, into the iterator tree, which the program
// re-opens per evaluation, its GroupScans bound at compile time to the
// group the enclosing program evaluates (scope). An invariant subtree of
// a GApply's inner — no GroupScan, no OuterRef — is materialized once
// per GApply Open and replayed for every group (invariant, bReplay).
//
// The windows are fixed by the plan alone — a filter, projection or
// Apply takes a whole window before its consumer sees a row, an Apply
// evaluates its inner after its outer's first window and regathers outer
// rows into full windows, a scalar aggregate drains its input and an
// Exists reads its input's first window when opened, a union opens each
// input when the previous one ends — so the first error, the counters
// and EXPLAIN ANALYZE's rows and opens do not depend on the sink or the
// dop (TestSegmentCountersGolden). Under a Profile every native node is
// credited the Rows and Opens a probe would record and no time of its
// own: a bProgram's probe times the chain as its root's, and a GApply's
// inner root is credited the program's wall time (run). Native nodes
// take their scratch from the execution's arena when first needed and
// rewrite it per window.

// scope is what a GApply's program binds for the plans compiled in its
// inner: its group variable, read from group, the group the program
// evaluates, and the materializations of its inner's invariant
// subtrees; up is the enclosing GApply's scope. rootStats is the inner
// root's profile cell, which run times (nil when not profiling, or when
// a hosted root's own probe times it).
type scope struct {
	groupVar  string
	group     []types.Row
	invs      []*invariant
	up        *scope
	rootStats *NodeStats
}

// bound returns the group a GroupScan of name reads.
func (s *scope) bound(name string) (*[]types.Row, error) {
	for ; s != nil; s = s.up {
		if strings.EqualFold(s.groupVar, name) {
			return &s.group, nil
		}
	}
	return nil, fmt.Errorf("exec: group variable %q is not bound", name)
}

// invariant returns n's materialization when n is an invariant subtree
// of an enclosing GApply's inner, else nil.
func (s *scope) invariant(n core.Node) *invariant {
	for ; s != nil; s = s.up {
		for _, m := range s.invs {
			if m.node == n {
				return m
			}
		}
	}
	return nil
}

// segProgram is a compiled chain of native operators on one Context: a
// GApply's per-group query, on the serial phase's Context or a parallel
// worker's, or a chain bProgram runs.
type segProgram struct {
	root   segNode
	ctx    *Context
	params types.Row // the Applies' scalars, one slot per column
	scope  *scope    // a GApply's: it holds the group being evaluated
	hosts  segHost   // the hosted subtrees, in plan order, linked through sib
}

// segCompiler is a program being compiled: the env its plans compile
// in, the chain root a bProgram's probe counts — which gets no profile
// cell of its own — and whether the plan may hold OuterRefs, so that an
// Apply is native only if its own inner holds none.
type segCompiler struct {
	*segProgram
	env        compileEnv
	probed     core.Node
	correlated bool
	pre        segPre
}

// segPre is a subtree buildProgram built before compiling its chain,
// hosted where the chain reaches it: its iterator, whose rows carry
// the columns emit of the subtree's schema, sch being their schema.
type segPre struct {
	node core.Node
	it   BatchIterator
	sch  *schema.Schema
	emit []int
}

// segNode is one native operator. open prepares it for an evaluation
// over the program's current group, as Open prepares an iterator; next
// returns its next window, with at least one live row, valid until the
// following next call on the same node, or nil once it is exhausted.
type segNode interface {
	open(p *segProgram) error
	next(p *segProgram) (*Batch, error)
}

// segBase is a node's input and its profile cell (nil when not
// profiling).
type segBase struct {
	in    segNode
	stats *NodeStats
}

func (b *segBase) open(p *segProgram) error {
	if b.stats != nil {
		b.stats.Opens++
	}
	return b.in.open(p)
}

// emitted credits the node with n rows.
func (b *segBase) emitted(n int) {
	if b.stats != nil {
		b.stats.Rows += int64(n)
	}
}

// segShape describes a compiled node's windows to its consumer: the
// node's schema (nil when no consumer reads it), how many leading columns
// its rows hold — the rest are parameter slots — the most rows a window
// holds, whether rows outlive their window (group rows, the one row of
// an aggregate, and every row an iterator tree emits), and which
// ordinals of the plan node's schema the rows carry, as buildBatchNeed
// returns them (nil: every column; only a hosted join, or a filter of
// one, narrows).
type segShape struct {
	sch    *schema.Schema
	phys   int
	slots  []int
	rows   int
	stable bool
	emit   []int
}

// buildSegment compiles g's per-group query into a program over ctx.
func buildSegment(g *bgapply, ctx *Context) (*segProgram, error) {
	c := newSegCompiler(g, ctx)
	root, sh, err := c.compile(g.plan.Inner, false, nil)
	if err != nil {
		return nil, err
	}
	return c.finish(root, sh), nil
}

// newSegCompiler starts g's program over ctx, its scope binding g's
// group variable to the group the program evaluates.
func newSegCompiler(g *bgapply, ctx *Context) segCompiler {
	sc := &scope{groupVar: g.plan.GroupVar, invs: g.invs, up: g.env.scope, rootStats: segStats(g.plan.Inner, ctx)}
	p := &segProgram{ctx: ctx, scope: sc}
	return segCompiler{segProgram: p, env: compileEnv{outer: g.env.outer, scope: sc}, correlated: g.correlated}
}

// finish makes root, whose windows sh describes, the program's root. A
// hosted root's own probe times it.
func (c *segCompiler) finish(root segNode, sh segShape) *segProgram {
	if _, hosted := root.(*segHost); hosted {
		c.scope.rootStats = nil
	}
	c.root, _ = c.whole(root, sh)
	return c.segProgram
}

// segStats is n's profile cell under ctx, or nil when not profiling.
func segStats(n core.Node, ctx *Context) *NodeStats {
	if ctx.Prof == nil {
		return nil
	}
	return ctx.Prof.node(n)
}

// native reports whether n is one of the operators programs run
// natively, so buildBatch compiles it, and the chain under it, as a
// program.
func native(n core.Node) bool {
	switch x := n.(type) {
	case *core.Select, *core.Project, *core.AggOp, *core.UnionAll, *core.Exists:
		return true
	case *core.Apply:
		return nativeApply(x, true)
	}
	return false
}

// nativeApply reports whether a program runs x natively: a cross Apply
// whose inner yields at most one row and, when the plan compiled may be
// correlated, holds no OuterRef. Any other Apply is hosted: a bJoin
// of the apply method.
func nativeApply(x *core.Apply, correlated bool) bool {
	return x.Kind == core.CrossApply && atMostOneRow(x.Inner) && !(correlated && len(core.OuterRefsIn(x.Inner)) > 0)
}

// compile compiles n for a consumer that reads the columns need of its
// schema (nil: all of them), as buildBatchNeed threads needs, deriving
// n's schema from its input's only when want says the consumer reads
// it. An invariant subtree, and a node the program has no native node
// for, is hosted.
func (c *segCompiler) compile(n core.Node, want bool, need []int) (segNode, segShape, error) {
	if c.env.scope.invariant(n) != nil {
		return c.host(n, nil)
	}
	if n == c.pre.node {
		return c.hostIt(c.pre.it, n, c.pre.sch, c.pre.emit)
	}
	stats := segStats(n, c.ctx)
	if n == c.probed {
		stats = nil
	}
	var in segNode
	var sh segShape
	var err error
	switch x := n.(type) {
	case *core.GroupScan:
		rows, err := c.env.scope.bound(x.Var)
		sh := segShape{sch: x.Sch, rows: batchSize, stable: true}
		if x.Sch != nil {
			sh.phys = x.Sch.Len()
		}
		return &segScan{segBase: segBase{stats: stats}, rows: rows}, sh, err

	case *core.Select:
		// Select-over-Join fuses the filter into the join as a post
		// predicate: candidates are rejected on the reused probe row before
		// they are ever copied into the join's output slab.
		if j, ok := fusedJoin(x, c.ctx, c.env); ok {
			it, emit, err := buildBatchJoin(j, x.Cond, need, c.ctx, c.env)
			if err != nil {
				return nil, sh, err
			}
			return c.hostIt(it, j, emitted(x.Schema(), emit), emit)
		}
		if in, sh, err = c.compile(x.Input, true, addNeed(need, x.Input, x.Cond)); err != nil {
			return nil, sh, err
		}
		s := &segSelect{segBase: segBase{in, stats}, rows: int32(sh.rows)}
		pulled(in, sh.rows)
		if ok, err := s.compileConst(x.Cond, sh, c.env); ok || err != nil {
			return s, sh, err
		}
		_, params := segReads(x.Cond, sh)
		s.in, sh = c.physical(in, sh, params)
		// The row predicate is compiled only when the condition does not
		// kernelize; a kernelizable condition always compiles.
		if ks, ok := compileFilterKernels(x.Cond, sh.sch); ok && len(ks) > 0 {
			s.kernel = ks[0]
			if len(ks) > 1 {
				s.kernel = func(rows []types.Row, sel []int) []int { return runKernels(ks, rows, sel) }
			}
		} else {
			s.pred, err = compilePredicate(x.Cond, sh.sch, c.env)
		}
		return s, sh, err

	case *core.Project:
		if in, sh, err = c.compile(x.Input, true, readNeed(x.Input, x.Exprs...)); err != nil {
			return nil, sh, err
		}
		out := segShape{phys: len(x.Exprs), rows: sh.rows}
		if want {
			out.sch = x.SchemaOver(sh.sch)
		}
		// A narrowed hosted input that emits exactly this column list, in
		// this order, already is the projection, probed as it under a
		// Profile.
		if h, ok := in.(*segHost); ok && sh.emit != nil && len(x.Exprs) == len(sh.emit) && isColumns(x.Exprs, sh.sch, nil) {
			if stats != nil {
				h.it = c.ctx.Prof.wrapBatch(x, h.it)
			}
			out.stable = true
			return in, out, nil
		}
		params := false
		for _, e := range x.Exprs {
			if _, ok := e.(*core.ColRef); !ok {
				_, pe := segReads(e, sh)
				params = params || pe
			}
		}
		in, sh = c.physical(in, sh, params)
		pulled(in, sh.rows)
		s := &segProject{segBase: segBase{in, stats}}
		if s.cols, s.lits, err = compileCols(x.Exprs, sh.sch, sh.phys, sh.slots, c.env); err != nil {
			return nil, sh, err
		}
		return s, out, nil

	case *core.AggOp:
		if in, sh, err = c.compile(x.Input, true, aggNeed(x.Input, nil, x.Aggs)); err != nil {
			return nil, sh, err
		}
		a := &segAgg{segBase: segBase{in, stats}, ords: foldOrds(x.Aggs, sh.sch, sh.phys)}
		if a.ords == nil { // compiled arguments that read parameters read whole rows
			for _, g := range x.Aggs {
				if _, params := segReads(g.Arg, sh); params {
					a.in, sh = c.physical(in, sh, true)
					break
				}
			}
			if a.aggs, err = compileAggs(x.Aggs, sh.sch, c.env); err != nil {
				return nil, sh, err
			}
		}
		pulled(a.in, sh.rows)
		// An accumulator that cannot be created fails the evaluation, not
		// the build.
		a.states, a.row = make([]accum, len(x.Aggs)), make(types.Row, len(x.Aggs))
		for i, g := range x.Aggs {
			if a.states[i], a.err = newAccum(g); a.err != nil {
				break
			}
		}
		a.one[0] = a.row
		a.out.Rows = a.one[:]
		out := segShape{phys: len(x.Aggs), rows: 1, stable: true}
		if want {
			out.sch = x.SchemaOver(sh.sch)
		}
		return a, out, nil

	case *core.Exists:
		if in, sh, err = c.compile(x.Input, false, nil); err != nil {
			return nil, sh, err
		}
		pulled(in, sh.rows)
		e := &segExists{segBase: segBase{in, stats}, negated: x.Negated}
		e.out.Rows = e.empty[:]
		return e, segShape{sch: x.Schema(), rows: 1, stable: true}, nil

	case *core.UnionAll:
		arity := segArity(x.Inputs[0])
		u := &segUnion{segBase: segBase{stats: stats}, ins: make([]segNode, len(x.Inputs))}
		out := segShape{phys: arity, stable: true}
		for i, input := range x.Inputs {
			if w := segArity(input); w != arity {
				return nil, out, fmt.Errorf("exec: union input %d has %d columns, want %d", i, w, arity)
			}
			if in, sh, err = c.compile(input, want && i == 0, nil); err != nil {
				return nil, out, err
			}
			u.ins[i], sh = c.whole(in, sh)
			if i == 0 {
				out.sch = sh.sch
			}
			out.rows, out.stable = max(out.rows, sh.rows), out.stable && sh.stable
		}
		return u, out, nil

	case *core.Apply:
		if !nativeApply(x, c.correlated) {
			break
		}
		if in, sh, err = c.compile(x.Outer, want, nil); err != nil {
			return nil, sh, err
		}
		inner, ish, err := c.compile(x.Inner, want, nil)
		if err != nil {
			return nil, ish, err
		}
		pulled(in, sh.rows)
		a := &segApply{segBase: segBase{in, stats}, inner: inner, stable: sh.stable, base: len(c.params), width: ish.phys}
		a.copies = segRows{width: sh.phys, rows: batchSize}
		out := segShape{phys: sh.phys, slots: sh.slots[:len(sh.slots):len(sh.slots)], rows: batchSize, stable: sh.stable}
		for range ish.phys {
			out.slots = append(out.slots, len(c.params))
			c.params = append(c.params, types.Null)
		}
		if want {
			out.sch = sh.sch.Concat(ish.sch)
		}
		return a, out, nil
	}
	return c.host(n, need)
}

// Hosted compiles plan over cat and returns, for every GApply in it,
// the plan nodes its program hosts as iterator trees
// (segProgram.hosted).
func Hosted(plan core.Node, cat *storage.Catalog) (map[*core.GApply][]core.Node, error) {
	ctx := NewContext(cat, new(Store))
	ctx.hosted = make(map[*core.GApply][]core.Node)
	_, err := BuildBatch(plan, ctx)
	ctx.ReleaseArena()
	return ctx.hosted, err
}

// atMostOneRow reports whether n yields at most one row per evaluation,
// whatever its input: projections over a scalar aggregate, which yields
// exactly one, or an Exists.
func atMostOneRow(n core.Node) bool {
	for {
		switch x := n.(type) {
		case *core.Project:
			n = x.Input
		case *core.AggOp, *core.Exists:
			return true
		default:
			return false
		}
	}
}

// isColumns reports whether exprs are the columns ords of sch, in
// order; nil ords stands for 0, 1, …, len(exprs)-1.
func isColumns(exprs []core.Expr, sch *schema.Schema, ords []int) bool {
	for i, e := range exprs {
		c, ok := e.(*core.ColRef)
		if !ok {
			return false
		}
		want := i
		if ords != nil {
			want = ords[i]
		}
		if ord, err := sch.Resolve(c.Table, c.Name); err != nil || ord != want {
			return false
		}
	}
	return true
}

// host compiles n into the iterator tree buildBatchNeed builds for a
// consumer reading need — or, for an invariant subtree, a replay of its
// materialization — and hosts it as one node.
func (c *segCompiler) host(n core.Node, need []int) (segNode, segShape, error) {
	it, emit, err := buildBatchNeed(n, need, c.ctx, c.env)
	if err != nil {
		return nil, segShape{}, err
	}
	return c.hostIt(it, n, emitted(n.Schema(), emit), emit)
}

// hostIt hosts it, compiled from node, whose rows carry the columns
// emit of node's schema, sch.
func (c *segCompiler) hostIt(it BatchIterator, node core.Node, sch *schema.Schema, emit []int) (segNode, segShape, error) {
	h := &c.hosts
	if h.it != nil {
		for h.sib != nil {
			h = h.sib
		}
		h.sib = new(segHost)
		h = h.sib
	}
	*h = segHost{it: it, node: node}
	return h, segShape{sch: sch, phys: sch.Len(), rows: batchSize, stable: true, emit: emit}, nil
}

// hosted returns the plan nodes the program hosts as iterator trees, in
// plan order: the nodes it has no native node for, invariant subtrees
// aside.
func (p *segProgram) hosted() []core.Node {
	var out []core.Node
	for h := &p.hosts; h != nil && h.it != nil; h = h.sib {
		if _, replay := h.it.(*bReplay); !replay {
			out = append(out, h.node)
		}
	}
	return out
}

// physical hands on in's windows with their rows at full width — their
// columns, then the parameters — when reads says a consumer reads them
// whole and sh has parameters.
func (c *segCompiler) physical(in segNode, sh segShape, reads bool) (segNode, segShape) {
	if !reads || len(sh.slots) == 0 {
		return in, sh
	}
	w, wsh := c.widen(in, sh)
	pulled(w, wsh.rows)
	return w, wsh
}

// whole hands on in's windows for a sink (eval, bProgram) or a union:
// a projection computes its rows into the sink's storage and a union
// pulls its inputs, whole themselves; any other node's rows must be at
// full width and outlive their window, else a projection of every
// column copies them.
func (c *segCompiler) whole(in segNode, sh segShape) (segNode, segShape) {
	switch in.(type) {
	case *segProject, *segUnion:
		return in, sh
	}
	if sh.stable && len(sh.slots) == 0 {
		return in, sh
	}
	return c.widen(in, sh)
}

// widen is a projection of in's every column, then its parameters.
func (c *segCompiler) widen(in segNode, sh segShape) (segNode, segShape) {
	width := sh.phys + len(sh.slots)
	w := &segProject{segBase: segBase{in: in}, cols: make([]projCol, width)}
	for i := range w.cols {
		w.cols[i] = projCol{from: fromRow, i: int32(i)}
		if i >= sh.phys {
			w.cols[i] = projCol{from: fromParam, i: int32(sh.slots[i-sh.phys])}
		}
	}
	return w, segShape{sch: sh.sch, phys: width, rows: sh.rows}
}

// pulled readies in for a consumer that pulls its windows (next) rather
// than taking its rows at a sink: a projection computes them into
// scratch of its own, of windows of up to rows rows, and so does each
// projection input of a union.
func pulled(in segNode, rows int) {
	switch x := in.(type) {
	case *segProject:
		if x.scratch == nil {
			x.scratch = &segRows{width: len(x.cols), rows: rows}
		}
	case *segUnion:
		for _, in := range x.ins {
			pulled(in, rows)
		}
	}
}

// segArity is n's output width, read off the plan without deriving its
// schema.
func segArity(n core.Node) int {
	switch x := n.(type) {
	case *core.Project:
		return len(x.Exprs)
	case *core.AggOp:
		return len(x.Aggs)
	case *core.Select:
		return segArity(x.Input)
	case *core.Apply:
		return segArity(x.Outer) + segArity(x.Inner)
	case *core.UnionAll:
		return segArity(x.Inputs[0])
	}
	return n.Schema().Len()
}

// segReads reports whether e reads columns the rows of sh's windows
// hold, and whether it reads parameters. A reference that does not
// resolve counts as a row column: compiling it reports the error.
func segReads(e core.Expr, sh segShape) (rows, params bool) {
	var ops []core.Expr
	switch x := e.(type) {
	case nil, *core.Lit:
		return false, false
	case *core.ColRef:
		ord, err := sh.sch.Resolve(x.Table, x.Name)
		params = err == nil && ord >= sh.phys
		return !params, params
	case *core.BinOp:
		ops = []core.Expr{x.L, x.R}
	case *core.Cmp:
		ops = []core.Expr{x.L, x.R}
	case *core.And:
		ops = x.Ops
	case *core.Or:
		ops = x.Ops
	case *core.Not:
		ops = []core.Expr{x.Op}
	case *core.Func:
		ops = x.Args
	default:
		return true, false
	}
	for _, op := range ops {
		r, p := segReads(op, sh)
		rows, params = rows || r, params || p
	}
	return rows, params
}

// run evaluates the program over one group, appending each output row,
// prefixed with the group's grouping columns, to out (whose left
// ordinals are the grouping columns). It always finishes the group: a
// group's output is held whole before it is emitted.
func (p *segProgram) run(group []types.Row, out *joinOut) error {
	stats := p.scope.rootStats
	if stats == nil {
		return p.eval(group, out)
	}
	start := time.Now()
	err := p.eval(group, out)
	stats.Time += time.Since(start)
	return err
}

// close closes the hosted subtrees left open.
func (p *segProgram) close() error {
	var err error
	for h := &p.hosts; h != nil && h.it != nil; h = h.sib {
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (p *segProgram) eval(group []types.Row, out *joinOut) error {
	p.scope.group = group
	if err := p.root.open(p); err != nil {
		return err
	}
	key := group[0]
	carve := func(width int) types.Row { return out.carve(key, width) }
	for {
		k, b, err := p.pull(p.root, carve)
		if err != nil || k == 0 && b == nil {
			return err
		}
		for i := 0; i < b.Len(); i++ {
			r := b.Row(i)
			copy(carve(len(r)), r)
		}
	}
}

// pull is the open node n's next window for a sink that takes rows
// width wide from carve: a projection computes its rows there and
// reports how many, a union pulls its inputs in turn, and any other node
// returns its window. 0 and nil: n is exhausted. With a nil carve every
// node returns its window, a projection's in its own scratch (pulled).
func (p *segProgram) pull(n segNode, carve func(width int) types.Row) (int, *Batch, error) {
	switch x := n.(type) {
	case *segProject:
		if carve != nil {
			k, err := x.project(p, carve)
			return k, nil, err
		}
	case *segUnion:
		for x.cur < len(x.ins) {
			k, b, err := p.pull(x.ins[x.cur], carve)
			if err != nil {
				return 0, nil, err
			}
			if k > 0 || b != nil {
				x.emitted(k + b.Len())
				return k, b, nil
			}
			if x.cur++; x.cur < len(x.ins) {
				if err := x.ins[x.cur].open(p); err != nil {
					return 0, nil, err
				}
			}
		}
		return 0, nil, nil
	}
	b, err := n.next(p)
	return 0, b, err
}

// bProgram runs a program outside any GApply as one iterator: the
// program's sink made resumable. Each NextBatch pulls the root's next
// window: a projection root, or a projection input of a union root,
// writes its rows into the iterator's own slab, and any other window's
// rows outlive it (segProgram.whole) and pass through. Close closes the
// program's hosted subtrees.
type bProgram struct {
	segProgram
	slab rowSlab // a projection's rows…
	out  Batch   // …and the window of them
}

// buildProgram compiles n, a native operator, and the chain of them
// under it into a program for a consumer that reads need, returning
// what buildBatchNeed does. A chain that compiles to one hosted join —
// a filter fused into it, or a projection its narrowed emission already
// is — is the join's iterator, built before any program is allocated.
func buildProgram(n core.Node, need []int, ctx *Context, env compileEnv) (BatchIterator, []int, error) {
	var pre segPre
	switch x := n.(type) {
	case *core.Select:
		if j, ok := fusedJoin(x, ctx, env); ok {
			return buildBatchJoin(j, x.Cond, need, ctx, env)
		}
	case *core.Project:
		if !hostsJoin(x.Input, ctx, env) {
			break
		}
		it, emit, err := buildBatchNeed(x.Input, readNeed(x.Input, x.Exprs...), ctx, env)
		if err != nil {
			return nil, nil, err
		}
		full := x.Input.Schema()
		if emit != nil && len(x.Exprs) == len(emit) && isColumns(x.Exprs, full, emit) {
			return it, nil, nil
		}
		pre = segPre{node: x.Input, it: it, sch: emitted(full, emit), emit: emit}
	}
	a := &bProgram{segProgram: segProgram{ctx: ctx}}
	c := segCompiler{segProgram: &a.segProgram, env: env, probed: n, correlated: true, pre: pre}
	root, sh, err := c.compile(n, false, need)
	if err != nil {
		return nil, nil, err
	}
	emit := sh.emit
	a.root, sh = c.whole(root, sh)
	a.slab = rowSlab{width: sh.phys, arena: ctx.arena}
	return a, emit, nil
}

// hostsJoin reports whether a program compiles n to a hosted join: n is
// a join, or a Select fused into one, and no invariant subtree.
func hostsJoin(n core.Node, ctx *Context, env compileEnv) bool {
	if env.scope.invariant(n) != nil {
		return false
	}
	switch x := n.(type) {
	case *core.Join:
		return true
	case *core.Select:
		_, ok := fusedJoin(x, ctx, env)
		return ok
	}
	return false
}

func (a *bProgram) Open() error { return a.root.open(&a.segProgram) }

func (a *bProgram) NextBatch() (*Batch, error) {
	if a.out.Rows == nil {
		a.out.Rows = a.ctx.arena.headers(batchSize)
	}
	a.out.Rows = a.out.Rows[:0]
	k, b, err := a.pull(a.root, a.carve)
	if k == 0 {
		return b, err
	}
	return &a.out, nil
}

// carve takes a row of the projection being written.
func (a *bProgram) carve(width int) types.Row {
	r := a.slab.carve(width)
	a.out.Rows = append(a.out.Rows, r)
	return r
}

func (a *bProgram) Close() error { return a.close() }

// segRows is a node's scratch for the rows it computes: one window of
// width-wide rows, taken from the execution's arena when the node first
// fills one, and rewritten per window.
type segRows struct {
	width, rows int
	slab        types.Row
	out         Batch // the window
}

// reset starts a window.
func (s *segRows) reset(a *arena) {
	if s.out.Rows == nil {
		s.slab = a.values(s.width * s.rows)[:s.width*s.rows]
		s.out.Rows = a.headers(s.rows)
	}
	s.out.Rows = s.out.Rows[:0]
}

// add appends a row to the window and returns it, for the caller to
// fill.
func (s *segRows) add() types.Row {
	start := len(s.out.Rows) * s.width
	r := s.slab[start : start+s.width : start+s.width]
	s.out.Rows = append(s.out.Rows, r)
	return r
}

// segScan reads a group's run, the native GroupScan, a window of
// batchSize rows at a time, polling cancellation per window. rows is
// the group its variable is bound to: the program's own, or an
// enclosing program's.
type segScan struct {
	segBase // no input
	rows    *[]types.Row
	pos     int
	out     Batch
}

func (s *segScan) open(*segProgram) error {
	s.pos = 0
	if s.stats != nil {
		s.stats.Opens++
	}
	return nil
}

func (s *segScan) next(p *segProgram) (*Batch, error) {
	group := *s.rows
	if s.pos >= len(group) {
		return nil, nil
	}
	end := min(s.pos+batchSize, len(group))
	n := end - s.pos
	if err := p.ctx.tickN(n); err != nil {
		return nil, err
	}
	s.out.Rows = group[s.pos:end]
	s.pos = end
	p.ctx.Counters.GroupScanRows += int64(n)
	s.emitted(n)
	return &s.out, nil
}

// segSelect narrows its input windows' selection, in a scratch
// selection vector taken from the arena, and passes on those with a row
// left. A comparison of a row column with a literal, or with an
// expression over parameters and literals evaluated once per window,
// runs the column-against-constant kernel; any other condition runs its
// vector kernels (vector.go) when it kernelizes, else its row predicate
// row by row, so its error is the first failing row's.
type segSelect struct {
	segBase
	kernel selKernel                               // the condition's kernels, run in turn…
	pred   func(types.Row, *Context) (bool, error) // …or its row predicate
	out    Batch                                   // out.Sel is the scratch
	rows   int32                                   // the most rows a window holds: the scratch's size
	// A constant comparison (kfrom is fromRow otherwise): its row column,
	// its accepted outcomes (outcomeMask) and its constant — a literal, a
	// parameter slot (ki), or an expression.
	ord   int32
	ki    int32
	mask  uint8
	kfrom colSource
	lit   *types.Value
	kexpr *constExpr
}

// constExpr is a constant comparison's expression over parameters and
// literals, compiled over row: width columns, its tail the parameters
// slots.
type constExpr struct {
	fn    evalFn
	row   types.Row
	width int
	slots []int
}

// compileConst compiles cond as a column-against-constant comparison,
// if it is one, reporting whether it is.
func (s *segSelect) compileConst(cond core.Expr, sh segShape, env compileEnv) (bool, error) {
	cmp, ok := cond.(*core.Cmp)
	if !ok {
		return false, nil
	}
	test, ok := cmpTest(cmp.Op)
	col, konst, flip := cmp.L, cmp.R, false
	if r, _ := segReads(col, sh); !r {
		col, konst, flip = konst, col, true
	}
	ord, _, isCol := kernelOperand(col, sh.sch)
	kord, _, isOperand := kernelOperand(konst, sh.sch)
	kr, kp := segReads(konst, sh)
	if !ok || !isCol || ord < 0 || ord >= sh.phys || kr || !kp && !isOperand {
		return false, nil
	}
	s.ord, s.mask = int32(ord), outcomeMask(test, flip)
	switch {
	case kord >= 0:
		s.kfrom, s.ki = fromParam, int32(sh.slots[kord-sh.phys])
	case isOperand:
		s.kfrom, s.lit = fromLit, &konst.(*core.Lit).V
	default:
		s.kfrom = fromExpr
		s.kexpr = &constExpr{width: sh.phys + len(sh.slots), slots: sh.slots}
		var err error
		s.kexpr.fn, err = compileExpr(konst, sh.sch, env)
		return true, err
	}
	return true, nil
}

func (s *segSelect) next(p *segProgram) (*Batch, error) {
	for {
		b, err := s.in.next(p)
		if err != nil || b == nil {
			return nil, err
		}
		if s.out.Sel == nil {
			s.out.Sel = p.ctx.arena.sel(int(s.rows))
		}
		sel := s.out.Sel[:0]
		if b.Sel != nil {
			sel = append(sel, b.Sel...)
		} else {
			sel = identitySel(sel, len(b.Rows))
		}
		switch s.kfrom {
		case fromLit:
			sel = selectCmpConst(b.Rows, sel, int(s.ord), *s.lit, s.mask)
		case fromParam:
			sel = selectCmpConst(b.Rows, sel, int(s.ord), p.params[s.ki], s.mask)
		case fromExpr:
			k := s.kexpr
			if k.row == nil {
				k.row = p.ctx.arena.values(k.width)[:k.width]
			}
			tail := k.row[k.width-len(k.slots):]
			for j, slot := range k.slots {
				tail[j] = p.params[slot]
			}
			c, err := k.fn(k.row, p.ctx)
			if err != nil {
				return nil, err
			}
			sel = selectCmpConst(b.Rows, sel, int(s.ord), c, s.mask)
		default: // fromRow: not a constant comparison
			if s.kernel != nil {
				sel = s.kernel(b.Rows, sel)
				break
			}
			kept := sel[:0]
			for _, i := range sel {
				pass, err := s.pred(b.Rows[i], p.ctx)
				if err != nil {
					return nil, err
				}
				if pass {
					kept = append(kept, i)
				}
			}
			sel = kept
		}
		if len(sel) > 0 {
			s.emitted(len(sel))
			s.out.Rows, s.out.Sel = b.Rows, sel
			return &s.out, nil
		}
	}
}

// segProject computes its rows a window at a time into scratch, or, at
// a sink, straight into the sink's storage.
type segProject struct {
	segBase
	cols    []projCol
	lits    types.Row // the literal columns' values, at their columns
	scratch *segRows  // nil when only sinks take its rows (pulled)
}

// projCol is one projected column: a column of the input row, a
// parameter slot, a literal of the projection, or any other expression,
// compiled.
type projCol struct {
	i    int32 // the row column or parameter slot
	from colSource
	fn   evalFn // fromExpr
}

type colSource uint8

const (
	fromRow colSource = iota
	fromParam
	fromLit
	fromExpr
)

// compileCols compiles a projection's exprs over the schema of rows
// holding its first phys columns; a column past them is the parameter
// slot slots[ord-phys]. It returns the columns and, when any is a
// literal, one side row as wide as the projection holding each
// literal's value at its column. A column or literal needs no
// compiling, so a compile error is the first failing expression's.
func compileCols(exprs []core.Expr, sch *schema.Schema, phys int, slots []int, env compileEnv) ([]projCol, types.Row, error) {
	cols := make([]projCol, len(exprs))
	var lits types.Row
	for i, e := range exprs {
		c := &cols[i]
		switch ord, lit, ok := kernelOperand(e, sch); {
		case ord >= phys:
			c.from, c.i = fromParam, int32(slots[ord-phys])
		case ord >= 0:
			c.from, c.i = fromRow, int32(ord)
		case ok:
			if lits == nil {
				lits = make(types.Row, len(exprs))
			}
			c.from, lits[i] = fromLit, lit
		default:
			var err error
			if c.fn, err = compileExpr(e, sch, env); err != nil {
				return nil, nil, err
			}
			c.from = fromExpr
		}
	}
	return cols, lits, nil
}

// project computes each live row of the input's next window into the
// row carve returns for it, and reports how many it computed: 0 once
// the input is exhausted.
func (s *segProject) project(p *segProgram, carve func(width int) types.Row) (int, error) {
	b, err := s.in.next(p)
	if err != nil || b == nil {
		return 0, err
	}
	cols, lits, params, n := s.cols, s.lits, p.params, b.Len()
	for i := 0; i < n; i++ {
		r, row := b.Row(i), carve(len(cols))[:len(cols)]
		for j := range cols {
			switch c := &cols[j]; c.from {
			case fromRow:
				row[j] = r[c.i]
			case fromParam:
				row[j] = params[c.i]
			case fromLit:
				row[j] = lits[j]
			default:
				if row[j], err = c.fn(r, p.ctx); err != nil {
					return 0, err
				}
			}
		}
	}
	s.emitted(n)
	return n, nil
}

func (s *segProject) next(p *segProgram) (*Batch, error) {
	sc := s.scratch
	sc.reset(p.ctx.arena)
	if n, err := s.project(p, func(int) types.Row { return sc.add() }); n == 0 {
		return nil, err
	}
	return &sc.out, nil
}

// segAgg is a scalar aggregate: opening it folds its whole input into
// its one result row — on empty input too (count(*)=0, other aggregates
// NULL) — which it yields once and rewrites when it is opened again.
// Aggregates over bare columns, without DISTINCT, fold a column of a
// whole window at a time (accum.fold); otherwise every row is fed to
// every aggregate. Either way values are added in input order, so float
// sums and averages are bit-identical.
type segAgg struct {
	segBase
	aggs   []compiledAgg // compiled when ords is nil
	ords   []int         // per aggregate, the column it folds; nil: feed rows
	states []accum
	err    error // accumulator creation failed; reported by open
	row    types.Row
	one    [1]types.Row // out's rows: row
	done   bool
	out    Batch
}

// foldOrds is, per aggregate, the row column it folds (-1 for
// count(*)), or nil when any aggregate is fed row by row: DISTINCT, or
// an argument other than a bare column of the first phys.
func foldOrds(specs []core.AggSpec, sch *schema.Schema, phys int) []int {
	ords := make([]int, len(specs))
	for i, g := range specs {
		ords[i] = -1
		c, isCol := g.Arg.(*core.ColRef)
		switch {
		case g.Distinct:
			return nil
		case g.Star:
			continue
		case !isCol:
			return nil
		}
		ord, err := sch.Resolve(c.Table, c.Name)
		if err != nil || ord >= phys {
			return nil
		}
		ords[i] = ord
	}
	return ords
}

// open folds the input. Folding a column at a time changes no result,
// only which error is met first: each fold stops at its first bad
// value, and a window's error is the one row by row order meets first —
// the earliest row, and on it the first aggregate.
func (a *segAgg) open(p *segProgram) error {
	if err := a.segBase.open(p); err != nil {
		return err
	}
	if a.err != nil {
		return a.err
	}
	for i := range a.states {
		a.states[i].reset()
	}
	for {
		b, err := a.in.next(p)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if a.ords == nil {
			for i := 0; i < b.Len(); i++ {
				if err := feed(a.aggs, a.states, b.Row(i), p.ctx); err != nil {
					return err
				}
			}
			continue
		}
		first, firstErr := b.Len(), error(nil)
		for j, ord := range a.ords {
			if i, err := a.states[j].fold(b, ord); err != nil && i < first {
				first, firstErr = i, err
			}
		}
		if firstErr != nil {
			return firstErr
		}
	}
	for i := range a.states {
		a.row[i] = a.states[i].result()
	}
	a.done = false
	return nil
}

func (a *segAgg) next(*segProgram) (*Batch, error) {
	if a.done {
		return nil, nil
	}
	a.done = true
	a.emitted(1)
	return &a.out, nil
}

// segUnion concatenates its inputs, opening each when the previous one
// is exhausted (segProgram.pull).
type segUnion struct {
	segBase // in is the first input
	ins     []segNode
	cur     int
}

func (u *segUnion) open(p *segProgram) error {
	u.cur, u.in = 0, u.ins[0]
	return u.segBase.open(p)
}

func (u *segUnion) next(p *segProgram) (*Batch, error) {
	_, b, err := p.pull(u, nil)
	return b, err
}

// segApply is a cross Apply whose inner holds no OuterRef and yields at
// most one row: a scalar, or an Exists. It evaluates the inner once,
// after its outer's first window, into its parameter slots — the Apply
// cache, valid for one evaluation of the enclosing node — and hands on
// its outer's rows, regathered into windows of batchSize: a full outer
// window, or a group's last, goes on as it is; others have their row
// headers gathered, or their values copied when the outer's rows do not
// outlive its window. When the inner yields no row it still reads its
// whole outer, and hands on none.
type segApply struct {
	segBase
	inner    segNode
	base     int // the parameters the inner's row binds: width of them from base
	width    int
	stable   bool // the outer's rows outlive its window
	cur      *Batch
	ci       int  // cur's next live row
	have     bool // the inner is bound for this open
	none     bool // …and yielded no row
	gathered []types.Row
	copies   segRows
	out      Batch
}

func (a *segApply) open(p *segProgram) error {
	a.have, a.cur = false, nil
	return a.segBase.open(p)
}

// bind evaluates the inner into the parameters, counting the outer row
// that asked for it as the execution and every other row as a cache
// hit.
func (a *segApply) bind(p *segProgram) error {
	p.ctx.Counters.ApplyExecs++
	p.ctx.Counters.ApplyCacheHits--
	if err := a.inner.open(p); err != nil {
		return err
	}
	dst := p.params[a.base : a.base+a.width]
	k, b, err := p.pull(a.inner, func(int) types.Row { return dst })
	if err != nil {
		return err
	}
	a.have, a.none = true, k == 0 && b == nil
	if b != nil {
		copy(dst, b.Row(0))
	}
	return nil
}

func (a *segApply) next(p *segProgram) (*Batch, error) {
	n := 0
	for n < batchSize {
		if a.cur == nil || a.ci == a.cur.Len() {
			b, err := a.in.next(p)
			if err != nil {
				return nil, err
			}
			if a.cur, a.ci = b, 0; b == nil {
				break
			}
			if !a.have {
				if err := a.bind(p); err != nil {
					return nil, err
				}
			}
			if a.none {
				p.ctx.Counters.ApplyCacheHits += int64(b.Len())
				a.ci = b.Len()
				continue
			}
			// A full window, or the group's last, goes on as it stands.
			if scan, ok := a.in.(*segScan); n == 0 && (b.Len() == batchSize || ok && scan.pos == len(*scan.rows)) {
				a.ci = b.Len()
				return a.emit(p, b), nil
			}
		}
		if n == 0 {
			if a.gathered == nil {
				a.gathered = p.ctx.arena.headers(batchSize)
			}
			a.gathered = a.gathered[:0]
			if !a.stable {
				a.copies.reset(p.ctx.arena)
			}
		}
		for ; n < batchSize && a.ci < a.cur.Len(); n, a.ci = n+1, a.ci+1 {
			r := a.cur.Row(a.ci)
			if !a.stable {
				r = append(a.copies.add()[:0], r...)
			}
			a.gathered = append(a.gathered, r)
		}
	}
	if n == 0 {
		return nil, nil
	}
	a.out.Rows = a.gathered
	return a.emit(p, &a.out), nil
}

// emit counts the window b the Apply hands on.
func (a *segApply) emit(p *segProgram, b *Batch) *Batch {
	p.ctx.Counters.ApplyCacheHits += int64(b.Len())
	a.emitted(b.Len())
	return b
}

// segExists is an Exists: opening it reads its input's first window,
// and it then yields one empty row if that found a row — if it found
// none, when negated. Reading a window ahead, the input may do up to
// one window more work than the answer needs, which counters fed by
// that work (RowsScanned, JoinProbes) show.
type segExists struct {
	segBase
	negated bool
	emit    bool
	empty   [1]types.Row // out's rows: one row of no columns
	out     Batch
}

func (e *segExists) open(p *segProgram) error {
	if err := e.segBase.open(p); err != nil {
		return err
	}
	b, err := e.in.next(p)
	e.emit = (b != nil) != e.negated
	return err
}

func (e *segExists) next(*segProgram) (*Batch, error) {
	if !e.emit {
		return nil, nil
	}
	e.emit = false
	e.emitted(1)
	return &e.out, nil
}

// segHost is a hosted subtree: the iterator tree compiled from node,
// opened per evaluation and closed once exhausted, or before it is
// opened again.
type segHost struct {
	it     BatchIterator
	node   core.Node
	isOpen bool
	sib    *segHost // the program's next hosted subtree
}

func (h *segHost) open(*segProgram) error {
	if err := h.close(); err != nil {
		return err
	}
	if err := h.it.Open(); err != nil {
		return err
	}
	h.isOpen = true
	return nil
}

func (h *segHost) next(*segProgram) (*Batch, error) {
	b, err := h.it.NextBatch()
	if b == nil && err == nil {
		err = h.close()
	}
	return b, err
}

func (h *segHost) close() error {
	if !h.isOpen {
		return nil
	}
	h.isOpen = false
	return h.it.Close()
}

// invariant is one invariant subtree of a GApply's inner: its iterator
// tree, compiled once on a context of its own, forked from the
// GApply's, on which it is materialized at most once per GApply Open —
// by the first group that reads it, on whichever goroutine runs that
// group — with the query's partition budget charged per row. The
// materialization is written once, under built; every other reader
// waits for it there and then shares it read-only. The build's counters
// and profile stay on the private context until a group reads the
// materialization, so a subtree no group reads is never built and
// tallies nothing, at any dop.
type invariant struct {
	node    core.Node
	it      BatchIterator
	ctx     *Context
	built   sync.Once
	rows    []types.Row
	err     error
	epoch   int         // counts the GApply's Opens: a join's table built from an earlier one is stale
	claimed atomic.Bool // a group has read this Open's materialization
}

// reset forgets the materialization and its tally, at an Open of the
// GApply running on ctx (no worker is running then).
func (m *invariant) reset(ctx *Context) {
	m.built = sync.Once{}
	m.err, m.rows = nil, m.rows[:0]
	m.epoch++
	m.claimed.Store(false)
	m.ctx.Ctx, m.ctx.Counters = ctx.Ctx, Counters{}
	if m.ctx.Prof != nil {
		m.ctx.Prof.clear()
	}
}

// materialize drains the subtree, keeping its rows' headers: everything
// under it is group-independent, so the rows stay valid for the whole
// Open. A failure is kept, and reported to every group that reads it.
func (m *invariant) materialize() {
	bytes, err := m.drain()
	m.err = err
	m.ctx.Counters.SpoolBuilds++
	if m.ctx.Prof != nil {
		ns := m.ctx.Prof.node(m.node)
		ns.SpoolBuilds++
		ns.SpoolBytes += bytes
	}
}

// drain appends the subtree's rows to m.rows and returns their
// footprint.
func (m *invariant) drain() (bytes int64, err error) {
	if err := m.it.Open(); err != nil {
		return 0, err
	}
	defer func() {
		if cerr := m.it.Close(); err == nil {
			err = cerr
		}
	}()
	operator := func() string { return "Spool: " + core.Summary(m.node) }
	for {
		b, err := m.it.NextBatch()
		if err != nil || b == nil {
			return bytes, err
		}
		if err := m.ctx.tickN(b.Len()); err != nil {
			return bytes, err
		}
		for i := 0; i < b.Len(); i++ {
			r := b.Row(i)
			n := int64(r.Bytes())
			if err := m.ctx.Budget.chargePartition(n, operator); err != nil {
				return bytes, err
			}
			bytes += n
			m.rows = append(m.rows, r)
		}
	}
}

// read makes the materialization current for a group evaluated on ctx,
// building it if no group has, and counts the read: the first of an
// Open takes over the build's tally, every other is a hit.
func (m *invariant) read(ctx *Context) error {
	m.built.Do(m.materialize)
	if !m.claimed.Swap(true) {
		ctx.Counters.Add(&m.ctx.Counters)
		if ctx.Prof != nil {
			ctx.Prof.merge(m.ctx.Prof.snapshot())
		}
		return m.err
	}
	ctx.Counters.SpoolHits++
	if ctx.Prof != nil {
		ctx.Prof.node(m.node).SpoolHits++
	}
	return m.err
}

// bReplay is an invariant subtree as the plans compiled in its GApply's
// inner read it: its materialization, replayed in batch windows. It is
// not probed under a Profile, so the subtree's actuals show its one
// execution per Open.
type bReplay struct {
	m   *invariant
	ctx *Context
	win rowWindow
}

func (r *bReplay) Open() error {
	if err := r.m.read(r.ctx); err != nil {
		return err
	}
	r.win.reset(r.m.rows)
	return nil
}

func (r *bReplay) NextBatch() (*Batch, error) {
	b := r.win.next()
	if b == nil {
		return nil, nil
	}
	if err := r.ctx.tickN(b.Len()); err != nil {
		return nil, err
	}
	return b, nil
}

func (r *bReplay) Close() error { return nil }

// keptTable reports whether a join's table, built (built) from its
// right input, is still current: right replays a materialization of the
// same GApply Open as the table, whose epoch it records for the rebuild
// that follows a false result.
func keptTable(right BatchIterator, built bool, epoch *int) bool {
	r, ok := right.(*bReplay)
	if !ok {
		return false
	}
	if built && *epoch == r.m.epoch {
		return true
	}
	*epoch = r.m.epoch
	return false
}
