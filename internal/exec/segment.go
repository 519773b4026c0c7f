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

// Segmented GApply. The partition phase leaves every group as one
// contiguous run of rows, and a GApply evaluates its per-group query
// over each run as a segment program: one compiled loop over many
// groups, a window of up to batchSize rows per call. The program has a
// native node for the operators the publishing workload's inners are
// built from — projections and filters of $group, scalar aggregates
// (DISTINCT included), UNION ALL, Exists, and a cross Apply whose inner
// is an uncorrelated scalar aggregate or Exists — so on groups of a few
// rows nothing is opened or allocated per group. A filter narrows the
// window's selection vector, a scalar aggregate folds whole windows
// (accum.fold), and a projection at the root writes its rows, prefixed
// with the grouping columns, straight into the GApply's output slab. An
// Apply binds its scalar's columns as per-group parameters instead of
// widening every outer row, and a filter comparing a column with an
// expression over parameters and literals evaluates that expression
// once per window and runs a column-against-constant kernel. Rows are
// widened, parameters appended, only where a consumer needs them whole:
// a union input, the root, or an expression reading parameters row by
// row.
//
// Any other operator is hosted (segHost): buildBatch compiles it and
// everything under it into the iterator tree that is its one
// implementation, which the program re-opens per evaluation, its
// GroupScans bound at compile time to the group the program evaluates
// (scope). An invariant subtree — no GroupScan, no OuterRef — is
// materialized once per GApply Open and replayed for every group
// (invariant, bReplay).
//
// The iterator tree is itself window-at-a-time — a filter, projection or
// Apply takes a whole batch before its parent sees a row, an Apply
// evaluates its inner after its outer's first batch and regathers outer
// rows into full batches, a scalar aggregate drains its input and an
// Exists reads its input's first batch when opened, a union opens each
// input when the previous one ends — and the program makes the same
// windows in the same order. So it fails with the tree's first error and
// tallies the tree's counters; under a Profile every native node is
// credited the Rows and Opens its probe would record, and the program's
// wall time is credited to the inner root. Native nodes take their
// scratch from the execution's arena when first needed and rewrite it
// per window.

// scope is what a GApply binds for the plans compiled in its inner: its
// group variable, read from the group the program being compiled
// evaluates, and the materializations of its inner's invariant
// subtrees; up is the enclosing GApply's scope.
type scope struct {
	groupVar string
	group    *[]types.Row
	invs     []*invariant
	up       *scope
}

// bound returns the group a GroupScan of name reads.
func (s *scope) bound(name string) (*[]types.Row, error) {
	for ; s != nil; s = s.up {
		if strings.EqualFold(s.groupVar, name) {
			return s.group, nil
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

// segProgram is a GApply's per-group query compiled to run over one
// group at a time on one Context: the serial phase's, or a parallel
// worker's.
type segProgram struct {
	root      segNode
	rootStats *NodeStats // the inner root's profile cell; nil when not profiling
	ctx       *Context
	env       compileEnv  // the GApply's, its scope binding the group variable to group
	group     []types.Row // the group being evaluated, read by its GroupScans
	params    types.Row   // the Applies' scalars, one slot per column
	hosts     []*segHost  // every hosted subtree, closed by close
	// correlated is set when the inner holds OuterRefs: an Apply is then
	// native only if its own inner holds none.
	correlated bool
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
// holds, and whether rows outlive their window (group rows, the one row
// of an aggregate, and every row an iterator tree emits).
type segShape struct {
	sch    *schema.Schema
	phys   int
	slots  []int
	rows   int
	stable bool
}

// buildSegment compiles g's per-group query into a program over ctx.
// Compilation visits the nodes in the order buildBatch would, so a plan
// that does not compile fails with the error the iterator tree's build
// reports.
func buildSegment(g *bgapply, ctx *Context) (*segProgram, error) {
	p := newSegProgram(g, ctx)
	root, sh, err := p.compile(g.plan.Inner, false, nil)
	if err != nil {
		return nil, err
	}
	return p.finish(root, sh), nil
}

// newSegProgram starts g's program over ctx, its scope binding g's
// group variable to the group the program evaluates.
func newSegProgram(g *bgapply, ctx *Context) *segProgram {
	p := &segProgram{ctx: ctx, rootStats: segStats(g.plan.Inner, ctx), correlated: g.correlated}
	p.env = compileEnv{outer: g.env.outer, scope: &scope{groupVar: g.plan.GroupVar, group: &p.group, invs: g.invs, up: g.env.scope}}
	return p
}

// finish makes root, whose windows sh describes, the program's root. A
// hosted root's own probe times it.
func (p *segProgram) finish(root segNode, sh segShape) *segProgram {
	if _, hosted := root.(*segHost); hosted {
		p.rootStats = nil
	}
	p.root, _ = p.physical(root, sh, true)
	return p
}

// segStats is n's profile cell under ctx, or nil when not profiling.
func segStats(n core.Node, ctx *Context) *NodeStats {
	if ctx.Prof == nil {
		return nil
	}
	return ctx.Prof.node(n)
}

// compile compiles n for a consumer that reads the columns need of its
// schema (nil: all of them), as buildBatch threads needs, deriving n's
// schema from its input's only when want says the consumer reads it.
// An invariant subtree, and a node the program has no native node for,
// is hosted.
func (p *segProgram) compile(n core.Node, want bool, need []int) (segNode, segShape, error) {
	if p.env.scope.invariant(n) != nil {
		return p.host(n, nil)
	}
	stats := segStats(n, p.ctx)
	var in segNode
	var sh segShape
	var err error
	switch x := n.(type) {
	case *core.GroupScan:
		rows, err := p.env.scope.bound(x.Var)
		sh := segShape{sch: x.Sch, rows: batchSize, stable: true}
		if x.Sch != nil {
			sh.phys = x.Sch.Len()
		}
		return &segScan{segBase: segBase{stats: stats}, rows: rows}, sh, err

	case *core.Select:
		if in, sh, err = p.compile(x.Input, true, addNeed(need, x.Input, x.Cond)); err != nil {
			return nil, sh, err
		}
		s := &segSelect{segBase: segBase{in, stats}, filter: filter{rows: sh.rows}}
		if ok, err := s.compileConst(x.Cond, sh, p.env); ok || err != nil {
			return s, sh, err
		}
		_, params := segReads(x.Cond, sh)
		s.in, sh = p.physical(in, sh, params)
		s.filter, err = compileFilter(x.Cond, sh.sch, p.env, sh.rows)
		return s, sh, err

	case *core.Project:
		if in, sh, err = p.compile(x.Input, true, readNeed(x.Input, x.Exprs...)); err != nil {
			return nil, sh, err
		}
		params := false
		for _, e := range x.Exprs {
			if _, ok := e.(*core.ColRef); !ok {
				_, pe := segReads(e, sh)
				params = params || pe
			}
		}
		in, sh = p.physical(in, sh, params)
		s := &segProject{segBase: segBase{in, stats}, scratch: segRows{width: len(x.Exprs), rows: sh.rows}}
		if s.cols, err = compileCols(x.Exprs, sh.sch, sh.phys, sh.slots, p.env); err != nil {
			return nil, sh, err
		}
		out := segShape{phys: len(x.Exprs), rows: sh.rows}
		if want {
			out.sch = x.SchemaOver(sh.sch)
		}
		return s, out, nil

	case *core.AggOp:
		if in, sh, err = p.compile(x.Input, true, aggNeed(x.Input, nil, x.Aggs)); err != nil {
			return nil, sh, err
		}
		a := &segAgg{segBase: segBase{in, stats}}
		if a.scalarAgg, err = compileScalarAgg(x.Aggs, sh.sch, sh.phys, p.env); err != nil {
			return nil, sh, err
		}
		if a.ords == nil { // compiled arguments that read parameters read whole rows
			for _, g := range x.Aggs {
				if _, params := segReads(g.Arg, sh); params {
					a.in, sh = p.physical(in, sh, true)
				}
			}
		}
		out := segShape{phys: len(x.Aggs), rows: 1, stable: true}
		if want {
			out.sch = x.SchemaOver(sh.sch)
		}
		return a, out, nil

	case *core.Exists:
		if in, _, err = p.compile(x.Input, false, nil); err != nil {
			return nil, sh, err
		}
		e := &segExists{segBase: segBase{in, stats}, negated: x.Negated}
		e.out.Rows = e.empty[:]
		return e, segShape{sch: x.Schema(), rows: 1, stable: true}, nil

	case *core.UnionAll:
		arity := segArity(x.Inputs[0])
		u := &segUnion{segBase: segBase{stats: stats}, ins: make([]segNode, len(x.Inputs))}
		out := segShape{phys: arity, stable: true}
		for i, c := range x.Inputs {
			if w := segArity(c); w != arity {
				return nil, out, fmt.Errorf("exec: union input %d has %d columns, want %d", i, w, arity)
			}
			if in, sh, err = p.compile(c, want && i == 0, nil); err != nil {
				return nil, out, err
			}
			u.ins[i], sh = p.physical(in, sh, true)
			if i == 0 {
				out.sch = sh.sch
			}
			out.rows, out.stable = max(out.rows, sh.rows), out.stable && sh.stable
		}
		return u, out, nil

	case *core.Apply:
		if x.Kind != core.CrossApply || !atMostOneRow(x.Inner) || p.correlated && len(core.OuterRefsIn(x.Inner)) > 0 {
			break
		}
		if in, sh, err = p.compile(x.Outer, want, nil); err != nil {
			return nil, sh, err
		}
		inner, ish, err := p.compile(x.Inner, want, nil)
		if err != nil {
			return nil, ish, err
		}
		a := &segApply{segBase: segBase{in, stats}, inner: inner, stable: sh.stable}
		a.copies = segRows{width: sh.phys, rows: batchSize}
		out := segShape{phys: sh.phys, slots: sh.slots[:len(sh.slots):len(sh.slots)], rows: batchSize, stable: sh.stable}
		for range ish.phys {
			out.slots = append(out.slots, len(p.params))
			p.params = append(p.params, types.Null)
		}
		a.slots = out.slots[len(sh.slots):]
		if want {
			out.sch = sh.sch.Concat(ish.sch)
		}
		return a, out, nil
	}
	return p.host(n, need)
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

// host compiles n into the iterator tree buildBatch builds for a
// consumer reading need — or, for an invariant subtree, a replay of its
// materialization — and hosts it as one node.
func (p *segProgram) host(n core.Node, need []int) (segNode, segShape, error) {
	it, emit, err := buildBatchNeed(n, need, p.ctx, p.env)
	if err != nil {
		return nil, segShape{}, err
	}
	h := &segHost{it: it, node: n}
	p.hosts = append(p.hosts, h)
	sch := emitted(n.Schema(), emit)
	return h, segShape{sch: sch, phys: sch.Len(), rows: batchSize, stable: true}, nil
}

// hosted returns the plan nodes the program hosts as iterator trees, in
// plan order: the nodes it has no native node for, invariant subtrees
// aside.
func (p *segProgram) hosted() []core.Node {
	var out []core.Node
	for _, h := range p.hosts {
		if _, replay := h.it.(*bReplay); !replay {
			out = append(out, h.node)
		}
	}
	return out
}

// physical hands on in's windows with their rows at full width — their
// columns, then the parameters — when reads says a consumer reads them
// whole and sh has parameters: a projection of every column.
func (p *segProgram) physical(in segNode, sh segShape, reads bool) (segNode, segShape) {
	if !reads || len(sh.slots) == 0 {
		return in, sh
	}
	width := sh.phys + len(sh.slots)
	w := &segProject{segBase: segBase{in: in}, cols: make([]projCol, width), scratch: segRows{width: width, rows: sh.rows}}
	for i := range w.cols {
		w.cols[i] = projCol{ord: i, slot: -1}
		if i >= sh.phys {
			w.cols[i] = projCol{ord: -1, slot: sh.slots[i-sh.phys]}
		}
	}
	return w, segShape{sch: sh.sch, phys: width, rows: sh.rows}
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
	if p.rootStats == nil {
		return p.eval(group, out)
	}
	start := time.Now()
	err := p.eval(group, out)
	p.rootStats.Time += time.Since(start)
	return err
}

// close closes the hosted subtrees left open.
func (p *segProgram) close() error {
	var err error
	for _, h := range p.hosts {
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (p *segProgram) eval(group []types.Row, out *joinOut) error {
	p.group = group
	if err := p.root.open(p); err != nil {
		return err
	}
	_, err := p.emit(p.root, out)
	return err
}

// emit drains the open node n into out and returns how many rows it
// wrote: a projection computes its rows there, and a union has its
// inputs write theirs in turn.
func (p *segProgram) emit(n segNode, out *joinOut) (int, error) {
	total := 0
	switch x := n.(type) {
	case *segProject:
		dst := func() types.Row { return out.carve(p.group[0], len(x.cols)) }
		for {
			k, err := x.project(p, dst)
			if total += k; k == 0 {
				return total, err
			}
		}
	case *segUnion:
		for i, in := range x.ins {
			if i > 0 {
				if err := in.open(p); err != nil {
					return total, err
				}
			}
			k, err := p.emit(in, out)
			if total += k; err != nil {
				return total, err
			}
		}
		x.emitted(total)
		return total, nil
	}
	for {
		b, err := n.next(p)
		if err != nil || b == nil {
			return total, err
		}
		for i := 0; i < b.Len(); i++ {
			r := b.Row(i)
			copy(out.carve(p.group[0], len(r)), r)
		}
		total += b.Len()
	}
}

// segRows is a node's scratch for the rows it computes: one window of
// width-wide rows, taken from the execution's arena when the node first
// fills one, and rewritten per window.
type segRows struct {
	width, rows int
	slab        types.Row
	hdrs        []types.Row
}

// reset starts a window.
func (s *segRows) reset(a *arena) {
	if s.hdrs == nil {
		s.slab = a.values(s.width * s.rows)[:s.width*s.rows]
		s.hdrs = a.headers(s.rows)
	}
	s.hdrs = s.hdrs[:0]
}

// add appends a row to the window and returns it, for the caller to
// fill.
func (s *segRows) add() types.Row {
	start := len(s.hdrs) * s.width
	r := s.slab[start : start+s.width : start+s.width]
	s.hdrs = append(s.hdrs, r)
	return r
}

// segScan reads a group's run, the native GroupScan, a window of
// batchSize rows at a time, polling cancellation per window as the
// tree's GroupScan does per batch. rows is the group its variable is
// bound to: the program's own, or an enclosing program's.
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

// segSelect narrows its input windows' selection and passes on those
// with a row left. Its predicate runs as a column-against-constant
// kernel when it compares a row column with an expression over
// parameters and literals, evaluated once per window; otherwise it
// narrows as the tree's filter does (filter.narrow).
type segSelect struct {
	segBase
	filter
	ord    int    // the constant comparison's row column…
	mask   uint8  // …its accepted outcomes (outcomeMask)…
	konst  evalFn // …and its constant, over krow: kwidth wide, its tail the parameters kslots
	krow   types.Row
	kwidth int
	kslots []int
	out    Batch
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
	kr, kp := segReads(konst, sh)
	if !ok || !isCol || ord < 0 || ord >= sh.phys || kr || !kp {
		return false, nil
	}
	s.ord, s.mask = ord, outcomeMask(test, flip)
	s.kwidth, s.kslots = sh.phys+len(sh.slots), sh.slots
	var err error
	s.konst, err = compileExpr(konst, sh.sch, env)
	return true, err
}

func (s *segSelect) next(p *segProgram) (*Batch, error) {
	for {
		b, err := s.in.next(p)
		if err != nil || b == nil {
			return nil, err
		}
		if s.konst != nil {
			sel := s.live(b, p.ctx.arena)
			if s.krow == nil {
				s.krow = p.ctx.arena.values(s.kwidth)[:s.kwidth]
			}
			tail := s.krow[s.kwidth-len(s.kslots):]
			for j, slot := range s.kslots {
				tail[j] = p.params[slot]
			}
			c, err := s.konst(s.krow, p.ctx)
			if err != nil {
				return nil, err
			}
			s.sel = selectCmpConst(b.Rows, sel, s.ord, c, s.mask)
		} else if err := s.narrow(b, p.ctx); err != nil {
			return nil, err
		}
		if len(s.sel) > 0 {
			s.emitted(len(s.sel))
			s.out.Rows, s.out.Sel = b.Rows, s.sel
			return &s.out, nil
		}
	}
}

// segProject computes its rows a window at a time into scratch, or, at
// the root, straight into the GApply's output slab.
type segProject struct {
	segBase
	cols    []projCol
	scratch segRows
	out     Batch
}

// project computes each live row of the input's next window into the
// row dst returns for it, and reports how many it computed: 0 once the
// input is exhausted.
func (s *segProject) project(p *segProgram, dst func() types.Row) (int, error) {
	b, err := s.in.next(p)
	if err != nil || b == nil {
		return 0, err
	}
	if err := fill(s.cols, b, p.params, p.ctx, dst); err != nil {
		return 0, err
	}
	s.emitted(b.Len())
	return b.Len(), nil
}

func (s *segProject) next(p *segProgram) (*Batch, error) {
	s.scratch.reset(p.ctx.arena)
	if n, err := s.project(p, s.scratch.add); n == 0 {
		return nil, err
	}
	s.out.Rows = s.scratch.hdrs
	return &s.out, nil
}

// segAgg is a scalar aggregate: opening it folds its whole input
// (scalarAgg).
type segAgg struct {
	segBase
	scalarAgg
}

func (a *segAgg) open(p *segProgram) error {
	if err := a.segBase.open(p); err != nil {
		return err
	}
	if err := a.reset(); err != nil {
		return err
	}
	for {
		b, err := a.in.next(p)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := a.add(b, p.ctx); err != nil {
			return err
		}
	}
	a.finish()
	return nil
}

func (a *segAgg) next(*segProgram) (*Batch, error) {
	b := a.emit()
	a.emitted(b.Len())
	return b, nil
}

// segUnion concatenates its inputs, opening each when the previous one
// is exhausted.
type segUnion struct {
	segBase // in is the input open
	ins     []segNode
	cur     int
}

func (u *segUnion) open(p *segProgram) error {
	u.cur, u.in = 0, u.ins[0]
	return u.segBase.open(p)
}

func (u *segUnion) next(p *segProgram) (*Batch, error) {
	for u.cur < len(u.ins) {
		b, err := u.ins[u.cur].next(p)
		if err != nil || b != nil {
			if b != nil {
				u.emitted(b.Len())
			}
			return b, err
		}
		if u.cur++; u.cur < len(u.ins) {
			if err := u.ins[u.cur].open(p); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// segApply is a cross Apply whose inner is uncorrelated and yields at
// most one row: a scalar, or an Exists. It evaluates the inner once,
// after its outer's first window, into its parameter slots — the Apply
// cache, valid for one evaluation of the enclosing node — and hands on
// its outer's rows, regathered like the tree's Apply into windows of
// batchSize: a full outer window, or a scan's last, goes on as it is;
// others have their row headers gathered, or their values copied when
// the outer's rows do not outlive its window. When the inner yields no
// row it still reads its whole outer, as the tree's Apply does, and
// hands on none.
type segApply struct {
	segBase
	inner    segNode
	slots    []int // the parameters the inner's row binds
	stable   bool  // the outer's rows outlive its window
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
	b, err := a.inner.next(p)
	if err != nil {
		return err
	}
	a.have, a.none = true, b == nil
	for i, s := range a.slots {
		p.params[s] = b.Row(0)[i]
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

// segExists is an Exists: opening it reads its input's first window, as
// the tree's Exists reads its input's first batch, and it then yields
// one empty row if that found a row — if it found none, when negated.
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
