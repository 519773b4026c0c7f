package exec

import (
	"fmt"
	"strings"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// Segmented GApply. The partition phase leaves every group as one
// contiguous run of rows, and the per-group queries the publishing
// workload writes are built from a handful of operators over that run:
// projections of $group, filters, scalar aggregates of $group (DISTINCT
// included), filters of $group against such an aggregate (a cross Apply
// whose inner is a scalar aggregate), and UNION ALL of those. Re-opening
// an iterator tree per group costs a dozen Open/Close calls, a drain, an
// Apply cache fill and a key projection, which on groups of a few rows
// is most of the work. A segment program evaluates the same operators
// directly over the group's slice: a scalar aggregate folds the run in
// one pass when it is opened, and filters and projections then pull the
// run row by row, writing each surviving output row, prefixed with the
// grouping columns, straight into the GApply's output slab. Nothing is
// allocated per group: every node's scratch (its output row, its
// accumulators) is reset, not reallocated.
//
// The program keeps the iterator tree's evaluation order exactly: a
// node opens when its consumer would open it, a union opens its inputs
// in turn, and an Apply evaluates its scalar inner for the first outer
// row and serves the rest from that result. So the counters the tree
// would tally come out identical (GroupScanRows per row read,
// ApplyExecs once per Apply whose outer yields rows, ApplyCacheHits for
// the rest), and under a Profile every node is credited the Rows and
// Opens its probe would record; the program's wall time is credited to
// the inner root.
//
// Any other shape — joins, GROUP BY, DISTINCT, ORDER BY, EXISTS, a
// nested GApply, an OuterRef anywhere in the inner, or an Apply whose
// inner is not a scalar aggregate — keeps the re-opened iterator tree
// (treeExec in batch_gapply.go). Spooled invariant subtrees cannot
// occur in a lowered inner: every lowered leaf is a GroupScan.

// SegmentLowers reports whether g's per-group query runs as a segment
// program rather than as an iterator tree re-opened per group. The
// decision reads the plan shape only.
func SegmentLowers(g *core.GApply) bool {
	return len(core.OuterRefsIn(g.Inner)) == 0 && segLowerable(g.Inner, g.GroupVar)
}

// segLowerable reports whether n is built only from node kinds a
// segment program evaluates, over GroupScans of groupVar. It does not
// look at OuterRefs; callers check those once for the whole inner.
func segLowerable(n core.Node, groupVar string) bool {
	switch x := n.(type) {
	case *core.GroupScan:
		return strings.EqualFold(x.Var, groupVar)
	case *core.Project:
		return segLowerable(x.Input, groupVar)
	case *core.Select:
		return segLowerable(x.Input, groupVar)
	case *core.AggOp:
		return segLowerable(x.Input, groupVar)
	case *core.UnionAll:
		for _, in := range x.Inputs {
			if !segLowerable(in, groupVar) {
				return false
			}
		}
		return len(x.Inputs) > 0
	case *core.Apply:
		return x.Kind == core.CrossApply && segLowerable(x.Outer, groupVar) && segScalar(x.Inner, groupVar)
	}
	return false
}

// segScalar reports whether n yields exactly one row per evaluation:
// projections over a scalar aggregate of a lowerable input.
func segScalar(n core.Node, groupVar string) bool {
	for {
		switch x := n.(type) {
		case *core.Project:
			n = x.Input
		case *core.AggOp:
			return segLowerable(x.Input, groupVar)
		default:
			return false
		}
	}
}

// segProgram is a lowered per-group query bound to one Context: the
// serial phase's, or a parallel worker's.
type segProgram struct {
	root      segNode
	rootStats *NodeStats // the inner root's profile cell; nil when not profiling
	ctx       *Context
	group     []types.Row // the group being evaluated, read by segScan
}

// segNode is one lowered operator. open prepares it for an evaluation
// over the program's current group, as Open prepares an iterator; next
// returns its next row, valid until the following next call on the
// same node, or ok=false once the node is exhausted.
type segNode interface {
	open(p *segProgram) error
	next(p *segProgram) (types.Row, bool, error)
}

// buildSegment compiles a lowerable inner plan (segLowerable, and free
// of OuterRefs) into a program over ctx. Compilation visits the nodes
// in the order buildBatch would, so a plan that does not compile fails
// with the error the iterator tree's build reports.
func buildSegment(inner core.Node, ctx *Context) (*segProgram, error) {
	root, err := compileSegNode(inner, ctx)
	if err != nil {
		return nil, err
	}
	return &segProgram{root: root, rootStats: segStats(inner, ctx), ctx: ctx}, nil
}

// segStats is n's profile cell under ctx, or nil when not profiling.
func segStats(n core.Node, ctx *Context) *NodeStats {
	if ctx.Prof == nil {
		return nil
	}
	return ctx.Prof.node(n)
}

func compileSegNode(n core.Node, ctx *Context) (segNode, error) {
	switch x := n.(type) {
	case *core.GroupScan:
		return &segScan{stats: segStats(n, ctx)}, nil

	case *core.Select:
		in, err := compileSegNode(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		pred, err := compilePredicate(x.Cond, x.Input.Schema(), nil)
		if err != nil {
			return nil, err
		}
		return &segSelect{in: in, pred: pred, stats: segStats(n, ctx)}, nil

	case *core.Project:
		in, err := compileSegNode(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		p := &segProject{in: in, cols: make([]segCol, len(x.Exprs)), row: make(types.Row, len(x.Exprs)), stats: segStats(n, ctx)}
		inSchema := x.Input.Schema()
		for i, e := range x.Exprs {
			ord, lit, ok := kernelOperand(e, inSchema)
			p.cols[i] = segCol{ord: ord, lit: lit}
			if !ok {
				if p.cols[i].fn, err = compileExpr(e, inSchema, nil); err != nil {
					return nil, err
				}
			}
		}
		return p, nil

	case *core.AggOp:
		in, err := compileSegNode(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		aggs, err := compileAggs(x.Aggs, x.Input.Schema(), nil)
		if err != nil {
			return nil, err
		}
		a := &segAgg{in: in, aggs: aggs, row: make(types.Row, len(aggs)), stats: segStats(n, ctx)}
		// The iterator tree creates its accumulators when it opens, so an
		// aggregate it cannot create fails at run time, not at build.
		a.states, a.err = appendStates(nil, aggs)
		return a, nil

	case *core.UnionAll:
		arity := x.Inputs[0].Schema().Len()
		u := &segUnion{ins: make([]segNode, len(x.Inputs)), stats: segStats(n, ctx)}
		for i, c := range x.Inputs {
			if c.Schema().Len() != arity {
				return nil, fmt.Errorf("exec: union input %d has %d columns, want %d", i, c.Schema().Len(), arity)
			}
			in, err := compileSegNode(c, ctx)
			if err != nil {
				return nil, err
			}
			u.ins[i] = in
		}
		return u, nil

	case *core.Apply:
		outer, err := compileSegNode(x.Outer, ctx)
		if err != nil {
			return nil, err
		}
		inner, err := compileSegNode(x.Inner, ctx)
		if err != nil {
			return nil, err
		}
		width := x.Outer.Schema().Len()
		return &segApply{
			in: outer, inner: inner, outerWidth: width,
			row:   make(types.Row, width+x.Inner.Schema().Len()),
			stats: segStats(n, ctx),
		}, nil
	}
	return nil, fmt.Errorf("exec: %T does not lower to a segment program", n)
}

// run evaluates the program over one group, appending each output row,
// prefixed with the group's grouping columns, to out (whose left
// ordinals are the grouping columns). It always finishes the group,
// whatever the limit: a lowered query's output grows with the group's
// rows, which the partition holds already.
func (p *segProgram) run(group []types.Row, out *joinOut, _ int) (bool, error) {
	if p.rootStats == nil {
		return true, p.eval(group, out)
	}
	start := time.Now()
	err := p.eval(group, out)
	p.rootStats.Time += time.Since(start)
	return true, err
}

func (p *segProgram) close() error { return nil }

func (p *segProgram) eval(group []types.Row, out *joinOut) error {
	p.group = group
	if err := p.root.open(p); err != nil {
		return err
	}
	for {
		r, ok, err := p.root.next(p)
		if err != nil || !ok {
			return err
		}
		out.add(group[0], r)
	}
}

// segScan reads the group's run: the lowered GroupScan. It polls
// cancellation per row, so a program that works through many small
// groups still reaches a poll every cancelBatch rows.
type segScan struct {
	stats *NodeStats
	pos   int
}

func (s *segScan) open(*segProgram) error {
	s.pos = 0
	if s.stats != nil {
		s.stats.Opens++
	}
	return nil
}

func (s *segScan) next(p *segProgram) (types.Row, bool, error) {
	if s.pos >= len(p.group) {
		return nil, false, nil
	}
	if err := p.ctx.tick(); err != nil {
		return nil, false, err
	}
	r := p.group[s.pos]
	s.pos++
	p.ctx.Counters.GroupScanRows++
	if s.stats != nil {
		s.stats.Rows++
	}
	return r, true, nil
}

// segSelect passes the input rows its predicate accepts.
type segSelect struct {
	in    segNode
	pred  func(types.Row, *Context) (bool, error)
	stats *NodeStats
}

func (s *segSelect) open(p *segProgram) error {
	if s.stats != nil {
		s.stats.Opens++
	}
	return s.in.open(p)
}

func (s *segSelect) next(p *segProgram) (types.Row, bool, error) {
	for {
		r, ok, err := s.in.next(p)
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := s.pred(r, p.ctx)
		if err != nil {
			return nil, false, err
		}
		if pass {
			if s.stats != nil {
				s.stats.Rows++
			}
			return r, true, nil
		}
	}
}

// segProject computes its output into one reused row.
type segProject struct {
	in    segNode
	cols  []segCol
	row   types.Row
	stats *NodeStats
}

// segCol is one projected column: a column of the input row (ord ≥ 0),
// a literal, or any other expression, compiled (fn).
type segCol struct {
	ord int
	lit types.Value
	fn  evalFn
}

func (s *segProject) open(p *segProgram) error {
	if s.stats != nil {
		s.stats.Opens++
	}
	return s.in.open(p)
}

func (s *segProject) next(p *segProgram) (types.Row, bool, error) {
	r, ok, err := s.in.next(p)
	if err != nil || !ok {
		return nil, false, err
	}
	for j := range s.cols {
		switch c := &s.cols[j]; {
		case c.fn != nil:
			v, err := c.fn(r, p.ctx)
			if err != nil {
				return nil, false, err
			}
			s.row[j] = v
		case c.ord >= 0:
			s.row[j] = r[c.ord]
		default:
			s.row[j] = c.lit
		}
	}
	if s.stats != nil {
		s.stats.Rows++
	}
	return s.row, true, nil
}

// segAgg is a scalar aggregate: opening it folds its whole input into
// the accumulators, which are reset, not reallocated, per evaluation.
// Rows are fed in the group's order, so float sums and averages are
// bit-identical to the iterator tree's.
type segAgg struct {
	in     segNode
	aggs   []compiledAgg
	states []accum
	err    error // accumulator creation failed; reported on open
	row    types.Row
	done   bool
	stats  *NodeStats
}

func (a *segAgg) open(p *segProgram) error {
	if a.stats != nil {
		a.stats.Opens++
	}
	if a.err != nil {
		return a.err
	}
	for i := range a.states {
		a.states[i].reset()
	}
	if err := a.in.open(p); err != nil {
		return err
	}
	for {
		r, ok, err := a.in.next(p)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := feed(a.aggs, a.states, r, p.ctx); err != nil {
			return err
		}
	}
	for i := range a.states {
		a.row[i] = a.states[i].result()
	}
	a.done = false
	return nil
}

func (a *segAgg) next(*segProgram) (types.Row, bool, error) {
	if a.done {
		return nil, false, nil
	}
	a.done = true
	if a.stats != nil {
		a.stats.Rows++
	}
	return a.row, true, nil
}

// segUnion concatenates its inputs, opening each when the previous one
// is exhausted.
type segUnion struct {
	ins   []segNode
	cur   int
	stats *NodeStats
}

func (u *segUnion) open(p *segProgram) error {
	if u.stats != nil {
		u.stats.Opens++
	}
	u.cur = 0
	return u.ins[0].open(p)
}

func (u *segUnion) next(p *segProgram) (types.Row, bool, error) {
	for u.cur < len(u.ins) {
		r, ok, err := u.ins[u.cur].next(p)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if u.stats != nil {
				u.stats.Rows++
			}
			return r, true, nil
		}
		u.cur++
		if u.cur < len(u.ins) {
			if err := u.ins[u.cur].open(p); err != nil {
				return nil, false, err
			}
		}
	}
	return nil, false, nil
}

// segApply is a cross Apply whose inner is uncorrelated: it evaluates
// the inner once, for the first outer row, and extends every outer row
// with that result — the Apply cache, whose validity is one evaluation
// of the enclosing node. An inner that yields no row rejects every
// outer row, as a cross Apply does.
type segApply struct {
	in, inner  segNode
	outerWidth int
	row        types.Row // outer row ++ inner row
	have       bool      // inner evaluated for this open
	empty      bool      // …and it yielded no row
	stats      *NodeStats
}

func (a *segApply) open(p *segProgram) error {
	if a.stats != nil {
		a.stats.Opens++
	}
	a.have = false
	return a.in.open(p)
}

func (a *segApply) next(p *segProgram) (types.Row, bool, error) {
	for {
		r, ok, err := a.in.next(p)
		if err != nil || !ok {
			return nil, false, err
		}
		if a.have {
			p.ctx.Counters.ApplyCacheHits++
		} else {
			p.ctx.Counters.ApplyExecs++
			if err := a.inner.open(p); err != nil {
				return nil, false, err
			}
			sc, ok, err := a.inner.next(p)
			if err != nil {
				return nil, false, err
			}
			copy(a.row[a.outerWidth:], sc)
			a.have, a.empty = true, !ok
		}
		if a.empty {
			continue
		}
		copy(a.row[:a.outerWidth], r)
		if a.stats != nil {
			a.stats.Rows++
		}
		return a.row, true, nil
	}
}
