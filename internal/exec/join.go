package exec

import (
	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

func buildJoin(j *core.Join, ctx *Context, env compileEnv) (Iterator, error) {
	left, err := build(j.Left, ctx, env)
	if err != nil {
		return nil, err
	}
	probe, err := probedRight(j, ctx)
	if err != nil {
		return nil, err
	}
	var right Iterator
	if probe == nil {
		if right, err = build(j.Right, ctx, env); err != nil {
			return nil, err
		}
	}
	outSchema := j.Schema()
	pred, err := compilePredicate(j.Cond, outSchema, env)
	if err != nil {
		return nil, err
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
		return &mergeJoin{
			left: left, right: right, probe: probe, pred: pred, ctx: ctx,
			leftOrd: lo, rightOrd: ro,
			outerJoin: j.Kind == core.LeftOuterJoin, rightArity: rightArity,
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
		return &hashJoin{
			left: left, right: right, pred: pred, ctx: ctx,
			leftOrds: leftOrds, rightOrds: rightOrds,
			outerJoin: j.Kind == core.LeftOuterJoin, rightArity: rightArity,
		}, nil
	}
	return &nlJoin{
		left: left, right: right, pred: pred, ctx: ctx,
		outerJoin: j.Kind == core.LeftOuterJoin, rightArity: rightArity,
	}, nil
}

// hashJoin builds a hash table on the right input's equi-columns and
// probes it with left rows; the full join condition runs as a residual
// predicate over the concatenated row. Left-outer pads NULLs for
// unmatched left rows.
//
// When the right input is a stable materialization (a spool: it reports
// a content generation), the build table is kept across re-Opens and
// rebuilt only when the generation changes — so a per-group query that
// joins $group against an invariant build side pays the rehash once per
// gapply.Open instead of once per group.
type hashJoin struct {
	left, right Iterator
	pred        func(types.Row, *Context) (bool, error)
	ctx         *Context
	leftOrds    []int
	rightOrds   []int
	outerJoin   bool
	rightArity  int

	table    map[string][]types.Row
	tableGen uint64 // spool generation the table was built from
	hasGen   bool   // table came from a generation-stable right input
	scratch  []byte // per-iterator probe-key buffer (no per-row alloc)
	cur      types.Row
	bucket   []types.Row
	bpos     int
	matched  bool
}

func (h *hashJoin) Open() error {
	// Always Open the right input — for a spool that is where the
	// build-once/replay accounting happens, deterministically once per
	// group at any dop — and only skip the drain+rehash when the content
	// generation says the existing table is still current.
	if err := h.right.Open(); err != nil {
		return err
	}
	rebuild := true
	if cv, ok := h.right.(contentVersioned); ok {
		if gen, stable := cv.contentGen(); stable {
			if h.hasGen && h.table != nil && gen == h.tableGen {
				rebuild = false
			} else {
				h.tableGen, h.hasGen = gen, true
			}
		} else {
			h.hasGen = false
		}
	}
	if rebuild {
		h.table = make(map[string][]types.Row)
		for {
			if err := h.ctx.tick(); err != nil {
				return err
			}
			r, ok, err := h.right.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			h.scratch = r.AppendKey(h.scratch[:0], h.rightOrds)
			k := string(h.scratch) // the map key must own its bytes
			h.table[k] = append(h.table[k], r)
		}
	}
	if err := h.right.Close(); err != nil {
		return err
	}
	h.cur, h.bucket, h.bpos = nil, nil, 0
	return h.left.Open()
}

func (h *hashJoin) Next() (types.Row, bool, error) {
	for {
		if h.cur == nil {
			r, ok, err := h.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			h.ctx.Counters.JoinProbes++
			h.cur = r
			// NULL join keys never match (predicate equality), so skip
			// the probe; outer join still pads.
			hasNull := false
			for _, o := range h.leftOrds {
				if r[o].IsNull() {
					hasNull = true
					break
				}
			}
			if hasNull {
				h.bucket = nil
			} else {
				// Probe with a reused scratch buffer: m[string(b)] compiles
				// to an allocation-free lookup, so the per-left-row key
				// costs no garbage.
				h.scratch = r.AppendKey(h.scratch[:0], h.leftOrds)
				h.bucket = h.table[string(h.scratch)]
			}
			h.bpos, h.matched = 0, false
		}
		for h.bpos < len(h.bucket) {
			rr := h.bucket[h.bpos]
			h.bpos++
			out := h.cur.Concat(rr)
			pass, err := h.pred(out, h.ctx)
			if err != nil {
				return nil, false, err
			}
			if pass {
				h.matched = true
				return out, true, nil
			}
		}
		if h.outerJoin && !h.matched {
			out := h.cur.Concat(make(types.Row, h.rightArity))
			h.cur = nil
			return out, true, nil
		}
		h.cur = nil
	}
}

func (h *hashJoin) Close() error {
	// A generation-stable table is the whole point of the spool-fed
	// rebuild skip: keep it across the per-group Open/Close cycle.
	// Tables built from an unstable input are dropped as before.
	if !h.hasGen {
		h.table = nil
	}
	return h.left.Close()
}

// nlJoin is a nested-loops join with the right side materialized.
type nlJoin struct {
	left, right Iterator
	pred        func(types.Row, *Context) (bool, error)
	ctx         *Context
	outerJoin   bool
	rightArity  int

	rightRows []types.Row
	cur       types.Row
	rpos      int
	matched   bool
}

func (n *nlJoin) Open() error {
	rows, err := drainWith(n.right, n.ctx)
	if err != nil {
		return err
	}
	n.rightRows = rows
	n.cur, n.rpos = nil, 0
	return n.left.Open()
}

func (n *nlJoin) Next() (types.Row, bool, error) {
	for {
		if n.cur == nil {
			r, ok, err := n.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.cur, n.rpos, n.matched = r, 0, false
		}
		for n.rpos < len(n.rightRows) {
			rr := n.rightRows[n.rpos]
			n.rpos++
			out := n.cur.Concat(rr)
			pass, err := n.pred(out, n.ctx)
			if err != nil {
				return nil, false, err
			}
			if pass {
				n.matched = true
				return out, true, nil
			}
		}
		if n.outerJoin && !n.matched {
			out := n.cur.Concat(make(types.Row, n.rightArity))
			n.cur = nil
			return out, true, nil
		}
		n.cur = nil
	}
}

func (n *nlJoin) Close() error {
	n.rightRows = nil
	return n.left.Close()
}
