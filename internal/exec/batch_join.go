package exec

import (
	"gapplydb/internal/types"
)

// The hash and nested-loops joins. The probe side advances through left
// batches with an explicit cursor (batch, live index, bucket position)
// so output batches are capped at batchSize: a high-fan-out join still
// reaches a cancellation point once per output batch.

// joinOut assembles output rows into shared slabs. Each output row is
// the left row's columns at ordinals left, then the right row's at
// ordinals right: a join's narrowed emission (build_batch.go), or
// GApply's grouping columns ahead of a per-group row. A nil ordinal
// list stands for every column of that side, so the zero value
// concatenates whole rows, as Apply does. Rows are carved from a
// rowSlab, so reset only rewinds the rows container: tiny outputs — the
// per-group inners GApply re-opens thousands of times — cost a few small
// slabs in total instead of a 256-row slab per batch.
type joinOut struct {
	rows        []types.Row
	slab        rowSlab
	left, right []int
}

func (o *joinOut) reset() {
	o.rows = o.rows[:0]
}

// add appends the emission of the pair (a, b) as one output row.
func (o *joinOut) add(a, b types.Row) {
	rw := len(o.right)
	if o.right == nil {
		rw = len(b)
	}
	gather(o.carve(a, rw), b, o.right)
}

// carve appends one output row of a's emission followed by rw values
// and returns those rw values for the caller to fill.
func (o *joinOut) carve(a types.Row, rw int) types.Row {
	lw := len(o.left)
	if o.left == nil {
		lw = len(a)
	}
	o.slab.width = lw + rw
	row := o.slab.carve(o.slab.width)
	gather(row[:lw], a, o.left)
	o.rows = append(o.rows, row)
	return row[lw:]
}

// gather copies the columns ords of src into dst; nil ords copies all.
func gather(dst, src types.Row, ords []int) {
	if ords == nil {
		copy(dst, src)
		return
	}
	for i, c := range ords {
		dst[i] = src[c]
	}
}

// bHashJoin builds a hash table on the right input's equi-columns and
// probes it with left batches — keeping the table across the groups of
// one GApply Open when the right input replays an invariant subtree's
// materialization — with a residual predicate over the concatenated row, and
// left-outer NULL padding. The table is the hash kernel in join mode, so
// a NULL key is neither built nor probed. A nil pred means the build
// proved the condition residual-free (the hash key covers every
// conjunct), so bucket hits emit without evaluation.
//
// post is a fused parent filter (Select-over-Join): it runs after the
// join semantics — residual evaluation, matched tracking, and outer
// padding are all decided first — and gates only what is emitted. It
// evaluates on the reused probe row, so a rejected candidate costs a
// scratch copy instead of a slab append.
type bHashJoin struct {
	left, right BatchIterator
	pred        func(types.Row, *Context) (bool, error)
	post        func(types.Row, *Context) (bool, error)
	ctx         *Context
	leftOrds    []int
	rightOrds   []int
	outerJoin   bool
	rightArity  int
	width       int // left arity + right arity

	// The build: the right rows in input order (in), each one's key id
	// (ids; -1 for a NULL key), and the same rows laid out key by key
	// (runs), key k's being runs[bounds[k]:bounds[k+1]]. Every buffer is
	// reused across re-Opens.
	keys   types.KeyTable
	in     []types.Row
	ids    []int32
	runs   []types.Row
	bounds []int
	built  bool
	epoch  int // of the materialization the table was built from (keptTable)

	lrows   []types.Row // the current left batch's live rows
	lids    []int32     // per row of lrows: its key's id, or -1
	li      int         // next row of lrows
	cur     types.Row
	bucket  []types.Row
	bpos    int
	matched bool
	nulls   types.Row // shared right-side NULL pad

	// probeRow is the reused residual-evaluation row: candidates are
	// assembled here (left half once per left row, right half per bucket
	// row) and only survivors are copied into the output slab. Safe
	// because compiled predicates read Values out of the row and never
	// retain the slice itself.
	probeRow types.Row

	outBuf joinOut
	out    Batch
}

func (h *bHashJoin) Open() error {
	if err := h.right.Open(); err != nil {
		return err
	}
	if !keptTable(h.right, h.built, &h.epoch) {
		h.built = false
		var err error
		if h.in, err = appendDrained(h.in[:0], h.right, h.ctx); err != nil {
			return err
		}
		h.keys.Reset()
		h.ids = h.ids[:0]
		for i := range h.in {
			id, _ := h.keys.Insert(h.in, i, h.rightOrds)
			h.ids = append(h.ids, int32(id))
		}
		if cap(h.runs) < len(h.in) {
			h.runs = h.ctx.arena.headers(len(h.in))
		}
		h.runs, h.bounds = types.Cluster(h.runs, h.bounds, h.keys.Len(), [][]int32{h.ids}, [][]types.Row{h.in})
		h.built = true
	}
	if err := h.right.Close(); err != nil {
		return err
	}
	h.lrows, h.li = h.lrows[:0], 0
	h.cur, h.bucket, h.bpos = nil, nil, 0
	if h.nulls == nil {
		h.nulls = make(types.Row, h.rightArity)
	}
	if (h.pred != nil || h.post != nil) && h.probeRow == nil {
		h.probeRow = make(types.Row, h.width)
	}
	return h.left.Open()
}

// advanceLeft claims the next live left row, pulling left batches as
// needed. ok=false means the left input is exhausted.
func (h *bHashJoin) advanceLeft() (bool, error) {
	for h.li >= len(h.lrows) {
		b, err := h.left.NextBatch()
		if err != nil {
			return false, err
		}
		if b == nil {
			return false, nil
		}
		h.lrows, h.li = b.AppendRows(h.lrows[:0]), 0
		h.lids = h.keys.FindAll(h.lids[:0], h.in, h.rightOrds, h.lrows, h.leftOrds)
	}
	id := h.lids[h.li]
	r := h.lrows[h.li]
	h.li++
	h.ctx.Counters.JoinProbes++
	h.cur = r
	if h.pred != nil || h.post != nil {
		copy(h.probeRow, r)
	}
	h.bucket = nil
	if id >= 0 {
		h.bucket = h.runs[h.bounds[id]:h.bounds[id+1]]
	}
	h.bpos, h.matched = 0, false
	return true, nil
}

func (h *bHashJoin) NextBatch() (*Batch, error) {
	h.outBuf.reset()
	for len(h.outBuf.rows) < batchSize {
		if h.cur == nil {
			ok, err := h.advanceLeft()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if h.pred == nil && h.post == nil {
			// Residual-free: every bucket row is a match by construction.
			n := len(h.bucket) - h.bpos
			if room := batchSize - len(h.outBuf.rows); n > room {
				n = room
			}
			for i := 0; i < n; i++ {
				h.outBuf.add(h.cur, h.bucket[h.bpos+i])
			}
			h.bpos += n
			if n > 0 {
				h.matched = true
			}
		} else {
			for h.bpos < len(h.bucket) && len(h.outBuf.rows) < batchSize {
				rr := h.bucket[h.bpos]
				h.bpos++
				copy(h.probeRow[len(h.cur):], rr)
				if h.pred != nil {
					pass, err := h.pred(h.probeRow, h.ctx)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				h.matched = true
				if h.post != nil {
					pass, err := h.post(h.probeRow, h.ctx)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				h.outBuf.add(h.cur, rr)
			}
		}
		if h.bpos >= len(h.bucket) {
			if h.outerJoin && !h.matched {
				if h.post != nil {
					copy(h.probeRow, h.cur)
					copy(h.probeRow[len(h.cur):], h.nulls)
					pass, err := h.post(h.probeRow, h.ctx)
					if err != nil {
						return nil, err
					}
					if pass {
						h.outBuf.add(h.cur, h.nulls)
					}
				} else {
					h.outBuf.add(h.cur, h.nulls)
				}
			}
			h.cur = nil
		}
	}
	if len(h.outBuf.rows) == 0 {
		return nil, nil
	}
	h.out = Batch{Rows: h.outBuf.rows}
	return &h.out, nil
}

func (h *bHashJoin) Close() error {
	// The build stays for the next Open: probed again when keptTable
	// says it is current, else its buffers are refilled.
	return h.left.Close()
}

// bNLJoin is the nested-loops join with the right side materialized.
// post is the fused parent filter, with bHashJoin's semantics.
type bNLJoin struct {
	left, right BatchIterator
	pred        func(types.Row, *Context) (bool, error)
	post        func(types.Row, *Context) (bool, error)
	ctx         *Context
	outerJoin   bool
	rightArity  int
	width       int

	rightRows []types.Row // the right input, drained
	epoch     int         // of the materialization rightRows was drained from (keptTable)
	lb        *Batch
	li        int
	cur       types.Row
	rpos      int
	matched   bool
	nulls     types.Row
	probeRow  types.Row // reused residual-evaluation row (see bHashJoin)

	outBuf joinOut
	out    Batch
}

func (n *bNLJoin) Open() error {
	if err := n.right.Open(); err != nil {
		return err
	}
	if !keptTable(n.right, n.rightRows != nil, &n.epoch) {
		var err error
		if n.rightRows, err = appendDrained(n.rightRows[:0], n.right, n.ctx); err != nil {
			n.rightRows = nil
			n.right.Close()
			return err
		}
	}
	if err := n.right.Close(); err != nil {
		return err
	}
	n.lb, n.li = nil, 0
	n.cur, n.rpos = nil, 0
	if n.nulls == nil {
		n.nulls = make(types.Row, n.rightArity)
	}
	if n.probeRow == nil {
		n.probeRow = make(types.Row, n.width)
	}
	return n.left.Open()
}

func (n *bNLJoin) advanceLeft() (bool, error) {
	for n.lb == nil || n.li >= n.lb.Len() {
		b, err := n.left.NextBatch()
		if err != nil {
			return false, err
		}
		if b == nil {
			return false, nil
		}
		n.lb, n.li = b, 0
	}
	n.cur = n.lb.Row(n.li)
	n.li++
	copy(n.probeRow, n.cur)
	n.rpos, n.matched = 0, false
	return true, nil
}

func (n *bNLJoin) NextBatch() (*Batch, error) {
	n.outBuf.reset()
	for len(n.outBuf.rows) < batchSize {
		if n.cur == nil {
			ok, err := n.advanceLeft()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		for n.rpos < len(n.rightRows) && len(n.outBuf.rows) < batchSize {
			rr := n.rightRows[n.rpos]
			n.rpos++
			copy(n.probeRow[len(n.cur):], rr)
			pass, err := n.pred(n.probeRow, n.ctx)
			if err != nil {
				return nil, err
			}
			if !pass {
				continue
			}
			n.matched = true
			if n.post != nil {
				pass, err := n.post(n.probeRow, n.ctx)
				if err != nil {
					return nil, err
				}
				if !pass {
					continue
				}
			}
			n.outBuf.add(n.cur, rr)
		}
		if n.rpos >= len(n.rightRows) {
			if n.outerJoin && !n.matched {
				if n.post != nil {
					copy(n.probeRow, n.cur)
					copy(n.probeRow[len(n.cur):], n.nulls)
					pass, err := n.post(n.probeRow, n.ctx)
					if err != nil {
						return nil, err
					}
					if pass {
						n.outBuf.add(n.cur, n.nulls)
					}
				} else {
					n.outBuf.add(n.cur, n.nulls)
				}
			}
			n.cur = nil
		}
	}
	if len(n.outBuf.rows) == 0 {
		return nil, nil
	}
	n.out = Batch{Rows: n.outBuf.rows}
	return &n.out, nil
}

// Close keeps the drained right input for the next Open, as bHashJoin
// keeps its table.
func (n *bNLJoin) Close() error {
	n.lb = nil
	return n.left.Close()
}
