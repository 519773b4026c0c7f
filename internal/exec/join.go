package exec

import (
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// The join operator. Every join, and every Apply a segment program does
// not run natively, is one loop: for each left row, find its matching
// right rows, and emit the left row followed by each match that passes
// the residual predicate and the fused post-filter, padding a left row
// that matched nothing with NULLs in a left-outer join or outer Apply.
// The methods differ only in how they ready the right side at Open and
// how they find one left row's matches:
//
//   - hash: a hash table on the right input's equi-columns; a left
//     batch's key ids come from one probe of the table, and a row's
//     matches are its key's run of build rows.
//   - merge: the right input arrives in equi-key order (an IndexScan
//     placed by the optimizer's order pass), so the join binary-searches
//     a key-ordered run for each left row's equal range. When the right
//     input is a bare key-order IndexScan the run is the index's own
//     stored run, probed in place (indexProbe); otherwise — a Select or
//     Project over the scan, or an invariant subtree's materialization —
//     the join drains the input and builds a run over it.
//   - nested loops: the right input drained; every row is a candidate.
//   - apply: the right input is the Apply's inner, drained once per left
//     row with the row pushed on the context's outer stack, where
//     compiled OuterRefs read it — the correlated subquery execution
//     model the paper builds GApply's physical implementation on. An
//     inner with no outer references cannot change across the left
//     rows, so it is drained once per Open (the cached-subquery
//     optimization; a GApply's program re-opens the Apply for every
//     group, so no group sees another group's cache).
//
// Output is byte-identical across methods: the left streams in its
// original order, and within a left row matches emit in right-input
// order — the hash bucket's insertion order, and the merge run's tie
// order, since its sort is stable. The order-preserving key encoding is
// canonical over value equality (cross-type numerics, -0.0, NaN), so an
// equal range brackets exactly the rows a hash bucket would hold.
//
// The left side advances with an explicit cursor (batch, row, match
// position), so output batches are capped at batchSize: a high-fan-out
// join still reaches a cancellation point once per output batch.

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

// joinMethod is how a join finds a left row's matches.
type joinMethod uint8

const (
	joinHash joinMethod = iota
	joinMerge
	joinLoops
	joinApply
)

// bJoin is the join operator. pred is the residual over the reused
// probe row (the left row, then a candidate): nil when the build proved
// the condition residual-free — the hash or merge key covers every
// conjunct — so matches emit without evaluation.
//
// post is a fused parent filter (Select-over-Join): it runs after the
// join semantics — residual evaluation, matched tracking, and outer
// padding are all decided first — and gates only what is emitted. It
// evaluates on the probe row, so a rejected candidate costs a scratch
// copy instead of a slab append. The probe row is safe to reuse because
// compiled predicates read Values out of the row and never retain the
// slice itself.
type bJoin struct {
	method      joinMethod
	left, right BatchIterator // right is nil for a probed merge
	pred, post  func(types.Row, *Context) (bool, error)
	ctx         *Context
	outer       bool // left-outer join or outer Apply: pad a left row without matches
	rightArity  int
	width       int // left arity + right arity

	// in is the right input as drained: the build rows, or an Apply's
	// inner rows for the current left row. built says the build over it
	// is current (for an Apply, the uncorrelated inner's cache); epoch is
	// the materialization it was drained from (keptTable). Every buffer
	// is reused across re-Opens.
	in           []types.Row
	built        bool
	epoch        int
	hash         hashBuild
	merge        mergeBuild
	uncorrelated bool // an Apply's inner holds no OuterRef

	lrows    []types.Row // the current left batch's live rows
	li       int         // next row of lrows
	cur      types.Row   // the left row being joined; nil between rows
	match    []types.Row // its candidate right rows
	mpos     int         // next candidate
	matched  bool
	nulls    types.Row // shared right-side NULL pad
	probeRow types.Row // nil when neither pred nor post evaluates

	outBuf joinOut
	out    Batch
}

// hashBuild is a hash join's table: the right rows' key ids (ids; -1
// for a NULL key, which join mode neither builds nor probes), the rows
// laid out key by key (runs), key k's being runs[bounds[k]:bounds[k+1]],
// and the current left batch's key ids (lids).
type hashBuild struct {
	keys                types.KeyTable
	leftOrds, rightOrds []int
	ids                 []int32
	runs                []types.Row
	bounds              []int
	lids                []int32
}

// mergeBuild is a merge join's right side: a sorted run of encoded keys
// and the rows its positions index (row i of the run is rows[run.Pos[i]]).
// A probed join points it at the index's run and the table's heap; a
// drained join builds own over the rows it drained, with keys' buffers.
// win holds the current left row's equal range.
type mergeBuild struct {
	probe             indexProbe // probe.plan is nil for a drained join
	leftOrd, rightOrd int
	run               *storage.IndexRun
	rows              []types.Row
	own               storage.IndexRun
	keys              types.OrderKeys
	keyBuf            []byte
	win               []types.Row
}

func (j *bJoin) Open() error {
	switch {
	case j.method == joinApply:
		j.built = false
	case j.merge.probe.plan != nil:
		run, rows, err := j.merge.probe.open(j.ctx)
		if err != nil {
			return err
		}
		j.merge.run, j.merge.rows = run, rows
	default:
		if err := j.openRight(); err != nil {
			return err
		}
	}
	if j.lrows == nil {
		j.lrows = j.ctx.arena.headers(batchSize)
	}
	j.lrows, j.li, j.cur = j.lrows[:0], 0, nil
	if j.nulls == nil {
		j.nulls = make(types.Row, j.rightArity)
	}
	if (j.pred != nil || j.post != nil) && j.probeRow == nil {
		j.probeRow = make(types.Row, j.width)
	}
	return j.left.Open()
}

// openRight drains the right input and builds the method's table or
// run over it — unless the right input replays the materialization of
// the same GApply Open as the last build, which stays current for every
// group (keptTable).
func (j *bJoin) openRight() error {
	if err := j.right.Open(); err != nil {
		return err
	}
	if keptTable(j.right, j.built, &j.epoch) {
		return j.right.Close()
	}
	j.built = false
	if err := j.drain(); err != nil {
		return err
	}
	switch j.method {
	case joinHash:
		j.hash.build(j.in, j.ctx.arena)
	case joinMerge:
		j.merge.build(j.in)
	}
	j.built = true
	return nil
}

// drain refills in with the rows of the open right input and closes it.
func (j *bJoin) drain() error {
	var err error
	if j.in, err = appendDrained(j.in[:0], j.right, j.ctx); err != nil {
		j.right.Close()
		return err
	}
	return j.right.Close()
}

// build fills the table from the rows in.
func (h *hashBuild) build(in []types.Row, a *arena) {
	h.keys.Reset()
	h.ids = h.ids[:0]
	for i := range in {
		id, _ := h.keys.Insert(in, i, h.rightOrds)
		h.ids = append(h.ids, int32(id))
	}
	if cap(h.runs) < len(in) {
		h.runs = a.headers(len(in))
	}
	h.runs, h.bounds = types.Cluster(h.runs, h.bounds, h.keys.Len(), [][]int32{h.ids}, [][]types.Row{in})
}

// build encodes the key column of each drained row and sorts the run.
// The planner guarantees key order, which the sort confirms in linear
// time; if the order ever fails (a planner bug, or an order-providing
// input that lied), the stable sort re-establishes it with identical
// tie order rather than emit misjoined output.
func (m *mergeBuild) build(rows []types.Row) {
	m.keys.Reset()
	for _, r := range rows {
		m.keys.Append(r[m.rightOrd], false)
		m.keys.EndRow()
	}
	m.own.Fill(&m.keys)
	m.run, m.rows = &m.own, rows
}

// equalRange returns the run's rows whose key is the left row's,
// counting them as scanned when probing an index.
func (m *mergeBuild) equalRange(r types.Row, ctx *Context) []types.Row {
	k := r[m.leftOrd]
	if k.IsNull() {
		return nil
	}
	m.keyBuf = storage.EncodeIndexKey(m.keyBuf[:0], k)
	var lo, hi int
	if m.probe.plan != nil {
		lo, hi = m.probe.seek(m.run, m.keyBuf, ctx)
	} else {
		lo, hi = m.run.EqualRange(m.keyBuf)
	}
	if cap(m.win) < hi-lo {
		m.win = ctx.arena.headers(max(hi-lo, batchSize))
	}
	m.win = m.win[:hi-lo]
	for i, p := range m.run.Pos[lo:hi] {
		m.win[i] = m.rows[p]
	}
	return m.win
}

// advanceLeft claims the next live left row, pulling left batches as
// needed, and finds its matches. ok=false means the left input is
// exhausted.
func (j *bJoin) advanceLeft() (bool, error) {
	for j.li >= len(j.lrows) {
		b, err := j.left.NextBatch()
		if err != nil || b == nil {
			return false, err
		}
		j.lrows, j.li = b.AppendRows(j.lrows[:0]), 0
		if j.method == joinHash {
			j.hash.lids = j.hash.keys.FindAll(j.hash.lids[:0], j.in, j.hash.rightOrds, j.lrows, j.hash.leftOrds)
		}
	}
	r := j.lrows[j.li]
	switch j.method {
	case joinHash:
		j.ctx.Counters.JoinProbes++
		j.match = nil
		if id := j.hash.lids[j.li]; id >= 0 {
			j.match = j.hash.runs[j.hash.bounds[id]:j.hash.bounds[id+1]]
		}
	case joinMerge:
		j.ctx.Counters.JoinProbes++
		j.match = j.merge.equalRange(r, j.ctx)
	case joinLoops:
		j.match = j.in
	case joinApply:
		if j.uncorrelated && j.built {
			j.ctx.Counters.ApplyCacheHits++
		} else {
			j.ctx.Counters.ApplyExecs++
			j.ctx.pushOuter(r)
			err := j.right.Open()
			if err == nil {
				err = j.drain()
			}
			j.ctx.popOuter()
			if err != nil {
				return false, err
			}
			j.built = true
		}
		j.match = j.in
	}
	j.li++
	j.cur, j.mpos, j.matched = r, 0, false
	if j.probeRow != nil {
		copy(j.probeRow, r)
	}
	return true, nil
}

func (j *bJoin) NextBatch() (*Batch, error) {
	j.outBuf.reset()
	for len(j.outBuf.rows) < batchSize {
		if j.cur == nil {
			ok, err := j.advanceLeft()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if j.probeRow == nil {
			// Residual-free: every candidate is a match by construction.
			n := min(len(j.match)-j.mpos, batchSize-len(j.outBuf.rows))
			for _, rr := range j.match[j.mpos : j.mpos+n] {
				j.outBuf.add(j.cur, rr)
			}
			j.mpos += n
			j.matched = j.matched || n > 0
		} else {
			for j.mpos < len(j.match) && len(j.outBuf.rows) < batchSize {
				rr := j.match[j.mpos]
				j.mpos++
				copy(j.probeRow[len(j.cur):], rr)
				if j.pred != nil {
					pass, err := j.pred(j.probeRow, j.ctx)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				j.matched = true
				if j.post != nil {
					pass, err := j.post(j.probeRow, j.ctx)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				j.outBuf.add(j.cur, rr)
			}
		}
		if j.mpos >= len(j.match) {
			if j.outer && !j.matched {
				pass := true
				if j.post != nil {
					copy(j.probeRow[len(j.cur):], j.nulls)
					var err error
					if pass, err = j.post(j.probeRow, j.ctx); err != nil {
						return nil, err
					}
				}
				if pass {
					j.outBuf.add(j.cur, j.nulls)
				}
			}
			j.cur = nil
		}
	}
	if len(j.outBuf.rows) == 0 {
		return nil, nil
	}
	j.out = Batch{Rows: j.outBuf.rows}
	return &j.out, nil
}

// Close keeps the build for the next Open: probed again when keptTable
// says it is current, else its buffers are refilled.
func (j *bJoin) Close() error {
	return j.left.Close()
}
