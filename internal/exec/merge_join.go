package exec

import (
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Merge join: the right input arrives in equi-key order (an IndexScan
// placed by the optimizer's order pass), so instead of building a hash
// table the join binary-searches a key-ordered run for the equal range
// of each streaming left row. When the right input is a bare key-order
// IndexScan the run is the index's own stored run, probed in place
// (indexProbe); otherwise — a Select or Project over the scan, or an
// invariant subtree's materialization — the join drains the input and
// builds a run over it.
//
// Output is byte-identical to the hash join by construction: the left
// streams in its original order (never reordered), and within a left
// row matches emit in right-input order — which is exactly the hash
// bucket's insertion order, since the hash build drains the same right
// input. The order-preserving key encoding is canonical over value
// equality (cross-type numerics, -0.0, NaN), so the equal range brackets
// exactly the rows a hash bucket would hold.

// mergeRun is the right side a merge join searches: a sorted run of
// encoded keys and the rows its positions index (row i of the run is
// rows[run.Pos[i]]). A probed join points it at the index's run and the
// table's heap; a drained join builds a run over the rows it drained.
type mergeRun struct {
	run  *storage.IndexRun
	rows []types.Row
}

// newMergeRun encodes the key column of each drained row and sorts the
// run. The planner guarantees key order, which the sort confirms in
// linear time; if the order ever fails (a planner bug, or an
// order-providing input that lied), the stable sort re-establishes it
// with identical tie order rather than emit misjoined output.
func newMergeRun(rows []types.Row, ord int) mergeRun {
	var keys types.OrderKeys
	for _, r := range rows {
		keys.Append(r[ord], false)
		keys.EndRow()
	}
	return mergeRun{run: storage.NewIndexRun(&keys), rows: rows}
}

// row returns the run's i-th row.
func (m *mergeRun) row(i int) types.Row { return m.rows[m.run.Pos[i]] }

// equalRange brackets the run entries whose key is k — a left row's
// encoded join key — counting them as scanned when probing.
func equalRange(probe *indexProbe, run *mergeRun, k []byte, ctx *Context) (int, int) {
	if probe != nil {
		return probe.seek(run, k, ctx)
	}
	return run.run.EqualRange(k)
}

// bMergeJoin is the merge join. It mirrors bHashJoin's cursor
// structure, reused probe row, fused post-filter, residual-free fast
// path (pred == nil when the equi-key covers the whole condition), and
// output slab discipline — with the hash table replaced by the
// key-ordered run and bucket lookups by binary search. right is nil
// when probe is set.
type bMergeJoin struct {
	left, right BatchIterator
	probe       *indexProbe
	pred        func(types.Row, *Context) (bool, error)
	post        func(types.Row, *Context) (bool, error)
	ctx         *Context
	leftOrd     int
	rightOrd    int
	outerJoin   bool
	rightArity  int
	width       int

	run    mergeRun
	epoch  int // of the materialization the run was built from (keptTable)
	keyBuf []byte

	lb       *Batch
	li       int
	cur      types.Row
	bpos     int // current left row's equal range of run offsets
	bend     int
	matched  bool
	nulls    types.Row
	probeRow types.Row

	outBuf joinOut
	out    Batch
}

func (m *bMergeJoin) Open() error {
	if m.probe != nil {
		run, err := m.probe.open(m.ctx)
		if err != nil {
			return err
		}
		m.run = run
	} else if err := m.drainRight(); err != nil {
		return err
	}
	m.lb, m.li = nil, 0
	m.cur, m.bpos, m.bend = nil, 0, 0
	if m.nulls == nil {
		m.nulls = make(types.Row, m.rightArity)
	}
	if (m.pred != nil || m.post != nil) && m.probeRow == nil {
		m.probeRow = make(types.Row, m.width)
	}
	return m.left.Open()
}

// drainRight materializes the right input as a merge run, keeping the
// run across the groups of one GApply Open when the right input replays
// an invariant subtree's materialization.
func (m *bMergeJoin) drainRight() error {
	if err := m.right.Open(); err != nil {
		return err
	}
	if !keptTable(m.right, m.run.run != nil, &m.epoch) {
		var rows []types.Row
		for {
			b, err := m.right.NextBatch()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if err := m.ctx.tickN(b.Len()); err != nil {
				return err
			}
			rows = b.AppendRows(rows)
		}
		m.run = newMergeRun(rows, m.rightOrd)
	}
	return m.right.Close()
}

func (m *bMergeJoin) advanceLeft() (bool, error) {
	for m.lb == nil || m.li >= m.lb.Len() {
		b, err := m.left.NextBatch()
		if err != nil {
			return false, err
		}
		if b == nil {
			return false, nil
		}
		m.lb, m.li = b, 0
	}
	r := m.lb.Row(m.li)
	m.li++
	m.ctx.Counters.JoinProbes++
	m.cur = r
	if m.pred != nil || m.post != nil {
		copy(m.probeRow, r)
	}
	if r[m.leftOrd].IsNull() {
		m.bpos, m.bend = 0, 0
	} else {
		m.keyBuf = storage.EncodeIndexKey(m.keyBuf[:0], r[m.leftOrd])
		m.bpos, m.bend = equalRange(m.probe, &m.run, m.keyBuf, m.ctx)
	}
	m.matched = false
	return true, nil
}

func (m *bMergeJoin) NextBatch() (*Batch, error) {
	m.outBuf.reset()
	for len(m.outBuf.rows) < batchSize {
		if m.cur == nil {
			ok, err := m.advanceLeft()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if m.pred == nil && m.post == nil {
			// Residual-free: every row in the equal range is a match.
			n := m.bend - m.bpos
			if room := batchSize - len(m.outBuf.rows); n > room {
				n = room
			}
			for i := 0; i < n; i++ {
				m.outBuf.add(m.cur, m.run.row(m.bpos+i))
			}
			m.bpos += n
			if n > 0 {
				m.matched = true
			}
		} else {
			for m.bpos < m.bend && len(m.outBuf.rows) < batchSize {
				rr := m.run.row(m.bpos)
				m.bpos++
				copy(m.probeRow[len(m.cur):], rr)
				if m.pred != nil {
					pass, err := m.pred(m.probeRow, m.ctx)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				m.matched = true
				if m.post != nil {
					pass, err := m.post(m.probeRow, m.ctx)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				m.outBuf.add(m.cur, rr)
			}
		}
		if m.bpos >= m.bend {
			if m.outerJoin && !m.matched {
				if m.post != nil {
					copy(m.probeRow, m.cur)
					copy(m.probeRow[len(m.cur):], m.nulls)
					pass, err := m.post(m.probeRow, m.ctx)
					if err != nil {
						return nil, err
					}
					if pass {
						m.outBuf.add(m.cur, m.nulls)
					}
				} else {
					m.outBuf.add(m.cur, m.nulls)
				}
			}
			m.cur = nil
		}
	}
	if len(m.outBuf.rows) == 0 {
		return nil, nil
	}
	m.out = Batch{Rows: m.outBuf.rows}
	return &m.out, nil
}

func (m *bMergeJoin) Close() error {
	if _, kept := m.right.(*bReplay); !kept {
		m.run = mergeRun{}
	}
	m.lb = nil
	return m.left.Close()
}
