package exec

import (
	"gapplydb/internal/types"
)

// Batch counterparts of agg.go. The accumulators (accum) are shared
// with the row engine — the batch operators change how rows arrive, not
// how aggregates fold — so NULL semantics and empty-input behaviour
// stay defined in exactly one place.

// bHashGroupBy materializes groups in first-seen order and emits one
// row per group, in batches. Each row's key is encoded into a reused
// scratch buffer and looked up without allocating; only a group's first
// row allocates (its key string, key row and accumulators).
type bHashGroupBy struct {
	input BatchIterator
	ords  []int
	aggs  []compiledAgg
	ctx   *Context

	index   map[string]int
	scratch []byte
	keys    []types.Row
	states  [][]*accum
	pos     int
	out     Batch
}

func (h *bHashGroupBy) Open() error {
	if err := h.input.Open(); err != nil {
		return err
	}
	if h.index == nil {
		h.index = make(map[string]int)
	} else {
		clear(h.index)
	}
	h.keys, h.states = nil, nil
	for {
		b, err := h.input.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		if err := h.ctx.tickN(n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			r := b.Row(i)
			h.scratch = r.AppendKey(h.scratch[:0], h.ords)
			idx, exists := h.index[string(h.scratch)]
			if !exists {
				st, err := newStates(h.aggs)
				if err != nil {
					return err
				}
				idx = len(h.keys)
				h.index[string(h.scratch)] = idx
				h.keys = append(h.keys, r.Project(h.ords))
				h.states = append(h.states, st)
			}
			if err := feed(h.aggs, h.states[idx], r, h.ctx); err != nil {
				return err
			}
		}
	}
	if err := h.input.Close(); err != nil {
		return err
	}
	h.pos = 0
	return nil
}

func (h *bHashGroupBy) NextBatch() (*Batch, error) {
	if h.pos >= len(h.keys) {
		return nil, nil
	}
	end := h.pos + batchSize
	if end > len(h.keys) {
		end = len(h.keys)
	}
	n := end - h.pos
	width := len(h.ords) + len(h.aggs)
	slab := make(types.Row, 0, n*width)
	rows := make([]types.Row, 0, n)
	for i := h.pos; i < end; i++ {
		start := len(slab)
		slab = append(slab, h.keys[i]...)
		for _, st := range h.states[i] {
			slab = append(slab, st.result())
		}
		rows = append(rows, slab[start:len(slab):len(slab)])
	}
	h.pos = end
	h.out = Batch{Rows: rows}
	return &h.out, nil
}

func (h *bHashGroupBy) Close() error {
	h.keys, h.states = nil, nil
	return nil
}

// bScalarAgg aggregates the whole input into exactly one row —
// including on empty input (count(*)=0, other aggregates NULL).
type bScalarAgg struct {
	input BatchIterator
	aggs  []compiledAgg
	ctx   *Context
	done  bool
	outR  types.Row
	out   Batch
}

func (s *bScalarAgg) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	states, err := newStates(s.aggs)
	if err != nil {
		return err
	}
	for {
		b, err := s.input.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		if err := s.ctx.tickN(n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := feed(s.aggs, states, b.Row(i), s.ctx); err != nil {
				return err
			}
		}
	}
	if err := s.input.Close(); err != nil {
		return err
	}
	s.outR = make(types.Row, len(states))
	for i, st := range states {
		s.outR[i] = st.result()
	}
	s.done = false
	return nil
}

func (s *bScalarAgg) NextBatch() (*Batch, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	s.out = Batch{Rows: []types.Row{s.outR}}
	return &s.out, nil
}

func (s *bScalarAgg) Close() error { return nil }
