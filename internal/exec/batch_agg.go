package exec

import (
	"fmt"
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// accum is one aggregate's running state. SQL semantics: aggregates skip
// NULL inputs (except count(*)); on zero qualifying inputs count is 0 and
// every other aggregate is NULL — the behaviour the paper's emptyOnEmpty
// analysis reasons about.
type accum struct {
	fn       string
	star     bool
	distinct bool
	seen     map[string]bool

	rows     int64 // rows seen (count(*))
	n        int64 // non-null inputs
	sumI     int64
	sumF     float64
	anyFloat bool
	minV     types.Value
	maxV     types.Value
}

func newAccum(spec core.AggSpec) (*accum, error) {
	fn := strings.ToLower(spec.Fn)
	switch fn {
	case "count", "sum", "avg", "min", "max":
	default:
		return nil, fmt.Errorf("exec: unknown aggregate %q", spec.Fn)
	}
	a := &accum{fn: fn, star: spec.Star, distinct: spec.Distinct}
	if spec.Distinct {
		a.seen = make(map[string]bool)
	}
	return a, nil
}

// reset returns the accumulator to its empty state, keeping the
// DISTINCT set's storage.
func (a *accum) reset() {
	seen := a.seen
	clear(seen)
	*a = accum{fn: a.fn, star: a.star, distinct: a.distinct, seen: seen}
}

func (a *accum) add(v types.Value) error {
	a.rows++
	if a.star {
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if a.distinct {
		k := (types.Row{v}).KeyAll()
		if a.seen[k] {
			return nil
		}
		a.seen[k] = true
	}
	a.n++
	switch a.fn {
	case "count":
	case "sum", "avg":
		switch v.K {
		case types.KindInt:
			a.sumI += v.I
			a.sumF += float64(v.I)
		case types.KindFloat:
			a.anyFloat = true
			a.sumF += v.F
		default:
			return fmt.Errorf("exec: %s over non-numeric %s", a.fn, v.K)
		}
	case "min":
		if a.minV.IsNull() {
			a.minV = v
		} else if c, ok := types.Compare(v, a.minV); ok && c < 0 {
			a.minV = v
		}
	case "max":
		if a.maxV.IsNull() {
			a.maxV = v
		} else if c, ok := types.Compare(v, a.maxV); ok && c > 0 {
			a.maxV = v
		}
	}
	return nil
}

func (a *accum) result() types.Value {
	switch a.fn {
	case "count":
		if a.star {
			return types.NewInt(a.rows)
		}
		return types.NewInt(a.n)
	case "sum":
		if a.n == 0 {
			return types.Null
		}
		if a.anyFloat {
			return types.NewFloat(a.sumF)
		}
		return types.NewInt(a.sumI)
	case "avg":
		if a.n == 0 {
			return types.Null
		}
		return types.NewFloat(a.sumF / float64(a.n))
	case "min":
		return a.minV
	case "max":
		return a.maxV
	}
	return types.Null
}

// compiledAgg pairs a spec with its argument evaluator.
type compiledAgg struct {
	spec core.AggSpec
	arg  evalFn // nil for count(*)
}

func compileAggs(specs []core.AggSpec, in *schema.Schema, env compileEnv) ([]compiledAgg, error) {
	out := make([]compiledAgg, len(specs))
	for i, s := range specs {
		ca := compiledAgg{spec: s}
		if !s.Star {
			if s.Arg == nil {
				return nil, fmt.Errorf("exec: aggregate %s missing argument", s.Fn)
			}
			fn, err := compileExpr(s.Arg, in, env)
			if err != nil {
				return nil, err
			}
			ca.arg = fn
		}
		out[i] = ca
	}
	return out, nil
}

func feed(aggs []compiledAgg, states []*accum, r types.Row, ctx *Context) error {
	for i, a := range aggs {
		var v types.Value
		if a.arg != nil {
			var err error
			v, err = a.arg(r, ctx)
			if err != nil {
				return err
			}
		}
		if err := states[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

func newStates(aggs []compiledAgg) ([]*accum, error) {
	states := make([]*accum, len(aggs))
	for i, a := range aggs {
		st, err := newAccum(a.spec)
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	return states, nil
}

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
