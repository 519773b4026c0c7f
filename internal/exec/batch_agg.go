package exec

import (
	"fmt"
	"math"
	"slices"
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
	fn   aggFn
	star bool
	seen *valueSet // DISTINCT only

	rows     int64 // rows seen (count(*))
	n        int64 // non-null inputs
	sumI     int64
	sumF     float64
	anyFloat bool
	best     types.Value // min or max so far
}

// aggFn is an aggregate function, decided once when its accumulator is
// made rather than by name on every value.
type aggFn uint8

const (
	aggCount aggFn = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggNames = [...]string{"count", "sum", "avg", "min", "max"}

func (f aggFn) String() string { return aggNames[f] }

func newAccum(spec core.AggSpec) (accum, error) {
	fn := slices.Index(aggNames[:], strings.ToLower(spec.Fn))
	if fn < 0 {
		return accum{}, fmt.Errorf("exec: unknown aggregate %q", spec.Fn)
	}
	a := accum{fn: aggFn(fn), star: spec.Star}
	if spec.Distinct {
		a.seen = &valueSet{}
	}
	return a, nil
}

// reset returns the accumulator to its empty state, keeping the
// DISTINCT set's storage.
func (a *accum) reset() {
	if a.seen != nil {
		a.seen.reset()
	}
	a.rows, a.n, a.sumI, a.sumF, a.anyFloat = 0, 0, 0, 0, false
	if !a.best.IsNull() {
		a.best = types.Null
	}
}

func (a *accum) add(v types.Value) error {
	a.rows++
	if a.star {
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if a.seen != nil && !a.seen.add(v) {
		return nil
	}
	a.n++
	switch a.fn {
	case aggCount:
	case aggSum, aggAvg:
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
	case aggMin:
		if a.best.IsNull() {
			a.best = v
		} else if c, ok := types.Compare(v, a.best); ok && c < 0 {
			a.best = v
		}
	case aggMax:
		if a.best.IsNull() {
			a.best = v
		} else if c, ok := types.Compare(v, a.best); ok && c > 0 {
			a.best = v
		}
	}
	return nil
}

// fold adds column ord of b's live rows, in order, exactly as add would
// one row at a time, for an aggregate without DISTINCT: the function is
// decided once per batch, not once per value, and each value's kind is
// still switched on, since a column's declared type does not bound the
// kinds it holds. count(*) reads no column. It stops at the first value
// add rejects and returns that row's live index with the error.
func (a *accum) fold(b *Batch, ord int) (int, error) {
	n := b.Len()
	a.rows += int64(n)
	if a.star {
		return n, nil
	}
	switch a.fn {
	case aggCount:
		for i := 0; i < n; i++ {
			if !b.Row(i)[ord].IsNull() {
				a.n++
			}
		}
	case aggSum, aggAvg:
		for i := 0; i < n; i++ {
			switch v := &b.Row(i)[ord]; v.K {
			case types.KindNull:
			case types.KindInt:
				a.n++
				a.sumI += v.I
				a.sumF += float64(v.I)
			case types.KindFloat:
				a.n++
				a.anyFloat = true
				a.sumF += v.F
			default:
				return i, fmt.Errorf("exec: %s over non-numeric %s", a.fn, v.K)
			}
		}
	case aggMin, aggMax:
		sign := -1
		if a.fn == aggMax {
			sign = 1
		}
		for i := 0; i < n; i++ {
			v := &b.Row(i)[ord]
			if v.IsNull() {
				continue
			}
			a.n++
			switch {
			case a.best.IsNull():
				a.best = *v
			case v.K == types.KindFloat && a.best.K == types.KindFloat && !math.IsNaN(v.F) && !math.IsNaN(a.best.F):
				if sign > 0 && v.F > a.best.F || sign < 0 && v.F < a.best.F {
					a.best = *v
				}
			default:
				if c, ok := types.Compare(*v, a.best); ok && c*sign > 0 {
					a.best = *v
				}
			}
		}
	}
	return n, nil
}

// valueSet is a DISTINCT aggregate's set of the values it has counted.
// Each candidate is appended to one slab as a single-column row and
// keyed by the hash kernel, which keeps it only when its key is new.
type valueSet struct {
	keys types.KeyTable
	rows []types.Row // one single-value row per distinct value
	slab types.Row
}

var valueCol = []int{0}

// add reports whether v is new to the set, adding it if so.
func (s *valueSet) add(v types.Value) bool {
	if len(s.slab) == cap(s.slab) {
		// Earlier rows keep pointing into the old slab.
		s.slab = make(types.Row, 0, max(8, 2*cap(s.slab)))
	}
	s.slab = append(s.slab, v)
	n := len(s.slab)
	_, isNew := s.keys.Add(&s.rows, s.slab[n-1:n:n], valueCol)
	if !isNew {
		s.slab = s.slab[:n-1]
	}
	return isNew
}

// reset empties the set, keeping its storage.
func (s *valueSet) reset() {
	s.keys.Reset()
	s.rows, s.slab = s.rows[:0], s.slab[:0]
}

func (a *accum) result() types.Value {
	switch a.fn {
	case aggCount:
		if a.star {
			return types.NewInt(a.rows)
		}
		return types.NewInt(a.n)
	case aggSum:
		if a.n == 0 {
			return types.Null
		}
		if a.anyFloat {
			return types.NewFloat(a.sumF)
		}
		return types.NewInt(a.sumI)
	case aggAvg:
		if a.n == 0 {
			return types.Null
		}
		return types.NewFloat(a.sumF / float64(a.n))
	case aggMin, aggMax:
		return a.best
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

func feed(aggs []compiledAgg, states []accum, r types.Row, ctx *Context) error {
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

// appendStates appends one fresh accumulator per aggregate to states.
func appendStates(states []accum, aggs []compiledAgg) ([]accum, error) {
	for _, a := range aggs {
		st, err := newAccum(a.spec)
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	return states, nil
}

// bHashGroupBy materializes groups in first-seen order and emits one
// row per group, in batches. The hash kernel (grouping mode) gives each
// input row its group's id; the group's key columns are read from its
// first row, and its accumulators are a stretch of one flat slab, so
// after warm-up nothing is allocated per input row, nor per group but a
// DISTINCT aggregate's value set.
type bHashGroupBy struct {
	input BatchIterator
	ords  []int
	aggs  []compiledAgg
	ctx   *Context

	keys   types.KeyTable
	firsts []types.Row // per group: its first row
	states []accum     // group g's: states[g*len(aggs):(g+1)*len(aggs)]
	pos    int
	out    Batch
}

func (h *bHashGroupBy) Open() error {
	if err := h.input.Open(); err != nil {
		return err
	}
	h.keys.Reset()
	h.firsts, h.states = h.firsts[:0], h.states[:0]
	na := len(h.aggs)
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
			g, isNew := h.keys.Add(&h.firsts, r, h.ords)
			if isNew {
				if h.states, err = appendStates(h.states, h.aggs); err != nil {
					return err
				}
			}
			if err := feed(h.aggs, h.states[g*na:(g+1)*na], r, h.ctx); err != nil {
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
	if h.pos >= len(h.firsts) {
		return nil, nil
	}
	end := min(h.pos+batchSize, len(h.firsts))
	n := end - h.pos
	na := len(h.aggs)
	width := len(h.ords) + na
	slab := h.ctx.arena.values(n * width)
	rows := h.ctx.arena.headers(n)
	for g := h.pos; g < end; g++ {
		start := len(slab)
		for _, o := range h.ords {
			slab = append(slab, h.firsts[g][o])
		}
		for i := g * na; i < (g+1)*na; i++ {
			slab = append(slab, h.states[i].result())
		}
		rows = append(rows, slab[start:len(slab):len(slab)])
	}
	h.pos = end
	h.out = Batch{Rows: rows}
	return &h.out, nil
}

// Close keeps the table and slabs for the next Open.
func (h *bHashGroupBy) Close() error { return nil }
