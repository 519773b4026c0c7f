package exec

import (
	"gapplydb/internal/types"
)

// bApply is an Apply a segment program does not run natively — an outer
// Apply, or one whose inner may yield several rows or reads OuterRefs.
// It re-executes the inner tree once per outer row — the correlated
// subquery execution model the paper builds GApply's physical
// implementation on — emitting concatenated rows in batches capped at
// batchSize. The outer row is pushed on the context's outer stack
// around the inner drain, where compiled OuterRefs read it. When the
// inner has no outer references its result cannot change across the
// outer loop, so it is materialized once per Open — the standard
// cached-subquery optimization. (A GApply's program re-opens the Apply
// for every group, so no group sees another group's cache.)
type bApply struct {
	outer, inner BatchIterator
	ctx          *Context
	outerApply   bool
	innerArity   int
	width        int
	uncorrelated bool

	cache      []types.Row
	cacheValid bool

	ob      *Batch // current outer batch
	oi      int    // next live index within ob
	cur     types.Row
	results []types.Row
	rpos    int
	nulls   types.Row

	outBuf joinOut
	out    Batch
}

func (a *bApply) Open() error {
	a.ob, a.oi = nil, 0
	a.cur, a.results, a.rpos = nil, nil, 0
	a.cacheValid = false
	if a.nulls == nil {
		a.nulls = make(types.Row, a.innerArity)
	}
	return a.outer.Open()
}

func (a *bApply) innerRows() ([]types.Row, error) {
	if a.uncorrelated {
		if a.cacheValid {
			a.ctx.Counters.ApplyCacheHits++
			return a.cache, nil
		}
	}
	a.ctx.Counters.ApplyExecs++
	rows, err := drainBatchRows(a.inner, a.ctx)
	if err != nil {
		return nil, err
	}
	if a.uncorrelated {
		a.cache, a.cacheValid = rows, true
	}
	return rows, nil
}

// advanceOuter claims the next outer row and evaluates its inner rows.
func (a *bApply) advanceOuter() (bool, error) {
	for a.ob == nil || a.oi >= a.ob.Len() {
		b, err := a.outer.NextBatch()
		if err != nil {
			return false, err
		}
		if b == nil {
			return false, nil
		}
		a.ob, a.oi = b, 0
	}
	a.cur = a.ob.Row(a.oi)
	a.oi++
	a.ctx.pushOuter(a.cur)
	rows, err := a.innerRows()
	a.ctx.popOuter()
	if err != nil {
		return false, err
	}
	a.results, a.rpos = rows, 0
	return true, nil
}

func (a *bApply) NextBatch() (*Batch, error) {
	a.outBuf.reset()
	for len(a.outBuf.rows) < batchSize {
		if a.cur == nil {
			ok, err := a.advanceOuter()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if len(a.results) == 0 && a.outerApply {
				a.outBuf.add(a.cur, a.nulls)
				a.cur = nil
				continue
			}
		}
		for a.rpos < len(a.results) && len(a.outBuf.rows) < batchSize {
			a.outBuf.add(a.cur, a.results[a.rpos])
			a.rpos++
		}
		if a.rpos >= len(a.results) {
			a.cur = nil
		}
	}
	if len(a.outBuf.rows) == 0 {
		return nil, nil
	}
	a.out = Batch{Rows: a.outBuf.rows}
	return &a.out, nil
}

func (a *bApply) Close() error {
	a.results, a.cache = nil, nil
	a.cacheValid = false
	a.ob = nil
	return a.outer.Close()
}
