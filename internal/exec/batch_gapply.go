package exec

import (
	"context"
	"runtime"
	"sync/atomic"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// bgapply is the batch engine's GApply. The partition phase is shared
// with the row engine verbatim (partitionByHash / partitionBySort over
// the drained outer rows — identical grouping, budget charges and
// cancellation points); the execution phase mirrors gapply's serial and
// parallel paths, pulling inner batches instead of rows. The parallel
// machinery (parRun: ordered emit, window flow control, counter and
// profile delta merges in partition order) is reused as-is — only the
// worker's inner-tree instantiation and drain differ.
type bgapply struct {
	outer, inner BatchIterator
	innerPlan    core.Node
	plan         *core.GApply
	innerArity   int
	env          compileEnv
	ctx          *Context
	ords         []int
	groupVar     string
	sortPart     bool
	ordered      bool // outer provides the group-key ordering (index path)
	correlated   bool
	spools       *spoolRegistry

	groups  [][]types.Row
	gpos    int
	keyVals types.Row
	started bool

	par *parRun
	win rowWindow // parallel mode: windows over the current group's rows

	outBuf joinOut
	out    Batch
}

func (g *bgapply) Open() error {
	if g.par != nil { // re-Open without an intervening Close
		g.par.shutdown()
		g.par = nil
	}
	if g.spools != nil {
		g.spools.reset()
	}
	rows, err := drainBatchRows(g.outer, g.ctx)
	if err != nil {
		return err
	}
	switch {
	case g.sortPart && g.ordered:
		g.groups, err = partitionOrdered(rows, g.ords, g.ctx, g.plan)
	case g.sortPart:
		g.groups, err = partitionBySort(rows, g.ords, g.ctx, g.plan)
	default:
		g.groups, err = partitionByHash(rows, g.ords, g.ctx, g.plan)
	}
	if err != nil {
		return err
	}
	g.ctx.Counters.Groups += int64(len(g.groups))
	g.gpos = 0
	g.started = false
	g.win.reset(nil)
	if dop := g.degree(); dop > 1 {
		g.par = g.startWorkers(dop)
	}
	return nil
}

// degree mirrors gapply.degree: the context's DOP clamped to the group
// count, with the serial fallback for correlated inners.
func (g *bgapply) degree() int {
	if g.correlated {
		return 1
	}
	dop := g.ctx.DOP
	if dop <= 0 {
		dop = runtime.GOMAXPROCS(0)
	}
	if dop > len(g.groups) {
		dop = len(g.groups)
	}
	return dop
}

// advance binds the next group and opens the per-group query over it
// (serial execution phase), mirroring gapply.advance.
func (g *bgapply) advance() (bool, error) {
	if err := g.ctx.checkCancel(); err != nil {
		return false, err
	}
	for g.gpos < len(g.groups) {
		group := g.groups[g.gpos]
		g.gpos++
		g.ctx.BindGroup(g.groupVar, group)
		g.keyVals = group[0].Project(g.ords)
		g.ctx.Counters.InnerExecs++
		g.ctx.Counters.SerialGroupExecs++
		if err := g.inner.Open(); err != nil {
			return false, err
		}
		g.started = true
		return true, nil
	}
	return false, nil
}

func (g *bgapply) NextBatch() (*Batch, error) {
	if g.par != nil {
		return g.parNextBatch()
	}
	g.outBuf.reset()
	for len(g.outBuf.rows) < batchSize {
		if !g.started {
			ok, err := g.advance()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		b, err := g.inner.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if err := g.inner.Close(); err != nil {
				return nil, err
			}
			g.started = false
			continue
		}
		for i, n := 0, b.Len(); i < n; i++ {
			g.outBuf.add(g.keyVals, b.Row(i))
		}
	}
	if len(g.outBuf.rows) == 0 {
		return nil, nil
	}
	g.out = Batch{Rows: g.outBuf.rows}
	return &g.out, nil
}

func (g *bgapply) Close() error {
	if g.par != nil {
		g.par.shutdown()
		g.par = nil
	}
	g.groups = nil
	g.win.reset(nil)
	if g.started {
		g.started = false
		return g.inner.Close()
	}
	return nil
}

// startWorkers launches the pool, mirroring gapply.startWorkers: the
// only differences are the batch inner-tree build and the batch drain.
func (g *bgapply) startWorkers(dop int) *parRun {
	groups := g.groups
	n := len(groups)
	p := newParRun(n, dop)
	parent := g.ctx.Ctx
	if parent == nil {
		parent = context.Background()
	}
	wctxCtx, cancel := context.WithCancel(parent)
	p.cancel = cancel
	var next atomic.Int64
	var failed atomic.Bool
	p.wg.Add(dop)
	for w := 0; w < dop; w++ {
		go func() {
			defer p.wg.Done()
			wctx := g.ctx.fork()
			wctx.Ctx = wctxCtx
			wctx.spools = g.spools
			var inner BatchIterator
			for {
				select {
				case <-p.stop:
					return
				case <-wctxCtx.Done():
					return
				case p.window <- struct{}{}:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if failed.Load() {
					close(p.ready[i])
					continue
				}
				if inner == nil {
					it, err := buildBatch(g.innerPlan, wctx, g.env)
					if err != nil {
						p.results[i] = parGroup{err: err}
						failed.Store(true)
						close(p.ready[i])
						continue
					}
					inner = it
				}
				res := g.evalGroup(wctx, inner, groups[i])
				if res.err != nil {
					failed.Store(true)
				}
				p.results[i] = res
				close(p.ready[i])
			}
		}()
	}
	return p
}

// evalGroup runs the per-group query over one group on a worker's
// private context and batch tree, buffering the output rows with the
// grouping columns prefixed in one slab — identical layout and
// counter/profile delta accounting to the row engine's evalGroup.
func (g *bgapply) evalGroup(wctx *Context, inner BatchIterator, group []types.Row) parGroup {
	before := wctx.Counters
	var profBefore map[core.Node]NodeStats
	if wctx.Prof != nil {
		profBefore = wctx.Prof.snapshot()
	}
	wctx.BindGroup(g.groupVar, group)
	wctx.Counters.InnerExecs++
	wctx.Counters.ParallelGroupExecs++
	key := group[0].Project(g.ords)
	rows, err := drainBatchRows(inner, wctx)
	out := parGroup{err: err}
	if err == nil {
		total := 0
		for _, r := range rows {
			total += len(key) + len(r)
		}
		slab := make(types.Row, 0, total)
		out.rows = make([]types.Row, len(rows))
		for i, r := range rows {
			start := len(slab)
			slab = append(slab, key...)
			slab = append(slab, r...)
			out.rows[i] = slab[start:len(slab):len(slab)]
		}
	}
	out.delta = wctx.Counters.Sub(before)
	if wctx.Prof != nil {
		out.prof = wctx.Prof.since(profBefore)
	}
	return out
}

// parNextBatch emits the buffered groups in partition order as batch
// windows, merging each group's deltas exactly as gapply.parNext does.
func (g *bgapply) parNextBatch() (*Batch, error) {
	for {
		if b := g.win.next(); b != nil {
			return b, nil
		}
		if g.gpos >= len(g.groups) {
			// A cancel that lands after the last group still cancels.
			if err := g.ctx.checkCancel(); err != nil {
				return nil, err
			}
			return nil, nil
		}
		i := g.gpos
		g.gpos++
		var done <-chan struct{}
		if g.ctx.Ctx != nil {
			done = g.ctx.Ctx.Done()
		}
		select {
		case <-g.par.ready[i]:
		case <-done:
			g.par.shutdown()
			return nil, context.Cause(g.ctx.Ctx)
		}
		res := g.par.results[i]
		g.par.results[i] = parGroup{}
		<-g.par.window
		g.ctx.Counters.Add(res.delta)
		if g.ctx.Prof != nil && res.prof != nil {
			g.ctx.Prof.merge(res.prof)
		}
		if res.err != nil {
			g.par.shutdown()
			return nil, res.err
		}
		g.win.reset(res.rows)
	}
}
