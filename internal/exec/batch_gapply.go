package exec

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// bgapply is the paper's physical GApply (§3): a Partition phase that
// splits the drained outer rows into groups on the grouping columns (by
// hashing or sorting), then an Execution phase that evaluates the
// per-group query against each group with the relation-valued parameter
// $group bound to the group's rows. Both partition strategies emit
// results clustered by group, which is what lets the syntax drop the
// ORDER BY a sorted-outer-union query needs for a constant-space tagger.
//
// The execution phase runs the groups either serially through the
// prebuilt inner tree (the paper's "in succession") or — since the
// groups are independent by construction — fanned out across a bounded
// worker pool (parRun), where every worker owns a private Context and a
// private instantiation of the inner plan, and the consumer emits the
// buffered per-group results in partition order. Output is therefore
// identical to serial execution, clustering included.
//
// Both phases are cancellation points: the partition phase polls the
// query context per outer row and charges materialized bytes against
// the resource budget; the execution phase polls per batch, and
// parallel workers stop promptly — without goroutine leaks or dropped
// counter merges — when the query is cancelled or a group fails.
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

// degree decides how many workers the execution phase uses: the
// context's DOP (default GOMAXPROCS), clamped to the group count, and 1
// — the serial fallback — when the inner is correlated with an
// enclosing Apply: the rows such an inner reads from the shared outer
// stack cannot be snapshotted per worker.
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
// (serial execution phase). Group boundaries are prompt cancellation
// points: a cancel between groups is noticed before the next per-group
// execution starts.
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

// startWorkers launches the pool for the groups partitioned by Open.
// The pool captures the partition snapshot (not the bgapply fields): a
// later Close/Open must not yank state out from under workers that are
// still winding down. Workers run under a context derived from the
// query's, so cancelling the query (or shutting the pool down)
// interrupts a worker even mid-group. Each worker compiles its private
// inner tree against the GApply's spool registry, so its spools share
// the holders (and materializations) of every other tree. After any
// group fails the outcome is decided (the consumer stops at the first
// error in partition order), so later groups complete empty.
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
// grouping columns prefixed — the same row layout the serial phase
// emits — in one slab for the whole group; the three-index slices keep
// rows from aliasing each other's capacity.
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
// windows, merging each group's counter and profile deltas into the
// parent context as it is consumed. The first group error — in
// partition order, matching what serial execution would surface — shuts
// the pool down and is returned; a cancelled query stops the wait for
// the next group immediately rather than blocking on a ready channel
// its worker may never close.
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

// chargePartition bills the budget for one row materialized into a
// partition, labelling a blown budget with the GApply's plan shape.
func chargePartition(ctx *Context, plan *core.GApply, r types.Row) error {
	if ctx.Budget == nil {
		return nil
	}
	operator := "GApply"
	if plan != nil {
		operator = core.Summary(plan)
	}
	return ctx.Budget.chargePartition(int64(r.Bytes()), operator)
}

// groupKeyEqual reports whether a row's grouping columns are Identical
// to a group's representative key — the exact comparison that backs the
// hash partitioner's buckets, so hash collisions can never merge
// distinct grouping keys.
func groupKeyEqual(key types.Row, r types.Row, ords []int) bool {
	for i, o := range ords {
		if !types.Identical(key[i], r[o]) {
			return false
		}
	}
	return true
}

// partitionByHash groups rows by hashing the grouping columns; group
// order is first appearance in the input, so output is deterministic.
// Buckets are keyed by the 64-bit hash, and every row is compared
// against the actual key values of the groups sharing its bucket: rows
// whose keys merely collide are split into distinct groups, so hash-
// and sort-based partitioning always produce identical groups. Rows are
// copied into the group's storage: each group is a temporary relation
// (paper §3), so the partition phase pays memory traffic proportional
// to row width — the cost the projection-before-GApply rule exists to
// shrink, and the byte meter the partition budget is charged against.
func partitionByHash(rows []types.Row, ords []int, ctx *Context, plan *core.GApply) ([][]types.Row, error) {
	buckets := make(map[uint64][]int) // hash -> indexes of groups in that bucket
	var groups [][]types.Row
	var keys []types.Row // representative grouping-column values per group
	for _, r := range rows {
		if err := ctx.tick(); err != nil {
			return nil, err
		}
		h := r.Hash(ords)
		gi := -1
		for _, i := range buckets[h] {
			if groupKeyEqual(keys[i], r, ords) {
				gi = i
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			buckets[h] = append(buckets[h], gi)
			groups = append(groups, nil)
			keys = append(keys, r.Project(ords))
		}
		if err := chargePartition(ctx, plan, r); err != nil {
			return nil, err
		}
		groups[gi] = append(groups[gi], r.Clone())
	}
	return groups, nil
}

// partitionBySort sorts rows on the grouping columns and cuts runs,
// copying rows into the sorted temporary storage (see partitionByHash).
func partitionBySort(rows []types.Row, ords []int, ctx *Context, plan *core.GApply) ([][]types.Row, error) {
	sorted, err := clonePartitionRows(rows, ctx, plan)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		return types.CompareRows(sorted[i], sorted[j], ords, nil) < 0
	})
	return cutGroupRuns(sorted, ords), nil
}

// partitionOrdered cuts group runs from an outer stream the optimizer
// proved already arrives in ascending group-key order (an ordered index
// access path): identical clones, budget charges, cancellation points
// and resulting groups to partitionBySort — an already-ordered input is
// a fixed point of the stable sort — minus the O(n log n) sort itself.
// A violated order expectation (a planner bug, not a data property)
// falls back to the stable sort rather than emit misgrouped output; the
// verification is one comparison per row, paid inside the run cut
// anyway.
func partitionOrdered(rows []types.Row, ords []int, ctx *Context, plan *core.GApply) ([][]types.Row, error) {
	sorted, err := clonePartitionRows(rows, ctx, plan)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(sorted); i++ {
		if types.CompareRows(sorted[i-1], sorted[i], ords, nil) > 0 {
			sort.SliceStable(sorted, func(a, b int) bool {
				return types.CompareRows(sorted[a], sorted[b], ords, nil) < 0
			})
			break
		}
	}
	return cutGroupRuns(sorted, ords), nil
}

// clonePartitionRows copies the drained outer rows into the partition's
// temporary storage, charging the budget and polling cancellation per
// row — the shared front half of both sort-family partitioners.
func clonePartitionRows(rows []types.Row, ctx *Context, plan *core.GApply) ([]types.Row, error) {
	cloned := make([]types.Row, len(rows))
	for i, r := range rows {
		if err := ctx.tick(); err != nil {
			return nil, err
		}
		if err := chargePartition(ctx, plan, r); err != nil {
			return nil, err
		}
		cloned[i] = r.Clone()
	}
	return cloned, nil
}

// cutGroupRuns splits key-ordered rows into their group runs.
func cutGroupRuns(sorted []types.Row, ords []int) [][]types.Row {
	var groups [][]types.Row
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || types.CompareRows(sorted[i], sorted[start], ords, nil) != 0 {
			groups = append(groups, sorted[start:i])
			start = i
		}
	}
	return groups
}

// ---------------------------------------------- parallel execution phase

// parGroup is one group's buffered evaluation: its output rows (already
// prefixed with the grouping-column values), the execution counters the
// worker accumulated while producing them, and any error.
type parGroup struct {
	rows  []types.Row
	delta Counters
	// prof is the group's per-operator profile delta (nil when
	// instrumentation is disabled), merged like delta.
	prof map[core.Node]NodeStats
	err  error
}

// parRun is the state of one parallel execution phase. Workers claim
// group indexes from a shared counter, evaluate each claimed group
// against their private iterator tree, publish into results[i], and
// close ready[i]; the consumer (the goroutine driving NextBatch) waits
// on the ready channels in partition order. The channel close is the only
// synchronization a result needs: the worker's writes happen before the
// close, which happens before the consumer's read.
//
// window bounds how many groups may be claimed but not yet consumed, so
// a fast worker racing ahead through small groups cannot buffer an
// unbounded prefix of the output: workers acquire a window slot before
// claiming an index and the consumer releases the slot when it emits the
// group.
//
// Shutdown — from Close, from the first group error, or from query
// cancellation — closes stop and cancels the workers' derived context,
// so a worker deep inside a large group stops within one row batch; the
// consumer never waits on a ready channel no worker will close, because
// it selects on the query context alongside every ready wait.
type parRun struct {
	results []parGroup
	ready   []chan struct{}
	window  chan struct{}
	stop    chan struct{}
	cancel  context.CancelFunc // cancels the workers' derived context
	once    sync.Once
	wg      sync.WaitGroup
}

// newParRun allocates the pool state for n groups at the given degree.
func newParRun(n, dop int) *parRun {
	p := &parRun{
		results: make([]parGroup, n),
		ready:   make([]chan struct{}, n),
		window:  make(chan struct{}, 2*dop),
		stop:    make(chan struct{}),
	}
	for i := range p.ready {
		p.ready[i] = make(chan struct{})
	}
	return p
}

// shutdown stops the pool — closing the claim gate and cancelling the
// workers' context so even a worker mid-group exits within a row batch —
// and waits for the workers to finish; pending results are discarded.
// Safe to call more than once.
func (p *parRun) shutdown() {
	p.once.Do(func() {
		close(p.stop)
		if p.cancel != nil {
			p.cancel()
		}
	})
	p.wg.Wait()
}
