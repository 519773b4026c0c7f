package exec

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// bgapply is the paper's physical GApply (§3): a Partition phase that
// consumes the outer and clusters its row headers by group (by hashing
// or sorting the grouping columns), then an Execution phase
// that evaluates the per-group query over each group's run and emits
// its rows prefixed with the group's grouping columns. Both partition
// strategies emit results clustered by group, which is what lets the
// syntax drop the ORDER BY a sorted-outer-union query needs for a
// constant-space tagger.
//
// The per-group query runs as a segment program (segment.go) when its
// shape lowers — one loop over many groups, nothing opened or allocated
// per group — and otherwise as an iterator tree re-opened per group
// with $group bound (treeExec). Either way the execution phase fills an
// output slab group after group and emits it in batch windows: serially
// on the consumer, or — the groups being independent by construction —
// across a bounded worker pool (parRun). Workers claim tasks, contiguous
// ranges of groups holding at least batchSize input rows (a larger group
// is a task of its own); every worker owns a private Context, a private
// program or tree and an output slab it keeps across its tasks, and the
// consumer emits the tasks in range order, merging each task's counters
// and profile once. Output is therefore identical to serial execution,
// clustering included.
//
// When the outer already arrives in group-key order
// (core.GApplyOuterOrdered: an index scan, or a heap-order seek over a
// heap in key order, carried through filters, projections and join probe
// sides) the two phases interleave instead — SQL Server's SegmentApply
// over segmented input. Open only opens the outer; NextBatch cuts a group
// wherever the encoded key changes (runCutter), runs it as soon as its
// run closes and emits its rows at once, on the consumer at every dop.
// Under either hint those are the same groups in the same order, because
// on a key-ordered outer first-appearance order, key order and run order
// coincide; memory is the open group plus one outer batch. The order is
// a planner claim, checked once per group: a key that sorts below its
// predecessor fails the query with an *OrderError.
//
// Both phases are cancellation points: the partition phase polls the
// query context per outer batch and charges the rows it takes in against
// the resource budget; the execution phase polls per row of group work,
// and parallel workers stop promptly — without goroutine leaks or dropped
// counter merges — when the query is cancelled or a group fails.
type bgapply struct {
	outer      BatchIterator
	exec       groupExec // the per-group query on ctx
	lowered    bool      // exec (and every worker's) is a segment program
	innerPlan  core.Node
	plan       *core.GApply
	env        compileEnv
	ctx        *Context
	ords       []int
	groupVar   string
	strategy   partStrategy
	streaming  bool // the outer is in group-key order: cut groups as it arrives
	correlated bool
	spools     *spoolRegistry

	parts partitioner // the partition phase's scratch, kept across Opens
	part  partition
	cut   runCutter   // streaming: the outer's cursor and the open group
	at    groupCursor // serial: the execution phase's position
	task  int         // parallel: the next task to emit
	par   *parRun

	out joinOut   // serial output slab, rows prefixed with the grouping columns
	win rowWindow // batch windows over the output being emitted
}

// groupExec evaluates the per-group query over one group, appending its
// rows, prefixed with the group's grouping columns, to out. It may stop
// once out holds limit rows and reports whether the group is finished;
// a call with the same group resumes an unfinished one, and close
// releases it.
type groupExec interface {
	run(group []types.Row, out *joinOut, limit int) (bool, error)
	close() error
}

// groupCursor is a position in the execution phase: the group to run
// next, and whether it is already under way.
type groupCursor struct {
	next    int
	started bool
}

// buildExec compiles the per-group query against ctx: a segment program
// when the inner lowers, else an iterator tree over ctx's spool registry.
func (g *bgapply) buildExec(ctx *Context) (groupExec, error) {
	if g.lowered {
		return buildSegment(g.innerPlan, ctx)
	}
	it, err := buildBatch(g.innerPlan, ctx, g.env)
	if err != nil {
		return nil, err
	}
	return &treeExec{inner: it, ctx: ctx, groupVar: g.groupVar}, nil
}

// treeExec is the fallback per-group execution: the inner iterator tree,
// re-opened once per group with $group bound to the group, and read a
// batch at a time, so a group's output streams rather than piling up.
type treeExec struct {
	inner    BatchIterator
	ctx      *Context
	groupVar string
	open     bool // the inner is open on an unfinished group
}

func (t *treeExec) run(group []types.Row, out *joinOut, limit int) (bool, error) {
	if !t.open {
		t.ctx.BindGroup(t.groupVar, group)
		if err := t.inner.Open(); err != nil {
			return true, err
		}
		t.open = true
	}
	for len(out.rows) < limit {
		b, err := t.inner.NextBatch()
		if err != nil {
			t.close()
			return true, err
		}
		if b == nil {
			return true, t.close()
		}
		n := b.Len()
		if err := t.ctx.tickN(n); err != nil {
			t.close()
			return true, err
		}
		for i := 0; i < n; i++ {
			out.add(group[0], b.Row(i))
		}
	}
	return false, nil
}

func (t *treeExec) close() error {
	if !t.open {
		return nil
	}
	t.open = false
	return t.inner.Close()
}

// startGroup counts the start of one group's execution.
func startGroup(ctx *Context, parallel bool) {
	ctx.Counters.InnerExecs++
	if parallel {
		ctx.Counters.ParallelGroupExecs++
	} else {
		ctx.Counters.SerialGroupExecs++
	}
}

// runGroups evaluates the groups of part from at up to to on ctx,
// appending their output to out, until out holds limit rows; at is left
// on the group to continue with.
func runGroups(ex groupExec, ctx *Context, part partition, at *groupCursor, to, limit int, out *joinOut, parallel bool) error {
	for at.next < to {
		if !at.started {
			startGroup(ctx, parallel)
			at.started = true
		}
		done, err := ex.run(part.group(at.next), out, limit)
		if done || err != nil {
			at.next++
			at.started = false
		}
		if err != nil || len(out.rows) >= limit {
			return err
		}
	}
	return nil
}

func (g *bgapply) Open() error {
	if g.par != nil { // re-Open without an intervening Close
		g.par.shutdown()
		g.par = nil
	}
	if err := g.exec.close(); err != nil {
		return err
	}
	if g.spools != nil {
		g.spools.reset()
	}
	g.at, g.task = groupCursor{}, 0
	g.win.reset(nil)
	if g.streaming {
		return g.cut.start()
	}
	var err error
	if g.part, err = g.parts.run(g.outer, g.strategy, g.ords, g.ctx, g.plan); err != nil {
		return err
	}
	g.ctx.Counters.Groups += int64(g.part.groups())
	if dop := g.degree(); dop > 1 {
		g.par = g.startWorkers(dop)
	}
	return nil
}

// degree decides whether the execution phase runs on a worker pool and
// at most how wide: the context's DOP (default GOMAXPROCS), clamped to
// the group count, and 1 — serial — when the inner is correlated with
// an enclosing Apply: the rows such an inner reads from the shared outer
// stack cannot be snapshotted per worker. The pool itself is further
// clamped to the task count.
func (g *bgapply) degree() int {
	if g.correlated {
		return 1
	}
	dop := g.ctx.DOP
	if dop <= 0 {
		dop = runtime.GOMAXPROCS(0)
	}
	if n := g.part.groups(); dop > n {
		dop = n
	}
	return dop
}

func (g *bgapply) NextBatch() (*Batch, error) {
	for {
		if b := g.win.next(); b != nil {
			return b, nil
		}
		var rows []types.Row
		var more bool
		var err error
		switch {
		case g.streaming:
			rows, more, err = g.nextStreamed()
		case g.par != nil:
			rows, more, err = g.nextTask()
		default:
			rows, more, err = g.nextGroups()
		}
		if err != nil || !more {
			return nil, err
		}
		g.win.reset(rows)
	}
}

// nextGroups runs the serial execution phase until the output slab
// holds a batch or the groups run out. Each refill is a prompt
// cancellation point, including the one that finds the groups done: a
// cancel that lands after the last group still cancels.
func (g *bgapply) nextGroups() ([]types.Row, bool, error) {
	if err := g.ctx.checkCancel(); err != nil {
		return nil, false, err
	}
	n := g.part.groups()
	if g.at.next >= n {
		return nil, false, nil
	}
	g.out.reset()
	err := runGroups(g.exec, g.ctx, g.part, &g.at, n, batchSize, &g.out, false)
	return g.out.rows, true, err
}

// nextStreamed runs the streaming execution phase until the output
// slab holds a batch, the outer ends, or the rows cut so far are spent:
// once output is in hand no further outer batch is read, so each group's
// rows go out as soon as the outer batch that closes it has been cut.
func (g *bgapply) nextStreamed() ([]types.Row, bool, error) {
	if err := g.ctx.checkCancel(); err != nil {
		return nil, false, err
	}
	g.out.reset()
	for len(g.out.rows) < batchSize {
		if !g.at.started {
			closed, err := g.cut.cutGroup(g, len(g.out.rows) == 0)
			if err != nil {
				return nil, false, err
			}
			if !closed {
				break
			}
			g.ctx.Counters.Groups++
			startGroup(g.ctx, false)
			g.at.started = true
		}
		done, err := g.exec.run(g.cut.rows, &g.out, batchSize)
		if done || err != nil {
			g.at.started = false
			g.cut.rows = g.cut.rows[:0]
		}
		if err != nil {
			return nil, false, err
		}
	}
	return g.out.rows, len(g.out.rows) > 0, nil
}

func (g *bgapply) Close() error {
	if g.par != nil {
		g.par.shutdown()
		g.par = nil
	}
	g.part = partition{}
	g.win.reset(nil)
	err := g.cut.stop()
	if cerr := g.exec.close(); err == nil {
		err = cerr
	}
	return err
}

// ------------------------------------------------------ streaming phase

// runCutter is the partition phase of a streaming GApply: it cuts an
// outer that arrives in group-key order into its groups while the
// outer's batches arrive. A group is a run of rows with equal encoded
// keys (equal encodings are exactly SortCompare-equal keys, as for
// partSort) and closes when the first row of the next run arrives, or
// the outer ends. Only the open group's row headers are kept, so memory
// is O(largest group + one batch), and once the buffers have grown
// nothing is allocated per row.
type runCutter struct {
	outer   BatchIterator
	open    bool        // outer is open and not yet exhausted
	cur     *Batch      // the outer batch being cut, valid until the next pull
	pos     int         // the next row of cur to cut
	rows    []types.Row // the open group's row headers
	key     []byte      // the open group's encoded key
	rowKey  []byte      // the encoded key of cur's row at pos
	pending bool        // rowKey holds the key of the row at pos
}

// start opens the outer for a new pass.
func (c *runCutter) start() error {
	if err := c.stop(); err != nil {
		return err
	}
	c.cur, c.pos, c.rows, c.pending = nil, 0, c.rows[:0], false
	if err := c.outer.Open(); err != nil {
		return err
	}
	c.open = true
	return nil
}

// stop closes the outer if it is still open.
func (c *runCutter) stop() error {
	c.cur = nil
	if !c.open {
		return nil
	}
	c.open = false
	return c.outer.Close()
}

// cutGroup cuts rows into the open group until it closes and reports whether
// it has; the caller runs the group and empties rows before the next
// call. The outer is read further only when pull is set, each batch
// polled for cancellation once and charged to the budget row by row as
// it arrives. A run whose key sorts below the open group's breaks the
// order the plan claimed for the outer: that is an *OrderError, raised
// before the open group runs.
func (c *runCutter) cutGroup(g *bgapply, pull bool) (bool, error) {
	for {
		for c.cur != nil && c.pos < c.cur.Len() {
			r := c.cur.Row(c.pos)
			if !c.pending {
				c.rowKey = appendGroupKey(c.rowKey[:0], r, g.ords)
			}
			c.pending = false
			if len(c.rows) > 0 && !bytes.Equal(c.rowKey, c.key) {
				c.pending = true
				if bytes.Compare(c.rowKey, c.key) < 0 {
					return false, &OrderError{Operator: gapplyOperator(g.plan), Prev: keyOf(c.rows[0], g.ords), Next: keyOf(r, g.ords)}
				}
				return true, nil
			}
			if len(c.rows) == 0 {
				c.key, c.rowKey = c.rowKey, c.key
			}
			c.rows = append(c.rows, r)
			c.pos++
		}
		if !c.open {
			return len(c.rows) > 0, nil
		}
		if !pull {
			return false, nil
		}
		b, err := c.outer.NextBatch()
		if err != nil {
			return false, err
		}
		if b == nil {
			if err := c.stop(); err != nil {
				return false, err
			}
			continue
		}
		n := b.Len()
		if err := g.ctx.tickN(n); err != nil {
			return false, err
		}
		for i := 0; i < n; i++ {
			if err := chargePartition(g.ctx, g.plan, b.Row(i)); err != nil {
				return false, err
			}
		}
		c.cur, c.pos = b, 0
	}
}

// appendGroupKey appends the order-key encoding of r's grouping columns.
func appendGroupKey(dst []byte, r types.Row, ords []int) []byte {
	for _, o := range ords {
		dst = r[o].AppendOrderKey(dst)
	}
	return dst
}

// keyOf copies r's grouping columns out.
func keyOf(r types.Row, ords []int) types.Row {
	k := make(types.Row, len(ords))
	gather(k, r, ords)
	return k
}

// OrderError reports an outer that broke the group-key order its plan
// claimed: a streaming GApply met a group whose key sorts below the
// group before it. That is an internal error — a planner or storage bug,
// never a property of the data — and the query fails with it, before
// the group the descent closed is run, instead of emitting the groups
// a stream can no longer re-sort.
type OrderError struct {
	// Operator is the GApply's plan shape.
	Operator string
	// Prev and Next are the grouping values of the group the descent
	// closed and of the row that broke the order.
	Prev, Next types.Row
}

func (e *OrderError) Error() string {
	return fmt.Sprintf("exec: internal error: %s outer is not in group-key order: %v follows %v", e.Operator, e.Next, e.Prev)
}

// ------------------------------------------------------ partition phase

// partition is the output of the partition phase: the outer's row
// headers clustered by group. Group i is rows[bounds[i]:bounds[i+1]],
// its rows in input order. The rows are the outer's own — the batch
// ownership contract makes row values immutable, so a group is a view
// of them and the phase moves headers, never values.
type partition struct {
	rows   []types.Row
	bounds []int
}

func (p partition) groups() int {
	if len(p.bounds) == 0 {
		return 0
	}
	return len(p.bounds) - 1
}

func (p partition) group(i int) []types.Row {
	lo, hi := p.bounds[i], p.bounds[i+1]
	return p.rows[lo:hi:hi]
}

// tasks cuts the groups into the parallel phase's tasks: contiguous
// ranges holding at least batchSize input rows (the last may hold
// fewer), with a group of batchSize rows or more a range of its own.
// Task t is groups [cuts[t], cuts[t+1]).
func (p partition) tasks() []int {
	cuts := []int{0}
	rows := 0
	for i, n := 0, p.groups(); i < n; i++ {
		size := p.bounds[i+1] - p.bounds[i]
		if size >= batchSize && rows > 0 {
			cuts = append(cuts, i)
			rows = 0
		}
		if rows += size; rows >= batchSize {
			cuts = append(cuts, i+1)
			rows = 0
		}
	}
	if rows > 0 {
		cuts = append(cuts, p.groups())
	}
	return cuts
}

// partStrategy is how the partition phase forms groups.
type partStrategy uint8

const (
	// partHash numbers groups by first appearance with the hash kernel
	// (types.KeyTable, grouping mode, so NULLs form one group) and places
	// rows by its counting sort: groups in first-appearance order, so
	// output is deterministic. Rows whose keys merely collide are split
	// into distinct groups, so hash- and sort-based partitioning always
	// produce identical groups.
	partHash partStrategy = iota
	// partSort orders rows by their grouping columns with the sort kernel
	// (types.OrderKeys: SortCompare order, ties in input order) and cuts
	// a group wherever the encoded key changes.
	partSort
)

// partitionStrategy is the strategy g's hint selects.
func partitionStrategy(g *core.GApply) partStrategy {
	if g.Partition == core.PartitionSort {
		return partSort
	}
	return partHash
}

// partitioner is the partition phase's scratch, reused by every Open:
// the outer's row headers in arrival order and, per row, its group id
// (hash) or its encoded group key (sort).
type partitioner struct {
	in     chunked[types.Row]
	tab    types.KeyTable
	firsts []types.Row // each group's first row: the hash kernel's key rows
	gids   chunked[int32]
	keys   types.OrderKeys
}

// run is the partition phase. It consumes outer batch by batch — one
// cancellation poll per batch, one budget charge per row in arrival
// order — keeping each row's header and its group id or key, then lays
// the headers out group by group in one counting-sort or permutation
// pass. Each group is a temporary relation (paper §3) of the outer's own
// rows, so the phase's memory traffic is row headers, not row width; the
// byte meter the partition budget is charged against still counts the
// rows' footprint, r.Bytes(), which is what the group relations hold.
func (p *partitioner) run(outer BatchIterator, how partStrategy, ords []int, ctx *Context, plan *core.GApply) (partition, error) {
	p.in.reset()
	p.tab.Reset()
	p.gids.reset()
	p.firsts = p.firsts[:0]
	p.keys.Reset()
	if err := outer.Open(); err != nil {
		return partition{}, err
	}
	if err := p.consume(outer, how, ords, ctx, plan); err != nil {
		outer.Close()
		return partition{}, err
	}
	if err := outer.Close(); err != nil {
		return partition{}, err
	}
	if p.in.n == 0 {
		return partition{}, nil
	}
	if how == partHash {
		rows, bounds := types.Cluster(nil, nil, p.tab.Len(), p.gids.chunks, p.in.chunks)
		return partition{rows: rows, bounds: bounds}, nil
	}
	return p.clusterByKey(p.keys.Sort()), nil
}

// consume drains the open outer into the scratch.
func (p *partitioner) consume(outer BatchIterator, how partStrategy, ords []int, ctx *Context, plan *core.GApply) error {
	for {
		b, err := outer.NextBatch()
		if err != nil || b == nil {
			return err
		}
		n := b.Len()
		if err := ctx.tickN(n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			r := b.Row(i)
			p.in.add(r)
			if how == partHash {
				id, _ := p.tab.Add(&p.firsts, r, ords)
				p.gids.add(int32(id))
			} else {
				for _, o := range ords {
					p.keys.Append(r[o], false)
				}
				p.keys.EndRow()
			}
			if err := chargePartition(ctx, plan, r); err != nil {
				return err
			}
		}
	}
}

// clusterByKey lays the headers out in perm order, cutting a group
// wherever the encoded key changes. Equal encodings are exactly
// SortCompare-equal keys.
func (p *partitioner) clusterByKey(perm []int32) partition {
	n := p.in.n
	rows := make([]types.Row, n)
	p.in.gather(rows, perm)
	bounds := []int{0}
	for j := 1; j < n; j++ {
		if !bytes.Equal(p.keys.Key(int(perm[j-1])), p.keys.Key(int(perm[j]))) {
			bounds = append(bounds, j)
		}
	}
	return partition{rows: rows, bounds: append(bounds, n)}
}

// chargePartition bills the budget for one outer row the partition phase
// takes in, labelling a blown budget with the GApply's plan shape.
func chargePartition(ctx *Context, plan *core.GApply, r types.Row) error {
	return ctx.Budget.chargePartition(int64(r.Bytes()), func() string { return gapplyOperator(plan) })
}

// gapplyOperator names a GApply in an error: its plan shape.
func gapplyOperator(plan *core.GApply) string {
	if plan == nil {
		return "GApply"
	}
	return core.Summary(plan)
}

// ---------------------------------------------- parallel execution phase

// parTask is one task's buffered evaluation: its output rows (already
// prefixed with the grouping columns), the execution counters the worker
// accumulated while producing them, and any error.
type parTask struct {
	rows  []types.Row
	delta Counters
	// prof is the task's per-operator profile delta (nil when
	// instrumentation is disabled), merged like delta.
	prof map[core.Node]NodeStats
	err  error
}

// startWorkers launches the pool for the groups partitioned by Open.
// The pool captures the partition (not the bgapply fields): a later
// Close/Open must not yank state out from under workers that are still
// winding down. Workers run under a context derived from the query's,
// so cancelling the query (or shutting the pool down) interrupts a
// worker even mid-task. Each worker compiles its private per-group query
// — a segment program, or an inner tree over the GApply's spool
// registry, whose spools share the holders (and materializations) of
// every other tree — and keeps one output slab across its tasks. After
// any task fails the outcome is decided (the consumer stops at the first
// error in range order), so later tasks complete empty.
func (g *bgapply) startWorkers(dop int) *parRun {
	part := g.part
	cuts := part.tasks()
	n := len(cuts) - 1
	dop = min(dop, n)
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
			out := joinOut{left: g.ords}
			var ex groupExec
			for {
				select {
				case <-p.stop:
					return
				case <-wctxCtx.Done():
					return
				case p.window <- struct{}{}:
				}
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				slot := p.slot(t)
				if failed.Load() {
					p.publish(slot, parTask{})
					continue
				}
				if ex == nil {
					var err error
					if ex, err = g.buildExec(wctx); err != nil {
						failed.Store(true)
						p.publish(slot, parTask{err: err})
						continue
					}
				}
				// The slot's container last held task t - len(slots)'s rows,
				// which the consumer has moved past: the window guarantees it.
				out.rows = slot.res.rows[:0]
				res := g.runTask(wctx, ex, part, cuts[t], cuts[t+1], &out)
				if res.err != nil {
					failed.Store(true)
				}
				p.publish(slot, res)
			}
		}()
	}
	return p
}

// runTask evaluates groups [from, to) on a worker's private context,
// appending their rows to out, and returns them with the task's counters
// and profile delta, which the consumer merges.
func (g *bgapply) runTask(wctx *Context, ex groupExec, part partition, from, to int, out *joinOut) parTask {
	wctx.Counters = Counters{}
	var profBefore map[core.Node]NodeStats
	if wctx.Prof != nil {
		profBefore = wctx.Prof.snapshot()
	}
	err := runGroups(ex, wctx, part, &groupCursor{next: from}, to, math.MaxInt, out, true)
	res := parTask{rows: out.rows, err: err, delta: wctx.Counters}
	if wctx.Prof != nil {
		res.prof = wctx.Prof.since(profBefore)
	}
	return res
}

// nextTask waits for the next task in range order and hands its rows to
// the consumer, merging its counter and profile deltas into the parent
// context. Taking a task first releases the previous one: the consumer
// has moved past every batch aliasing its rows, so its window place and
// container may go to the next task claimed. The first task error — in
// range order, matching what serial execution would surface — shuts the
// pool down and is returned; a cancelled query stops the wait
// immediately rather than blocking on a task its worker may never
// publish.
func (g *bgapply) nextTask() ([]types.Row, bool, error) {
	p := g.par
	if p.holding {
		p.holding = false
		<-p.window
	}
	if g.task >= p.tasks {
		// A cancel that lands after the last task still cancels.
		return nil, false, g.ctx.checkCancel()
	}
	slot := p.slot(g.task)
	g.task++
	var done <-chan struct{}
	if g.ctx.Ctx != nil {
		done = g.ctx.Ctx.Done()
	}
	select {
	case <-slot.ready:
	case <-done:
		p.shutdown()
		return nil, false, context.Cause(g.ctx.Ctx)
	}
	p.holding = true
	res := slot.res
	g.ctx.Counters.Add(&slot.res.delta)
	if g.ctx.Prof != nil && res.prof != nil {
		g.ctx.Prof.merge(res.prof)
	}
	if res.err != nil {
		p.shutdown()
		return nil, false, res.err
	}
	return res.rows, true, nil
}

// parRun is the state of one parallel execution phase. Workers claim
// task indexes from a shared counter, evaluate each claimed task with
// their private per-group query, and publish it into its slot; the
// consumer (the goroutine driving NextBatch) takes the tasks in range
// order.
//
// window bounds how many tasks may be claimed but not yet released, so
// a fast worker cannot buffer an unbounded prefix of the output: workers
// acquire a window place before claiming an index, and the consumer
// releases it when it moves past the task's rows. Claimed indexes form a
// contiguous prefix, so the tasks in flight are at most len(slots)
// consecutive ones, and task t owns slots[t % len(slots)]:
// its result, its row container, recycled from task to task, and its
// ready signal, a one-place channel the worker sends on after writing
// the result, which the consumer receives before reading it. The window
// orders a container's reuse after the consumer's last read of it.
//
// Shutdown — from Close, from the first task error, or from query
// cancellation — closes stop and cancels the workers' derived context,
// so a worker deep inside a task stops within one batch of rows; the
// consumer never waits on a task no worker will publish, because it
// selects on the query context alongside every ready wait.
type parRun struct {
	slots   []parSlot
	tasks   int
	holding bool // the consumer holds the window place of the task it last took
	window  chan struct{}
	stop    chan struct{}
	cancel  context.CancelFunc // cancels the workers' derived context
	once    sync.Once
	wg      sync.WaitGroup
}

// parSlot is the hand-off of one task in flight.
type parSlot struct {
	res   parTask
	ready chan struct{}
}

// newParRun allocates the pool state for n tasks at the given degree.
func newParRun(n, dop int) *parRun {
	p := &parRun{
		slots:  make([]parSlot, 2*dop),
		tasks:  n,
		window: make(chan struct{}, 2*dop),
		stop:   make(chan struct{}),
	}
	for i := range p.slots {
		p.slots[i].ready = make(chan struct{}, 1)
	}
	return p
}

func (p *parRun) slot(t int) *parSlot { return &p.slots[t%len(p.slots)] }

// publish hands a finished task to the consumer.
func (p *parRun) publish(s *parSlot, res parTask) {
	s.res = res
	s.ready <- struct{}{}
}

// shutdown stops the pool — closing the claim gate and cancelling the
// workers' context so even a worker mid-task exits within a batch of
// rows — and waits for the workers to finish; pending results are
// discarded. Safe to call more than once.
func (p *parRun) shutdown() {
	p.once.Do(func() {
		close(p.stop)
		if p.cancel != nil {
			p.cancel()
		}
	})
	p.wg.Wait()
}
