package exec

import (
	"fmt"
	"slices"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Index-scan operators: read a base table through an ordered secondary
// index, optionally restricted to a key range resolved to a run window
// by two binary searches. A key-order scan emits the window in key
// order (ascending, equal keys in heap position order — the stable-sort
// tie rule the planner's sort elision relies on); a heap-order scan (a
// seek placed for a selective filter) emits the same rows in heap
// position order, i.e. exactly the heap scan's rows its bounds admit.
//
// An index scan emits exactly the rows a heap scan (plus a stable sort)
// would, so RowsScanned counts every emitted row, as bScan does; a
// bounded scan counts only the rows inside the window — the rows it
// actually produced.

// openIndexRun resolves the plan's table and index and returns the
// index's current sorted run.
func openIndexRun(p *core.IndexScan, ctx *Context) (*storage.Table, *storage.IndexRun, error) {
	tab, err := ctx.Catalog.Lookup(p.Table)
	if err != nil {
		return nil, nil, err
	}
	ix, err := ctx.Catalog.LookupIndex(p.Index)
	if err != nil {
		return nil, nil, err
	}
	return tab, ix.Run(tab), nil
}

// indexWindow computes the run-offset window [lo, hi) selected by the
// scan's key bounds. Bounds are SQL comparisons: a NULL key satisfies
// none of them, and NULL keys sort first — so the presence of any bound
// starts the window past the NULL prefix. The planner only places
// bounds on single-column indexes, where a probe key compares whole-key
// (not prefix), making SeekGE/SeekGT exact brackets. Each bound is
// encoded into scratch in turn.
func indexWindow(run *storage.IndexRun, p *core.IndexScan, scratch []byte) (int, int) {
	lo, hi := 0, run.Len()
	if !p.HasLo && !p.HasHi {
		return lo, hi
	}
	lo = run.SeekGT(storage.EncodeIndexKey(scratch[:0], types.Null))
	if p.HasLo {
		k := storage.EncodeIndexKey(scratch[:0], p.Lo)
		var s int
		if p.LoIncl {
			s = run.SeekGE(k)
		} else {
			s = run.SeekGT(k)
		}
		if s > lo {
			lo = s
		}
	}
	if p.HasHi {
		k := storage.EncodeIndexKey(scratch[:0], p.Hi)
		if p.HiIncl {
			hi = run.SeekGT(k)
		} else {
			hi = run.SeekGE(k)
		}
	}
	return lo, max(hi, lo)
}

// indexCursor is the index scan's resolved window: the heap positions
// to emit, in emission order, resolved once per run snapshot.
// The bounds are constants of the plan, so the window is a function of
// the run alone; re-Opens against the same snapshot (a per-group query
// re-opened once per group) only re-resolve the catalog entries.
type indexCursor struct {
	plan *core.IndexScan
	ctx  *Context

	table *storage.Table
	run   *storage.IndexRun // snapshot pos was resolved against
	pos   []int32           // the window's positions, in emission order
	// contig marks pos as one ascending run of adjacent heap positions,
	// which the batch scan serves by aliasing the table's row slice.
	contig bool
	sorted []int32 // reused buffer for an out-of-order heap-order window
	next   int
	// key holds an encoded bound while the window is resolved; a numeric
	// key fits, so resolving allocates nothing.
	key [24]byte
}

func (c *indexCursor) open() error {
	tab, run, err := openIndexRun(c.plan, c.ctx)
	if err != nil {
		return err
	}
	if run != c.run {
		c.run = run
		lo, hi := indexWindow(run, c.plan, c.key[:])
		c.pos = run.Pos[lo:hi]
		ascending := slices.IsSorted(c.pos)
		if c.plan.HeapOrder && !ascending {
			// A stable run keeps equal keys in heap order, so an
			// equality window never lands here; a range window spanning
			// several keys does when the heap is not clustered on them.
			c.sorted = append(c.sorted[:0], c.pos...)
			slices.Sort(c.sorted)
			c.pos, ascending = c.sorted, true
		}
		c.contig = ascending && (len(c.pos) == 0 || int(c.pos[len(c.pos)-1]-c.pos[0]) == len(c.pos)-1)
	}
	c.table, c.next = tab, 0
	return nil
}

// bIndexScan is the batch engine's index scan. When the window is a run
// of adjacent heap positions (a clustered key, or any equality window
// of one row) it aliases the table's row slice exactly as bScan does;
// otherwise each batch gathers up to batchSize row headers into a
// reused container. Row values stay untouched and stable; only the
// container is transient, per the batch ownership contract.
type bIndexScan struct {
	indexCursor
	buf []types.Row
	out Batch
}

func (s *bIndexScan) Open() error { return s.open() }

func (s *bIndexScan) NextBatch() (*Batch, error) {
	if s.next >= len(s.pos) {
		return nil, nil
	}
	n := min(len(s.pos)-s.next, batchSize)
	if err := s.ctx.tickN(n); err != nil {
		return nil, err
	}
	if s.contig {
		first := int(s.pos[s.next])
		s.out = Batch{Rows: s.table.Rows[first : first+n]}
	} else {
		if cap(s.buf) < n {
			s.buf = make([]types.Row, 0, batchSize)
		}
		s.buf = s.buf[:n]
		for i, p := range s.pos[s.next : s.next+n] {
			s.buf[i] = s.table.Rows[p]
		}
		s.out = Batch{Rows: s.buf}
	}
	s.next += n
	s.ctx.Counters.RowsScanned += int64(n)
	return &s.out, nil
}

func (s *bIndexScan) Close() error { return nil }

// checkIndexScan validates an IndexScan plan against the catalog at
// build time, so a stale plan (index dropped after planning) fails with
// a clear error instead of at Open.
func checkIndexScan(p *core.IndexScan, ctx *Context) error {
	ix, err := ctx.Catalog.LookupIndex(p.Index)
	if err != nil {
		return err
	}
	if (p.HasLo || p.HasHi) && len(ix.Ords()) != 1 {
		return fmt.Errorf("exec: index %q: range bounds require a single-column index", p.Index)
	}
	return nil
}

// indexProbe is a merge join's right side when the plan makes it a
// bare key-order IndexScan (core.Join.ProbedIndex): the join searches
// the index's stored run in place — one SeekGE/SeekGT per left row,
// rows read through the run's positions — so nothing is drained,
// encoded or allocated per Open. RowsScanned counts the probed entries
// (each equal range once), which are the same at every degree, and
// EXPLAIN ANALYZE credits them, with one loop per join Open, to the
// IndexScan node the probe replaced.
type indexProbe struct {
	plan  *core.IndexScan
	stats *NodeStats // the IndexScan's profile cell; nil unless profiling
}

// probedRight returns the join's right side as an index probe when the
// plan calls for one, deciding from the plan at build time — never from
// the iterator built for the right input, which a Profile wraps — so
// the path and its counters are identical with and without
// instrumentation. A right side that is an invariant subtree of an
// enclosing GApply's inner stays drained: its materialization is shared
// across groups already.
func probedRight(j *core.Join, ctx *Context, env compileEnv) (*indexProbe, error) {
	is, ok := j.ProbedIndex()
	if !ok || env.scope.invariant(is) != nil {
		return nil, nil
	}
	if err := checkIndexScan(is, ctx); err != nil {
		return nil, err
	}
	p := &indexProbe{plan: is}
	if ctx.Prof != nil {
		p.stats = ctx.Prof.node(is)
	}
	return p, nil
}

// open resolves the index's current run as the join's merge run.
func (p *indexProbe) open(ctx *Context) (mergeRun, error) {
	var start time.Time
	if p.stats != nil {
		start = time.Now()
	}
	tab, run, err := openIndexRun(p.plan, ctx)
	if err != nil {
		return mergeRun{}, err
	}
	if p.stats != nil {
		p.stats.Opens++
		p.stats.Time += time.Since(start)
	}
	return mergeRun{run: run, rows: tab.Rows}, nil
}

// seek returns the run window of entries whose key is k, counting them
// as scanned.
func (p *indexProbe) seek(m *mergeRun, k []byte, ctx *Context) (int, int) {
	var start time.Time
	if p.stats != nil {
		start = time.Now()
	}
	lo, hi := m.run.EqualRange(k)
	ctx.Counters.RowsScanned += int64(hi - lo)
	if p.stats != nil {
		p.stats.Rows += int64(hi - lo)
		p.stats.Time += time.Since(start)
	}
	return lo, hi
}
