package exec

import (
	"sync"
	"sync/atomic"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// This file is GApply's invariant-subtree spool layer. A per-group query
// is re-Opened once per group (× once per worker tree in parallel mode),
// so any part of it that does not depend on the group binding — no
// GroupScan, no OuterRef — repeats identical work for every group: a
// base-table scan is re-scanned, a hash-join build side is re-built, an
// invariant scalar subquery is re-aggregated, thousands of times. The
// spool materializes each maximal invariant subtree exactly once per
// bgapply.Open and replays the buffered rows on every subsequent re-Open.
// The materialization is shared read-only across parallel workers (each
// worker has a private iterator tree, but all spool iterators compiled
// from the same plan node share one holder), so dop-8 builds an
// invariant subtree once, not eight times.

// spoolGen hands out a process-global generation number per
// materialization. Downstream operators that cache work derived from a
// spool's content (bHashJoin's build table) compare generations to decide
// whether their cache is still current; a fresh build — even of the same
// subtree after a re-partition — always gets a new generation.
var spoolGen atomic.Uint64

// contentVersioned is implemented by iterators whose output is a stable
// materialization: contentGen returns a generation identifying the
// current content. Two Opens returning the same generation are
// guaranteed to replay identical rows. The second result is false when
// no stable generation is available (then callers must not cache).
// Valid only after a successful Open.
type contentVersioned interface {
	contentGen() (uint64, bool)
}

// spoolRegistry maps the invariant roots of one GApply's inner plan to
// their shared materialization holders. It is created at buildGApply
// time, read (never written) during inner-tree compilation — including
// the per-worker compiles parallel execution performs — and reset once
// per bgapply.Open, strictly before any worker starts.
type spoolRegistry struct {
	holders map[core.Node]*spoolHolder
}

// newSpoolRegistry allocates a holder per invariant root.
func newSpoolRegistry(roots []core.Node) *spoolRegistry {
	r := &spoolRegistry{holders: make(map[core.Node]*spoolHolder, len(roots))}
	for _, n := range roots {
		r.holders[n] = &spoolHolder{}
	}
	return r
}

// reset gives every holder a fresh, unbuilt state. Called by bgapply.Open
// on the consumer goroutine; the happens-before edge to workers is the
// goroutine spawn in startWorkers (and Open waits out any previous pool
// first), so no lock is needed.
func (r *spoolRegistry) reset() {
	for _, h := range r.holders {
		h.state = &spoolState{}
	}
}

// spoolHolder is the sharing point for one invariant root: every spool
// iterator compiled from that plan node (serial tree + one per worker)
// points at the same holder and therefore replays the same state.
type spoolHolder struct {
	state *spoolState
}

// spoolState is one materialization: built at most once (sync.Once), then
// immutable. rows/err/bytes/gen are written only inside the Once and read
// only after it, so they need no further synchronization.
type spoolState struct {
	once  sync.Once
	rows  []types.Row
	err   error
	bytes int64
	gen   uint64
}

// bspool is the spool iterator: it materializes its input subtree once
// per holder reset (the holder's sync.Once) and replays the buffered
// rows on every Open, in aliased batch windows (no copy). It wraps the
// (possibly probe-wrapped) compiled subtree, so under EXPLAIN ANALYZE
// the subtree's operators report the single real execution — loops=1 at
// any dop — while the spool's build/hit tallies are recorded on the
// root node's NodeStats. Build cost is charged per row against
// MaxPartitionBytes: the spool is a materialization, the same budget
// dimension as GApply's partitions.
type bspool struct {
	inner BatchIterator
	node  core.Node
	h     *spoolHolder
	ctx   *Context

	st  *spoolState // pinned at Open
	win rowWindow
}

func (s *bspool) Open() error {
	st := s.h.state
	built := false
	st.once.Do(func() {
		built = true
		st.gen = spoolGen.Add(1)
		st.rows, st.bytes, st.err = s.materialize()
	})
	if built {
		s.ctx.Counters.SpoolBuilds++
	} else {
		s.ctx.Counters.SpoolHits++
	}
	if s.ctx.Prof != nil {
		ns := s.ctx.Prof.node(s.node)
		if built {
			ns.SpoolBuilds++
			ns.SpoolBytes += st.bytes
		} else {
			ns.SpoolHits++
		}
	}
	if st.err != nil {
		return st.err
	}
	s.st = st
	s.win.reset(st.rows)
	return nil
}

// operator names the spool in a budget error.
func (s *bspool) operator() string { return "Spool: " + core.Summary(s.node) }

// materialize drains the inner subtree, charging the budget per row so
// a runaway invariant subtree is killed at the limit, not after filling
// memory. Rows are stored as produced (no clone): everything upstream
// of a spool is group-independent, so the rows cannot be invalidated by
// a later binding change within this materialization's lifetime.
func (s *bspool) materialize() ([]types.Row, int64, error) {
	if err := s.inner.Open(); err != nil {
		return nil, 0, err
	}
	var rows []types.Row
	var bytes int64
	for {
		b, err := s.inner.NextBatch()
		if err != nil {
			s.inner.Close()
			return nil, bytes, err
		}
		if b == nil {
			break
		}
		bn := b.Len()
		if err := s.ctx.tickN(bn); err != nil {
			s.inner.Close()
			return nil, bytes, err
		}
		for i := 0; i < bn; i++ {
			r := b.Row(i)
			n := int64(r.Bytes())
			if err := s.ctx.Budget.chargePartition(n, s.operator); err != nil {
				s.inner.Close()
				return nil, bytes, err
			}
			bytes += n
			rows = append(rows, r)
		}
	}
	if err := s.inner.Close(); err != nil {
		return nil, bytes, err
	}
	return rows, bytes, nil
}

func (s *bspool) NextBatch() (*Batch, error) {
	b := s.win.next()
	if b == nil {
		return nil, nil
	}
	if err := s.ctx.tickN(b.Len()); err != nil {
		return nil, err
	}
	return b, nil
}

// Close releases nothing: the materialization belongs to the holder.
func (s *bspool) Close() error {
	s.win.pos = 0
	return nil
}

// contentGen implements contentVersioned: the generation of the pinned
// materialization.
func (s *bspool) contentGen() (uint64, bool) {
	if s.st == nil {
		return 0, false
	}
	return s.st.gen, true
}
