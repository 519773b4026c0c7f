package exec

import (
	"math/bits"

	"gapplydb/internal/types"
)

// This file is the spine of the batch-at-a-time engine: the Batch
// container, the BatchIterator operator interface, and the drain
// helpers the operators share. The engine keeps the Volcano shape — a
// pull-based operator tree — but each pull moves a batch of up to
// batchSize rows, so the per-row interface call, cancellation poll, and
// allocation a row-at-a-time tree pays are paid once per batch instead.
//
// Layout. A Batch is row-major: Rows holds the row data (each row a
// types.Row, the same representation the storage layer uses), and Sel
// is the selection vector — the indexes of the
// live rows, in order. Filters narrow Sel without moving row data;
// column-oriented kernels (vector.go) traverse one column of the live
// rows in a tight loop. Row-major with a selection vector, rather than
// a columnar flip, because the storage layer is row-major, every
// operator exchanges whole rows, and a types.Value is a 40-byte struct:
// transposing at every operator boundary would cost more than the
// column-stride traversal saves.
//
// Ownership contract. Row values (types.Row headers and the Values they
// point at) are immutable and stable for the whole execution: holding
// one past the next pull is always safe, and no operator ever overwrites
// a row it has emitted — except a scalar aggregate, whose one result row
// (segAgg) is rewritten when it is re-opened, after whatever re-opens
// it has copied or bound the previous one. They are not stable beyond
// the execution: every execution
// carves its rows from an arena (arena.go) whose storage goes to a later
// execution at ReleaseArena, so a consumer that keeps a row longer must
// copy it (Cursor.Drain, behind Run and Query, copies every value into
// one slab the caller owns).
// The Batch container itself — the Rows and Sel slices — is transient:
// it is valid only until the next NextBatch call on the producer, which
// may reuse the backing arrays. An operator that keeps rows across pulls
// (sort, join build, partition, spool) must copy the row headers out;
// none needs to copy row data.

// batchSize is the target number of rows per batch. It matches
// cancelBatch, so one batch of work is also one cancellation window:
// polling once per batch bounds the cancellation latency to one
// window of rows.
const batchSize = 256

// Batch is a set of rows flowing between batch operators.
type Batch struct {
	// Rows is the row data. Not all of it need be live: consult Sel.
	Rows []types.Row
	// Sel is the selection vector: indexes into Rows of the live rows,
	// in output order. nil means every row is live, in order.
	Sel []int
}

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Rows)
}

// Row returns the i-th live row.
func (b *Batch) Row(i int) types.Row {
	if b.Sel != nil {
		return b.Rows[b.Sel[i]]
	}
	return b.Rows[i]
}

// AppendRows appends the live rows' headers to dst and returns it — the
// copy-out a materializing consumer performs to own rows past the
// producer's next pull.
func (b *Batch) AppendRows(dst []types.Row) []types.Row {
	if b.Sel != nil {
		for _, i := range b.Sel {
			dst = append(dst, b.Rows[i])
		}
		return dst
	}
	return append(dst, b.Rows...)
}

// rowSlab carves stable row storage out of shared slabs. Every carve is
// a three-index slice (slab[start:end:end]), so a carved row can never
// grow into its neighbor or the slab's unused tail — which is what lets
// one slab serve many batches: a fresh slab is taken from the arena
// (geometrically, capped at one full batch's worth of rows) only when the
// current one fills. The carved values are stable for the execution, as
// the ownership contract requires; only the *unused* slab capacity is
// recycled.
type rowSlab struct {
	slab  types.Row
	width int    // output arity, for the full-batch cap
	arena *arena // where fresh slabs come from
}

// carve returns stable, contiguous storage for n values. Values already
// carved keep pointing into the old slab when a fresh one is taken; a
// zero-width carve still gets a (zero-capacity) slab, so its rows are
// empty but never nil.
func (s *rowSlab) carve(n int) types.Row {
	if s.slab == nil || len(s.slab)+n > cap(s.slab) {
		s.slab = s.arena.values(max(min(max(2*cap(s.slab), 8*n), batchSize*s.width), n))
	}
	start := len(s.slab)
	s.slab = s.slab[:start+n]
	return s.slab[start : start+n : start+n]
}

// identitySel grows (or reuses) sel as the identity selection [0, n).
func identitySel(sel []int, n int) []int {
	sel = sel[:0]
	for i := 0; i < n; i++ {
		sel = append(sel, i)
	}
	return sel
}

// BatchIterator is the batch-engine operator interface. NextBatch
// returns a nil Batch at end of stream; a returned Batch has at least
// one live row. After Close, Open may be called again to re-execute the
// subtree (Apply and GApply rely on this).
type BatchIterator interface {
	Open() error
	NextBatch() (*Batch, error)
	Close() error
}

// appendDrained appends the header of every live row an open iterator
// has left to dst, polling cancellation once per batch — the engine's
// internal materializations (join builds and Apply inners) use it, so a
// blocking materialization stops within one row batch of the query
// being cancelled.
func appendDrained(dst []types.Row, it BatchIterator, c *Context) ([]types.Row, error) {
	for {
		b, err := it.NextBatch()
		if err != nil || b == nil {
			return dst, err
		}
		n := b.Len()
		if err := c.tickN(n); err != nil {
			return dst, err
		}
		if len(dst)+n > cap(dst) {
			// Double, rather than append's gentler growth for large
			// slices, whose successive copies of a drain of n rows add
			// up to about 5n headers.
			grown := c.arena.headers(2*cap(dst) + n)[:len(dst)]
			copy(grown, dst)
			dst = grown
		}
		dst = b.AppendRows(dst)
	}
}

// chunked is an append-only store for a materializing operator that
// lays its input out anew (GApply's partition, sort): row headers, or a
// value per row. Chunk k holds batchSize<<min(k, chunkLog) values: the
// chunks grow geometrically from one batch, so a small input costs one
// small chunk, up to a cap, and a full chunk is never copied — unlike a
// doubling slice, whose growth copies add up to about one more value per
// value stored. Two stores filled in step have the same chunk bounds.
// reset keeps the chunks for the next fill.
type chunked[T any] struct {
	chunks [][]T // every chunk but the last is full
	n      int
	arena  *arena // where a row-header store's chunks come from
}

const chunkLog = 4 // chunks stop growing at 16 batches

func (c *chunked[T]) reset() { c.chunks, c.n = c.chunks[:0], 0 }

func (c *chunked[T]) add(v T) {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k]) == cap(c.chunks[k]) {
		k++
		var next []T // chunk k of an earlier fill, if any
		if k < cap(c.chunks) {
			next = c.chunks[:k+1][k][:0]
		}
		if cap(next) == 0 {
			next = newChunk[T](c.arena, batchSize<<min(k, chunkLog))
		}
		c.chunks = append(c.chunks, next)
	}
	c.chunks[k] = append(c.chunks[k], v)
	c.n++
}

// at returns the i-th value added.
func (c *chunked[T]) at(i int) T {
	// Chunks 0 … chunkLog-1 hold batchSize·(2^chunkLog − 1) values,
	// chunk k starting at batchSize·(2^k − 1); every later chunk is full
	// size.
	const grown, full = batchSize<<chunkLog - batchSize, batchSize << chunkLog
	if i >= grown {
		i -= grown
		return c.chunks[chunkLog+i/full][i%full]
	}
	k := bits.Len(uint(i/batchSize+1)) - 1
	return c.chunks[k][i-batchSize*(1<<k-1)]
}

// gather writes the values in perm order (perm[j] is the index of the
// j-th) into dst, which must have room for them all.
func (c *chunked[T]) gather(dst []T, perm []int32) {
	for j, i := range perm {
		dst[j] = c.at(int(i))
	}
}

// rowWindow emits a stable row slice as a sequence of batches without
// copying: each batch aliases a batchSize window of the slice. The rows
// must outlive the iteration (materialized state does).
type rowWindow struct {
	rows []types.Row
	pos  int
	out  Batch
}

func (w *rowWindow) reset(rows []types.Row) { w.rows, w.pos = rows, 0 }

func (w *rowWindow) next() *Batch {
	if w.pos >= len(w.rows) {
		return nil
	}
	end := min(w.pos+batchSize, len(w.rows))
	w.out = Batch{Rows: w.rows[w.pos:end]}
	w.pos = end
	return &w.out
}
