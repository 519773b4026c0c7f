package exec

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"gapplydb/internal/types"
)

// arena is one execution's row storage: every Value slab the operators
// carve rows from and every row-header slab they lay rows out in, the
// selection vectors segment programs narrow, and the slot, first-row and
// INT-key arrays of its hash tables (it is their types.KeyStorage). A
// streamed execution takes one from a package pool (Context.AttachArena)
// and hands it back when its Stream is closed (Context.ReleaseArena).
// The slabs themselves come from package pools, one per element type and
// size class, and the release returns each to its pool, so the next
// execution reuses the storage instead of allocating it afresh: at
// steady state an execution's slabs cost no allocation and no garbage.
// The pools are shared by every execution, so the storage kept is about
// what the executions in flight use, not that times the number of
// arenas; and sync.Pool hands storage no execution has asked for over
// two GC cycles back to the GC.
//
// The storage is handed out, never taken back, until the release: a row
// stays valid until then, which is the ownership contract of a streamed
// execution (batch.go). The one exception is the arrays a hash table
// outgrows, private to it, which it hands back as it grows (Drop). A
// slab's capacity is the request rounded up to a power of two, its size
// class, so the same request finds it again.
// Forked GApply workers share their parent's arena; every call takes the
// mutex, once per slab, never once per row.
//
// A reused slab is cleared when it is handed out again, not when it is
// released: the operator then writes memory the clear has just brought
// into cache, as with a fresh make, where clearing at release made every
// slab cross memory twice. Until then a pooled slab keeps its old
// contents, so what they point at — mostly table rows, strings and other
// pooled slabs — stays reachable while it is pooled. A hash table's
// per-id arrays hold no pointers and are only ever appended to, so they
// are not cleared at all; its slot arrays, whose zeros mean empty, always
// are.
//
// A nil *arena is what Run and direct BuildBatch tests execute with:
// every call is a plain make, and the GC reclaims the rows once nothing
// points at them. Every query the root package runs, Query included,
// carries an arena.
type arena struct {
	mu   sync.Mutex
	vals []*[]types.Value // Value slabs taken this execution
	hdrs []*[]types.Row   // row-header slabs taken this execution
	sels []*[]int         // selection-vector slabs taken this execution
	// The KeyTable arrays taken this execution.
	slots []*[]uint64
	ids   []*[]int32
	ints  []*[]int64
	held  int // the bytes of every slab taken

	// workers counts GApply workers that may still take storage: release
	// waits for them, so no slab is recycled under a worker winding down.
	workers sync.WaitGroup
}

// arenaMaxBytes caps what one execution takes from the pools. Past it
// its slabs are plain makes the GC reclaims as the stream moves on, so a
// huge result does not stay resident until Close.
const arenaMaxBytes = 64 << 20

const (
	valueBytes  = int(unsafe.Sizeof(types.Value{}))
	headerBytes = int(unsafe.Sizeof(types.Row(nil)))
	selBytes    = int(unsafe.Sizeof(0))
)

var (
	arenaPool = sync.Pool{New: func() any { return new(arena) }}
	// Free slabs by size class: class k's have capacity 1<<k. A slab is
	// pooled as a pointer allocated once with it, so Put allocates
	// nothing.
	valuePools, headerPools, selPools [bits.UintSize]sync.Pool
	slotPools, idPools, intPools      [bits.UintSize]sync.Pool
)

// poisonOnRelease makes release fill recycled slabs with poison, left
// in place when they are handed out again (SetPoisonOnRelease).
var poisonOnRelease atomic.Bool

// poisonKind is no Kind the engine defines: a poisoned Value is never
// mistaken for data.
const poisonKind types.Kind = 0xEE

var (
	poisonValue = types.Value{K: poisonKind}
	// poisonRow is what every row header of a poisoned header slab points
	// at: poison in every column an output row can have.
	poisonRow = func() types.Row {
		r := make(types.Row, 256)
		for i := range r {
			r[i] = poisonValue
		}
		return r
	}()
)

// Poison for a hash table's first-row indexes (no row has a negative
// index) and INT keys.
const (
	poisonID  = -0x11111112
	poisonInt = -0x1111111111111112
)

// SetPoisonOnRelease is a test hook. While on, a released arena fills
// its Value slabs with an invalid Kind, its header slabs with a shared
// poison row and its hash tables' per-id arrays with poison ids and
// ints, and a reused slab is not cleared (a slot array still is), so a
// row read after its Stream was closed, or a slot read before an
// operator wrote it, reads as poison rather than as another query's
// data.
func SetPoisonOnRelease(on bool) { poisonOnRelease.Store(on) }

// values returns an empty Value slab with room for at least n values.
func (a *arena) values(n int) types.Row {
	if a == nil {
		return make(types.Row, 0, n)
	}
	return take(a, &a.vals, &valuePools, n, valueBytes, !poisonOnRelease.Load())
}

// headers returns an empty row-header slab with room for at least n rows.
func (a *arena) headers(n int) []types.Row {
	if a == nil {
		return make([]types.Row, 0, n)
	}
	return take(a, &a.hdrs, &headerPools, n, headerBytes, !poisonOnRelease.Load())
}

// sel returns an empty selection-vector slab with room for at least n
// indexes.
func (a *arena) sel(n int) []int {
	if a == nil {
		return make([]int, 0, n)
	}
	return take(a, &a.sels, &selPools, n, selBytes, !poisonOnRelease.Load())
}

// Slots returns n zeroed hash-table slots (types.KeyStorage).
func (a *arena) Slots(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return take(a, &a.slots, &slotPools, n, 8, true)[:n]
}

// Int32s returns an empty slice with room for n hash-table first-row
// indexes (types.KeyStorage).
func (a *arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, 0, n)
	}
	return take(a, &a.ids, &idPools, n, 4, false)
}

// Int64s returns an empty slice with room for n hash-table INT keys
// (types.KeyStorage).
func (a *arena) Int64s(n int) []int64 {
	if a == nil {
		return make([]int64, 0, n)
	}
	return take(a, &a.ints, &intPools, n, 8, false)
}

// Drop hands a hash table's outgrown arrays back to their pools
// (types.KeyStorage), so that a table holds only its current arrays,
// and a later table of the execution can reuse them. An array the arena
// did not hand out is left to the GC.
func (a *arena) Drop(slots []uint64, firsts []int32, ints []int64) {
	if a == nil {
		return
	}
	poison := poisonOnRelease.Load()
	a.mu.Lock()
	a.slots = give(a, a.slots, &slotPools, slots, 8, false, 0)
	a.ids = give(a, a.ids, &idPools, firsts, 4, poison, poisonID)
	a.ints = give(a, a.ints, &intPools, ints, 8, poison, poisonInt)
	a.mu.Unlock()
}

// take hands out a pooled slab of n's class, cleared when zero is set,
// or makes one, and records it in used; size is the element's bytes.
func take[T any](a *arena, used *[]*[]T, pools *[bits.UintSize]sync.Pool, n, size int, zero bool) []T {
	if n == 0 {
		return make([]T, 0) // empty but not nil, as make would return
	}
	k := bits.Len(uint(n - 1)) // the smallest class holding n
	a.mu.Lock()
	if a.held+size<<k > arenaMaxBytes {
		a.mu.Unlock()
		return make([]T, 0, n)
	}
	a.held += size << k
	p, reused := pools[k].Get().(*[]T)
	if !reused {
		s := make([]T, 0, 1<<k)
		p = &s
	}
	*used = append(*used, p)
	a.mu.Unlock()
	if reused && zero {
		clear((*p)[:cap(*p)])
	}
	return *p
}

// put returns slab p to its pool, first overwriting each element with
// fill when poison is set.
func put[T any](p *[]T, pools *[bits.UintSize]sync.Pool, poison bool, fill T) {
	if poison {
		s := (*p)[:cap(*p)]
		for i := range s {
			s[i] = fill
		}
	}
	pools[bits.Len(uint(cap(*p)-1))].Put(p)
}

// recycle puts every slab in used back and empties used.
func recycle[T any](used []*[]T, pools *[bits.UintSize]sync.Pool, poison bool, fill T) []*[]T {
	for _, p := range used {
		put(p, pools, poison, fill)
	}
	clear(used)
	return used[:0]
}

// give puts back the slab of used that s lies in, if any, and takes it
// out of used and of what a holds; size is the element's bytes. The
// caller holds a.mu.
func give[T any](a *arena, used []*[]T, pools *[bits.UintSize]sync.Pool, s []T, size int, poison bool, fill T) []*[]T {
	if cap(s) == 0 {
		return used
	}
	for i := len(used) - 1; i >= 0; i-- {
		if p := used[i]; unsafe.SliceData(*p) == unsafe.SliceData(s) {
			put(p, pools, poison, fill)
			a.held -= size * cap(*p)
			last := len(used) - 1
			used[i], used[last] = used[last], nil
			return used[:last]
		}
	}
	return used
}

// reset waits for any worker still winding down, then returns every slab
// taken to its pool.
func (a *arena) reset() {
	a.workers.Wait()
	poison := poisonOnRelease.Load()
	a.mu.Lock()
	a.vals = recycle(a.vals, &valuePools, poison, poisonValue)
	a.hdrs = recycle(a.hdrs, &headerPools, poison, poisonRow)
	a.sels = recycle(a.sels, &selPools, false, 0)
	a.slots = recycle(a.slots, &slotPools, false, 0)
	a.ids = recycle(a.ids, &idPools, poison, poisonID)
	a.ints = recycle(a.ints, &intPools, poison, poisonInt)
	a.held = 0
	a.mu.Unlock()
}

// AttachArena gives the execution pooled row storage. Call it before the
// plan is built; the rows the execution produces then stay valid only
// until ReleaseArena.
func (c *Context) AttachArena() { c.arena = arenaPool.Get().(*arena) }

// ReleaseArena recycles the execution's row storage once its iterator
// tree is closed: every row it produced is invalid from then on, its
// storage going to a later execution. A no-op without an arena.
func (c *Context) ReleaseArena() {
	if c.arena != nil {
		c.arena.reset()
		arenaPool.Put(c.arena)
		c.arena = nil
	}
}

// newChunk returns an empty slice with room for exactly n elements: from
// a's header slabs when T is a row header, else from make.
func newChunk[T any](a *arena, n int) []T {
	var s []T
	if h, ok := any(&s).(*[]types.Row); ok {
		*h = a.headers(n)[:0:n]
		return s
	}
	return make([]T, 0, n)
}
