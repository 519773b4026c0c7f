package exec

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gapplydb/internal/types"
)

// Store is the row storage a database's executions share: free slabs by
// element type and size class, and the arenas that hand them out. An
// execution takes an arena when its plan is built and hands it back,
// slabs and all, when its tree is closed, so the next one reuses the
// storage: at steady state an execution's slabs cost no allocation and
// no garbage. The store keeps about what the executions in flight use,
// at most storeMaxBytes, and drops it once no execution has ended for
// storeIdle, or at Close. One mutex guards the free slabs and every
// arena's record of what it took; a call takes it once per slab, never
// once per row. The zero Store is empty and ready.
type Store struct {
	mu     sync.Mutex
	closed bool
	idle   *time.Timer // fires storeIdle after the last release: trim
	free   int         // the bytes of the free slabs
	arenas []*arena    // arenas no execution holds
	vals   shelf[types.Value]
	hdrs   shelf[types.Row]
	sels   shelf[int]
	slots  shelf[uint64]
	ids    shelf[int32]
	ints   shelf[int64]
}

// shelf is a store's free slabs of one element type by size class:
// class k's have capacity 1<<k.
type shelf[T any] [bits.UintSize][][]T

// storeMaxBytes caps the free slabs a store keeps: what two executions
// at arenaMaxBytes hand back. Past it a slab handed back goes to the GC.
const storeMaxBytes = 2 * arenaMaxBytes

// storeIdle is how long a store keeps its free slabs after the last
// execution ended: an idle database keeps only its tables live.
const storeIdle = 10 * time.Second

// Close drops the store's storage; what an execution still running
// hands back later goes to the GC.
func (st *Store) Close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.trim()
}

// trim drops every free slab and arena, so none of them keeps the rows
// and strings it last pointed at reachable: at Close, and when the idle
// timer fires. A release racing the timer may lose its slabs to it,
// which only costs the next execution fresh ones.
func (st *Store) trim() {
	st.mu.Lock()
	st.free, st.arenas = 0, nil
	st.vals, st.hdrs, st.sels = shelf[types.Value]{}, shelf[types.Row]{}, shelf[int]{}
	st.slots, st.ids, st.ints = shelf[uint64]{}, shelf[int32]{}, shelf[int64]{}
	st.mu.Unlock()
}

// arena is one execution's row storage: every Value slab the operators
// carve rows from and every row-header slab they lay rows out in, the
// selection vectors segment programs narrow, and the slot, first-row and
// INT-key arrays of its hash tables (it is their types.KeyStorage).
// Storage is handed out, never taken back, until the release, so a row
// stays valid until then (the ownership contract, batch.go); the one
// exception is the arrays a hash table outgrows, which it hands back as
// it grows (Drop). A slab's capacity is the request rounded up to a
// power of two, its size class, so the same request finds it again.
// Forked GApply workers share their parent's arena.
//
// A reused slab is cleared when it is handed out again, not when it is
// released, so the operator writes memory the clear just brought into
// cache; until then it keeps the rows and strings it pointed at
// reachable. A hash table's per-id arrays hold no pointers and are only
// appended to, so they are never cleared; its slot arrays, whose zeros
// mean empty, always are.
type arena struct {
	store *Store
	// The slabs taken this execution, by element type, and their bytes;
	// guarded by store.mu.
	vals  [][]types.Value
	hdrs  [][]types.Row
	sels  [][]int
	slots [][]uint64
	ids   [][]int32
	ints  [][]int64
	held  int

	// workers counts GApply workers that may still take storage: release
	// waits for them, so no slab is recycled under a worker winding down.
	workers sync.WaitGroup
}

// arenaMaxBytes caps what one execution takes from its store. Past it
// its slabs are plain makes the GC reclaims as the stream moves on, so a
// huge result does not stay resident until Close.
const arenaMaxBytes = 64 << 20

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

// values, headers and sel return an empty slab of Values, row headers
// or selection indexes with room for at least n.
func (a *arena) values(n int) types.Row {
	return take(a, &a.vals, &a.store.vals, n, !poisonOnRelease.Load())
}
func (a *arena) headers(n int) []types.Row {
	return take(a, &a.hdrs, &a.store.hdrs, n, !poisonOnRelease.Load())
}
func (a *arena) sel(n int) []int { return take(a, &a.sels, &a.store.sels, n, !poisonOnRelease.Load()) }

// Slots, Int32s and Int64s hand out a hash table's arrays
// (types.KeyStorage): n zeroed slots, and empty slices with room for n
// first-row indexes or INT keys.
func (a *arena) Slots(n int) []uint64 { return take(a, &a.slots, &a.store.slots, n, true)[:n] }
func (a *arena) Int32s(n int) []int32 { return take(a, &a.ids, &a.store.ids, n, false) }
func (a *arena) Int64s(n int) []int64 { return take(a, &a.ints, &a.store.ints, n, false) }

// Drop hands a hash table's outgrown arrays back to the store
// (types.KeyStorage), so that a table holds only its current arrays,
// and a later table can reuse them. An array the arena did not hand out
// is left to the GC.
func (a *arena) Drop(slots []uint64, firsts []int32, ints []int64) {
	poison := poisonOnRelease.Load()
	st := a.store
	st.mu.Lock()
	a.slots = give(a, a.slots, &st.slots, slots, false, 0)
	a.ids = give(a, a.ids, &st.ids, firsts, poison, poisonID)
	a.ints = give(a, a.ints, &st.ints, ints, poison, poisonInt)
	st.mu.Unlock()
}

// take hands out a free slab of n's class, cleared when zero is set, or
// makes one, and records it in used.
func take[T any](a *arena, used *[][]T, free *shelf[T], n int, zero bool) []T {
	if n == 0 {
		return make([]T, 0) // empty but not nil, as make would return
	}
	k := bits.Len(uint(n - 1)) // the smallest class holding n
	bytes := int(unsafe.Sizeof(*new(T))) << k
	st := a.store
	st.mu.Lock()
	if a.held+bytes > arenaMaxBytes {
		st.mu.Unlock()
		return make([]T, 0, n)
	}
	a.held += bytes
	var s []T
	last := len(free[k]) - 1
	if last >= 0 {
		s, free[k][last], free[k] = free[k][last], nil, free[k][:last]
		st.free -= bytes
	} else {
		s = make([]T, 0, 1<<k)
	}
	*used = append(*used, s)
	st.mu.Unlock()
	if last >= 0 && zero {
		clear(s[:cap(s)]) // outside the lock the other executions take
	}
	return s
}

// shelve hands every slab of used to the store and returns used
// emptied, first overwriting each element with fill when poison is set;
// a closed store, or one holding storeMaxBytes, leaves a slab to the GC.
// The caller holds st.mu.
func shelve[T any](st *Store, free *shelf[T], used [][]T, poison bool, fill T) [][]T {
	for i, s := range used {
		if s = s[:cap(s)]; poison {
			for j := range s {
				s[j] = fill
			}
		}
		if bytes := int(unsafe.Sizeof(s[0])) * cap(s); !st.closed && st.free+bytes <= storeMaxBytes {
			k := bits.Len(uint(cap(s) - 1))
			free[k] = append(free[k], s[:0])
			st.free += bytes
		}
		used[i] = nil
	}
	return used[:0]
}

// give shelves the slab of used that s lies in, if any, and takes it out
// of used and of what a holds. The caller holds a.store.mu.
func give[T any](a *arena, used [][]T, free *shelf[T], s []T, poison bool, fill T) [][]T {
	for i := len(used) - 1; i >= 0 && cap(s) > 0; i-- {
		if p := used[i]; unsafe.SliceData(p) == unsafe.SliceData(s) {
			a.held -= int(unsafe.Sizeof(p[0])) * cap(p)
			last := len(used) - 1
			used[i], used[last] = used[last], p
			shelve(a.store, free, used[last:], poison, fill)
			return used[:last]
		}
	}
	return used
}

// release waits for any worker still winding down, then hands every slab
// taken, and the arena itself, back to the store, and sets the store's
// idle timer.
func (a *arena) release() {
	a.workers.Wait()
	poison := poisonOnRelease.Load()
	st := a.store
	st.mu.Lock()
	a.vals = shelve(st, &st.vals, a.vals, poison, poisonValue)
	a.hdrs = shelve(st, &st.hdrs, a.hdrs, poison, poisonRow)
	a.sels = shelve(st, &st.sels, a.sels, false, 0)
	a.slots = shelve(st, &st.slots, a.slots, false, 0)
	a.ids = shelve(st, &st.ids, a.ids, poison, poisonID)
	a.ints = shelve(st, &st.ints, a.ints, poison, poisonInt)
	a.held = 0
	if !st.closed {
		st.arenas = append(st.arenas, a)
		if st.idle == nil {
			st.idle = time.AfterFunc(storeIdle, st.trim)
		}
		st.idle.Reset(storeIdle)
	}
	st.mu.Unlock()
}

// attachArena gives the execution an arena of its store; BuildBatch
// calls it, so the rows of the tree it builds stay valid only until
// ReleaseArena.
func (c *Context) attachArena() {
	st := c.store
	st.mu.Lock()
	defer st.mu.Unlock()
	if last := len(st.arenas) - 1; last >= 0 {
		c.arena, st.arenas = st.arenas[last], st.arenas[:last]
	} else {
		c.arena = &arena{store: st}
	}
}

// ReleaseArena hands the execution's row storage back to its store once
// its iterator tree is closed: every row it produced is invalid from
// then on, its storage going to a later execution. Call it once per
// built tree.
func (c *Context) ReleaseArena() {
	c.arena.release()
	c.arena = nil
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
