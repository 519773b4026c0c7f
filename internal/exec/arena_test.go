package exec

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"gapplydb/internal/types"
)

// newArena returns an arena of a fresh store.
func newArena() *arena { return &arena{store: new(Store)} }

// TestArenaReusesSlabs: a request rounds up to a power of two, a
// released arena's next request of the same class gets the same storage
// back, cleared as it goes, an empty request is empty but not nil, and a
// warm arena allocates nothing, after garbage collections too.
func TestArenaReusesSlabs(t *testing.T) {
	a := newArena()
	v := a.values(100)
	h := a.headers(3)
	if len(v) != 0 || cap(v) != 128 || len(h) != 0 || cap(h) != 4 {
		t.Fatalf("values(100): len %d cap %d; headers(3): len %d cap %d; want 0/128 and 0/4", len(v), cap(v), len(h), cap(h))
	}
	v = append(v, types.NewString("x"))
	h = append(h, v)
	a.release()
	if len(a.vals) != 0 || len(a.hdrs) != 0 || a.held != 0 {
		t.Fatalf("release left %d value slabs, %d header slabs, %d bytes", len(a.vals), len(a.hdrs), a.held)
	}
	runtime.GC()
	runtime.GC()
	v2, h2 := a.values(65)[:1], a.headers(4)[:1]
	if &v2[0] != &v[0] || &h2[0] != &h[0] {
		t.Fatal("a released arena made fresh slabs instead of reusing its store's")
	}
	if v2[0] != (types.Value{}) || h2[0] != nil {
		t.Fatalf("reused slabs hold %v and %v, want them cleared", v2[0], h2[0])
	}
	if a.values(0) == nil || a.headers(0) == nil {
		t.Fatal("an empty request returned nil")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		a.release()
		a.values(100)
		a.headers(3)
	}); allocs != 0 {
		t.Fatalf("a warm arena allocates %.0f times per reuse, want 0", allocs)
	}
	a.release()
}

// TestStoreRecyclesArenas: a released arena goes back to its store, and
// the next execution's Context gets it again.
func TestStoreRecyclesArenas(t *testing.T) {
	ctx := NewContext(nil, new(Store))
	ctx.attachArena()
	a := ctx.arena
	ctx.ReleaseArena()
	if ctx.arena != nil {
		t.Fatal("ReleaseArena left the arena attached")
	}
	ctx.attachArena()
	if ctx.arena != a {
		t.Fatal("the store made a new arena instead of handing the released one out")
	}
	ctx.ReleaseArena()
}

// TestStoreBound: a store keeps at most storeMaxBytes of free slabs;
// what a release hands back past that is left to the GC.
func TestStoreBound(t *testing.T) {
	a := newArena()
	a.store.free = storeMaxBytes - 64*int(unsafe.Sizeof(types.Value{}))
	a.values(64)
	a.values(128)
	a.release()
	if n0, n1 := len(a.store.vals[6]), len(a.store.vals[7]); n0 != 1 || n1 != 0 || a.store.free != storeMaxBytes {
		t.Fatalf("store keeps %d slabs of 64 values and %d of 128, %d bytes free; want 1, 0 and the bound", n0, n1, a.store.free)
	}
}

// TestStoreSharedByExecutions: executions on other goroutines take
// and release arenas of one store at once, and a slab is never handed to
// two of them while both hold it. Run it under -race.
func TestStoreSharedByExecutions(t *testing.T) {
	const executions, rounds = 4, 200
	st := new(Store)
	var wg sync.WaitGroup
	for e := 0; e < executions; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewContext(nil, st)
			for i := 0; i < rounds; i++ {
				ctx.attachArena()
				v := ctx.arena.values(1 + i%64)[:1]
				h := ctx.arena.headers(4)[:1]
				v[0], h[0] = types.NewInt(int64(e)), v
				runtime.Gosched()
				if v[0].Int() != int64(e) || &h[0][0] != &v[0] {
					t.Errorf("execution %d reads %v: another execution holds its slab", e, v[0])
				}
				ctx.ReleaseArena()
			}
		}()
	}
	wg.Wait()
}

// TestClosedStoreDropsSlabs: Close empties the store, and what an arena
// hands back afterwards, even from another goroutine, is dropped.
func TestClosedStoreDropsSlabs(t *testing.T) {
	const arenas = 4
	st := new(Store)
	held := make([]*arena, arenas)
	for i := range held {
		held[i] = &arena{store: st}
		held[i].values(64)
		held[i].Slots(16)
	}
	keep := &arena{store: st}
	keep.headers(8)
	keep.release()
	st.Close()
	var wg sync.WaitGroup
	for _, a := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Drop(a.Slots(1024), nil, nil)
			a.release()
		}()
	}
	wg.Wait()
	if n := len(st.vals[6]) + len(st.hdrs[3]) + len(st.slots[4]) + len(st.slots[10]); st.free != 0 || len(st.arenas) != 0 || n != 0 {
		t.Fatalf("a closed store keeps %d bytes, %d arenas and %d slabs; want none", st.free, len(st.arenas), n)
	}
}

// TestIdleStoreDropsSlabs: a release sets the store's idle timer, and
// when it fires the store's free slabs and arenas go, while it stays
// open for the next execution.
func TestIdleStoreDropsSlabs(t *testing.T) {
	ctx := NewContext(nil, new(Store))
	ctx.attachArena()
	ctx.arena.values(64)
	ctx.ReleaseArena()
	st := ctx.store
	st.mu.Lock()
	armed, free := st.idle != nil, st.free
	st.mu.Unlock()
	if !armed || free == 0 {
		t.Fatalf("after a release the idle timer is set: %v, %d bytes free; want set and the slab kept", armed, free)
	}
	st.idle.Stop()
	st.trim() // as the timer would
	if n := len(st.vals[6]); st.free != 0 || len(st.arenas) != 0 || n != 0 {
		t.Fatalf("an idle store keeps %d bytes, %d arenas and %d slabs; want none", st.free, len(st.arenas), n)
	}
	ctx.attachArena()
	ctx.arena.values(64)
	ctx.ReleaseArena()
	if len(st.vals[6]) != 1 {
		t.Fatal("a trimmed store does not keep the next execution's slabs")
	}
	st.Close()
}

// TestArenaCap: once an execution holds arenaMaxBytes, its further
// slabs are plain makes the arena does not keep.
func TestArenaCap(t *testing.T) {
	a := newArena()
	defer a.release()
	a.held = arenaMaxBytes - 4*int(unsafe.Sizeof(types.Row(nil)))
	if s := a.headers(8); cap(s) != 8 || len(a.hdrs) != 0 {
		t.Fatalf("a request past the cap got capacity %d, %d slabs kept; want a plain make of 8, none kept", cap(s), len(a.hdrs))
	}
	if a.headers(4); len(a.hdrs) != 1 || a.held != arenaMaxBytes {
		t.Fatalf("a request up to the cap: %d slabs kept, %d bytes held; want 1 and the cap", len(a.hdrs), a.held)
	}
}

// TestArenaPoison: with the poison switch on, release overwrites every
// value with the poison kind and every header with the poison row, and
// a slab handed out again keeps it.
func TestArenaPoison(t *testing.T) {
	SetPoisonOnRelease(true)
	defer SetPoisonOnRelease(false)
	a := newArena()
	v := a.values(8)[:8]
	h := a.headers(2)[:2]
	for i := range v {
		v[i] = types.NewInt(int64(i))
	}
	h[0], h[1] = v[:4], v[4:]
	a.release()
	for i, x := range v {
		if x.K != poisonKind {
			t.Fatalf("value %d = %v after release, want poison", i, x)
		}
	}
	for i, r := range h {
		if &r[0] != &poisonRow[0] {
			t.Fatalf("header %d = %v after release, want the poison row", i, r)
		}
	}
	if v2 := a.values(8)[:1]; &v2[0] != &v[0] || v2[0].K != poisonKind {
		t.Fatalf("the reused slab reads %v, want poison", v2[0])
	}
	a.release()
}

// TestArenaHoldsOnlyCurrentTable: a hash table built through an arena
// hands every array it outgrows back, so what the arena holds is its
// final arrays alone, and leaving INT mode hands back the INT keys.
func TestArenaHoldsOnlyCurrentTable(t *testing.T) {
	const keys = 50000
	a := newArena()
	defer a.release()
	tab := types.KeyTable{Storage: a}
	var firsts []types.Row
	for i := range keys {
		tab.Add(&firsts, types.Row{types.NewInt(int64(i))}, []int{0})
	}
	if len(a.slots) != 1 || len(a.ids) != 1 || len(a.ints) != 1 {
		t.Fatalf("after %d INT keys the arena holds %d slot, %d first-row and %d INT arrays, want 1 each",
			keys, len(a.slots), len(a.ids), len(a.ints))
	}
	// 2·keys rounded up to a power of two slots, half as many ids.
	const slots = 1 << 17
	if want := 8*slots + (4+8)*slots/2; a.held != want {
		t.Fatalf("the arena holds %d bytes, want the final table's %d", a.held, want)
	}
	if _, isNew := tab.Add(&firsts, types.Row{types.NewString("x")}, []int{0}); !isNew || len(a.ints) != 0 {
		t.Fatalf("a string key: new %v, %d INT arrays held; want a new key and none", isNew, len(a.ints))
	}
	probes := []types.Row{{types.NewInt(keys - 1)}, {types.NewString("x")}, {types.NewInt(keys)}}
	if ids := tab.FindAll(nil, firsts, []int{0}, probes, []int{0}); ids[0] != keys-1 || ids[1] != keys || ids[2] != -1 {
		t.Fatalf("probes found ids %v, want [%d %d -1]", ids, keys-1, keys)
	}
}

// TestArenaSharedByWorkers: goroutines taking from one arena at once get
// disjoint slabs, and release waits for every registered worker before
// it recycles them. Run it under -race.
func TestArenaSharedByWorkers(t *testing.T) {
	const workers, takes = 8, 50
	a := newArena()
	mine := make([][]types.Row, workers)
	a.workers.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer a.workers.Done()
			for i := 0; i < takes; i++ {
				s := a.values(16)[:16]
				for j := range s {
					s[j] = types.NewInt(int64(w))
				}
				mine[w] = append(mine[w], s)
			}
		}()
	}
	a.release()
	seen := make(map[*types.Value]bool)
	for w, slabs := range mine {
		if len(slabs) != takes {
			t.Fatalf("worker %d took %d slabs by the time release returned, want %d", w, len(slabs), takes)
		}
		for _, s := range slabs {
			if seen[&s[0]] {
				t.Fatal("one slab was handed out twice")
			}
			seen[&s[0]] = true
			for _, v := range s {
				if v.Int() != int64(w) {
					t.Fatalf("worker %d's slab holds %v: another worker wrote it", w, s)
				}
			}
		}
	}
}
