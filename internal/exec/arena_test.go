package exec

import (
	"runtime"
	"testing"

	"gapplydb/internal/types"
)

// raceEnabled is set under the race detector, which makes sync.Pool drop
// what it is handed at random: tests of reuse skip there.
var raceEnabled bool

// TestArenaReusesSlabs: a request rounds up to a power of two, a reset
// arena's next request of the same class gets the same storage back,
// cleared as it goes, an empty request is empty but not nil, and a warm
// arena allocates nothing.
func TestArenaReusesSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// One P: what a Put leaves in its private slot the next Get sees.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := new(arena)
	v := a.values(100)
	h := a.headers(3)
	if len(v) != 0 || cap(v) != 128 || len(h) != 0 || cap(h) != 4 {
		t.Fatalf("values(100): len %d cap %d; headers(3): len %d cap %d; want 0/128 and 0/4", len(v), cap(v), len(h), cap(h))
	}
	v = append(v, types.NewString("x"))
	h = append(h, v)
	a.reset()
	if len(a.vals) != 0 || len(a.hdrs) != 0 || a.held != 0 {
		t.Fatalf("reset left %d value slabs, %d header slabs, %d bytes", len(a.vals), len(a.hdrs), a.held)
	}
	v2, h2 := a.values(65)[:1], a.headers(4)[:1]
	if &v2[0] != &v[0] || &h2[0] != &h[0] {
		t.Fatal("a reset arena made fresh slabs instead of reusing its pooled ones")
	}
	if v2[0] != (types.Value{}) || h2[0] != nil {
		t.Fatalf("reused slabs hold %v and %v, want them cleared", v2[0], h2[0])
	}
	if a.values(0) == nil || a.headers(0) == nil {
		t.Fatal("an empty request returned nil")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		a.reset()
		a.values(100)
		a.headers(3)
	}); allocs != 0 {
		t.Fatalf("a warm arena allocates %.0f times per reuse, want 0", allocs)
	}
	a.reset()
}

// TestArenaCap: once an execution holds arenaMaxBytes, its further
// slabs are plain makes the arena does not keep.
func TestArenaCap(t *testing.T) {
	a := new(arena)
	defer a.reset()
	a.held = arenaMaxBytes - 4*headerBytes
	if s := a.headers(8); cap(s) != 8 || len(a.hdrs) != 0 {
		t.Fatalf("a request past the cap got capacity %d, %d slabs kept; want a plain make of 8, none kept", cap(s), len(a.hdrs))
	}
	if a.headers(4); len(a.hdrs) != 1 || a.held != arenaMaxBytes {
		t.Fatalf("a request up to the cap: %d slabs kept, %d bytes held; want 1 and the cap", len(a.hdrs), a.held)
	}
}

// TestArenaPoison: with the poison switch on, reset overwrites every
// value with the poison kind and every header with the poison row, and
// a slab handed out again keeps it.
func TestArenaPoison(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	SetPoisonOnRelease(true)
	defer SetPoisonOnRelease(false)
	a := new(arena)
	v := a.values(8)[:8]
	h := a.headers(2)[:2]
	for i := range v {
		v[i] = types.NewInt(int64(i))
	}
	h[0], h[1] = v[:4], v[4:]
	a.reset()
	for i, x := range v {
		if x.K != poisonKind {
			t.Fatalf("value %d = %v after reset, want poison", i, x)
		}
	}
	for i, r := range h {
		if &r[0] != &poisonRow[0] {
			t.Fatalf("header %d = %v after reset, want the poison row", i, r)
		}
	}
	if v2 := a.values(8)[:1]; &v2[0] != &v[0] || v2[0].K != poisonKind {
		t.Fatalf("the reused slab reads %v, want poison", v2[0])
	}
	a.reset()
}

// TestArenaHoldsOnlyCurrentTable: a hash table built through an arena
// hands every array it outgrows back, so what the arena holds is its
// final arrays alone, and leaving INT mode hands back the INT keys.
func TestArenaHoldsOnlyCurrentTable(t *testing.T) {
	const keys = 50000
	a := new(arena)
	defer a.reset()
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
// disjoint slabs, and reset waits for every registered worker before it
// recycles them. Run it under -race.
func TestArenaSharedByWorkers(t *testing.T) {
	const workers, takes = 8, 50
	a := new(arena)
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
	a.reset()
	seen := make(map[*types.Value]bool)
	for w, slabs := range mine {
		if len(slabs) != takes {
			t.Fatalf("worker %d took %d slabs by the time reset returned, want %d", w, len(slabs), takes)
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
