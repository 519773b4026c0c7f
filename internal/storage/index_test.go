package storage

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

func indexTestTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	cat := NewCatalog()
	tbl, err := cat.Create(&schema.TableDef{
		Name: "obs",
		Schema: schema.New(
			schema.Column{Name: "k", Type: types.KindInt},
			schema.Column{Name: "v", Type: types.KindString},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat, tbl
}

// TestIndexRunStableOrder: the run visits rows in key order with ties in
// heap order — exactly a stable sort of the heap.
func TestIndexRunStableOrder(t *testing.T) {
	cat, tbl := indexTestTable(t)
	keys := []int64{5, 1, 5, 3, 1, 5, 2}
	for i, k := range keys {
		if err := tbl.Append(types.Row{types.NewInt(k), types.NewString(string(rune('a' + i)))}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := cat.CreateIndex("obs_k", "obs", "k")
	if err != nil {
		t.Fatal(err)
	}
	run := ix.Run(tbl)
	if run.Len() != len(keys) {
		t.Fatalf("run has %d entries, want %d", run.Len(), len(keys))
	}
	// Expected: stable sort of positions by key.
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(i)
	}
	sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
	for i := range want {
		if run.Pos[i] != want[i] {
			t.Fatalf("run.Pos = %v, want %v", run.Pos, want)
		}
	}
	for i := 1; i < run.Len(); i++ {
		if bytes.Compare(run.Keys[i-1], run.Keys[i]) > 0 {
			t.Fatalf("run keys not sorted at %d", i)
		}
	}
}

// TestIndexRunRebuildOnGrowth: appending rows invalidates the run; the
// next Run rebuild covers them.
func TestIndexRunRebuildOnGrowth(t *testing.T) {
	cat, tbl := indexTestTable(t)
	for _, k := range []int64{2, 1} {
		if err := tbl.Append(types.Row{types.NewInt(k), types.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := cat.CreateIndex("obs_k", "obs", "k")
	if err != nil {
		t.Fatal(err)
	}
	r1 := ix.Run(tbl)
	if r1.Len() != 2 {
		t.Fatalf("run len %d, want 2", r1.Len())
	}
	if again := ix.Run(tbl); again != r1 {
		t.Fatal("unchanged table must reuse the run snapshot")
	}
	if err := tbl.Append(types.Row{types.NewInt(0), types.NewString("y")}); err != nil {
		t.Fatal(err)
	}
	r2 := ix.Run(tbl)
	if r2.Len() != 3 || r2.Pos[0] != 2 {
		t.Fatalf("rebuilt run = %+v, want the new row (pos 2) first", r2.Pos)
	}
}

// TestIndexSeekRange: SeekGE/SeekGT bracket key ranges the way the
// executor's range scan uses them, NULLs (sorted first) excluded by an
// exclusive lower bound.
func TestIndexSeekRange(t *testing.T) {
	cat, tbl := indexTestTable(t)
	vals := []types.Value{
		types.Null, types.NewInt(1), types.NewInt(3), types.NewInt(3),
		types.NewFloat(3.5), types.NewInt(7),
	}
	for _, v := range vals {
		if err := tbl.Append(types.Row{v, types.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := cat.CreateIndex("obs_k", "obs", "k")
	if err != nil {
		t.Fatal(err)
	}
	run := ix.Run(tbl)
	k3 := EncodeIndexKey(nil, types.NewInt(3))
	if lo, hi := run.SeekGE(k3), run.SeekGT(k3); lo != 2 || hi != 4 {
		t.Fatalf("Seek(3) = [%d, %d), want [2, 4)", lo, hi)
	}
	// k > NULL skips exactly the NULL entry.
	knull := EncodeIndexKey(nil, types.Null)
	if got := run.SeekGT(knull); got != 1 {
		t.Fatalf("SeekGT(NULL) = %d, want 1", got)
	}
	// Mixed-kind probes: 3.25 lands between the 3s and 3.5.
	kf := EncodeIndexKey(nil, types.NewFloat(3.25))
	if got := run.SeekGE(kf); got != 4 {
		t.Fatalf("SeekGE(3.25) = %d, want 4", got)
	}
	// Probes past every key land at Len.
	kinf := EncodeIndexKey(nil, types.NewFloat(math.Inf(1)))
	if got := run.SeekGT(kinf); got != run.Len() {
		t.Fatalf("SeekGT(+Inf) = %d, want %d", got, run.Len())
	}
}

// TestCatalogIndexAPI: create/lookup/drop round trip, version bumps,
// exact-match OrderedIndex semantics, and table drops cascading.
func TestCatalogIndexAPI(t *testing.T) {
	cat, _ := indexTestTable(t)
	v0 := cat.Version()
	if _, err := cat.CreateIndex("obs_k", "obs", "k"); err != nil {
		t.Fatal(err)
	}
	if cat.Version() == v0 {
		t.Fatal("CreateIndex must bump the catalog version")
	}
	if _, err := cat.CreateIndex("obs_k", "obs", "v"); err == nil {
		t.Fatal("duplicate index name must fail")
	}
	if _, err := cat.CreateIndex("bad", "obs", "nope"); err == nil {
		t.Fatal("unknown column must fail")
	}
	if _, err := cat.CreateIndex("bad2", "nope", "k"); err == nil {
		t.Fatal("unknown table must fail")
	}
	if ix := cat.OrderedIndex("obs", []string{"K"}); ix == nil || ix.Name != "obs_k" {
		t.Fatalf("OrderedIndex(obs, [K]) = %v, want obs_k (case-insensitive)", ix)
	}
	if ix := cat.OrderedIndex("obs", []string{"k", "v"}); ix != nil {
		t.Fatal("OrderedIndex must require an exact column-list match")
	}
	if ix := cat.OrderedIndex("obs", []string{"v"}); ix != nil {
		t.Fatal("OrderedIndex must not match a different column")
	}
	if got := cat.Indexes(); len(got) != 1 || got[0].Name != "obs_k" {
		t.Fatalf("Indexes() = %v", got)
	}
	if _, err := cat.LookupIndex("OBS_K"); err != nil {
		t.Fatal(err)
	}
	v1 := cat.Version()
	if err := cat.DropIndex("obs_k"); err != nil {
		t.Fatal(err)
	}
	if cat.Version() == v1 {
		t.Fatal("DropIndex must bump the catalog version")
	}
	if err := cat.DropIndex("obs_k"); err == nil {
		t.Fatal("double drop must fail")
	}
	// Dropping a table removes its indexes.
	if _, err := cat.CreateIndex("obs_k", "obs", "k"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Drop("obs"); err != nil {
		t.Fatal(err)
	}
	if got := cat.Indexes(); len(got) != 0 {
		t.Fatalf("table drop must cascade to its indexes, still have %v", got)
	}
}

// TestIndexHeapSortedFact: a build records whether the heap is in key
// order; appends through Catalog.Insert keep that fact true, and the
// first key that sorts below the heap's last clears it and bumps the
// catalog version, so no cached plan keeps the stale claim. An empty
// heap is vacuously in order. A heap put out of order behind the
// catalog's back loses the fact, with a version bump, at its next build.
func TestIndexHeapSortedFact(t *testing.T) {
	cat, tbl := indexTestTable(t)
	ix, err := cat.CreateIndex("obs_k", "obs", "k")
	if err != nil {
		t.Fatal(err)
	}
	if ix.HeapSorted() {
		t.Fatal("an index never built must claim nothing")
	}
	ix.Run(tbl)
	if !ix.HeapSorted() {
		t.Fatal("an empty heap is in key order")
	}
	row := func(k int64) types.Row { return types.Row{types.NewInt(k), types.NewString("x")} }
	v := cat.Version()
	for _, k := range []int64{3, 3, 5} {
		if err := cat.Insert(tbl, row(k)); err != nil {
			t.Fatal(err)
		}
	}
	if !ix.HeapSorted() || cat.Version() != v {
		t.Fatalf("in-order inserts: HeapSorted %v, version %d → %d; want true, unchanged", ix.HeapSorted(), v, cat.Version())
	}
	if run := ix.Run(tbl); run.Len() != 3 || !ix.HeapSorted() {
		t.Fatalf("rebuilt over an in-order heap: %d entries, HeapSorted %v", run.Len(), ix.HeapSorted())
	}
	if err := cat.Insert(tbl, row(4)); err != nil {
		t.Fatal(err)
	}
	if ix.HeapSorted() || cat.Version() == v {
		t.Fatal("a key below the heap's last must clear the fact and bump the version")
	}
	v = cat.Version()
	if err := cat.Insert(tbl, row(1)); err != nil || cat.Version() != v {
		t.Fatalf("a second descent: err %v, version %d → %d; want one bump only", err, v, cat.Version())
	}
	if err := cat.Insert(tbl, types.Row{types.NewInt(1)}); err == nil {
		t.Fatal("Insert must validate the row as Append does")
	}

	cat2, tbl2 := indexTestTable(t)
	ix2, _ := cat2.CreateIndex("obs_k", "obs", "k")
	for _, k := range []int64{1, 2} {
		if err := tbl2.Append(row(k)); err != nil {
			t.Fatal(err)
		}
	}
	ix2.Run(tbl2)
	v2 := cat2.Version()
	if err := tbl2.Append(row(0)); err != nil {
		t.Fatal(err)
	}
	ix2.Run(tbl2)
	if ix2.HeapSorted() || cat2.Version() == v2 {
		t.Fatal("a rebuild that finds the heap out of order must clear the fact and bump the version")
	}
}
