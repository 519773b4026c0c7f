package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// countPerGroup builds the canonical partition probe — GApply with a
// per-group count(*) — over the named table and returns key → count,
// plus the group total, after checking output clustering.
func countPerGroup(t *testing.T, cat *storage.Catalog, table string, hint core.PartitionHint) (map[string]int64, int64) {
	t.Helper()
	ctx := NewContext(cat, new(Store))
	tab, err := cat.Lookup(table)
	if err != nil {
		t.Fatal(err)
	}
	gs := &core.GroupScan{Var: "g"}
	pgq := &core.AggOp{Input: gs, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	ga := core.NewGApply(&core.Scan{Table: table, Def: tab.Def},
		[]*core.ColRef{core.Col(tab.Def.Schema.Cols[0].Name)}, "g", pgq)
	ga.Partition = hint
	ga = core.LowerSortPartition(ga)
	res := mustRun(t, ga, ctx)
	if !clustered(res.Rows) {
		t.Fatalf("[%v] output not clustered: %v", hint, res.Rows)
	}
	out := make(map[string]int64)
	for _, r := range res.Rows {
		k := r.Key([]int{0})
		if _, dup := out[k]; dup {
			t.Fatalf("[%v] key %v emitted as two separate groups", hint, r[0])
		}
		out[k] = r[1].Int()
	}
	return out, ctx.Counters.Groups
}

// keyTable builds a one-key-column table (plus a payload column) from
// the given values.
func keyTable(t *testing.T, kind types.Kind, keys []types.Value) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create(&schema.TableDef{
		Name: "obs",
		Schema: schema.New(
			schema.Column{Name: "k", Type: kind},
			schema.Column{Name: "v", Type: types.KindInt},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		tab.Rows = append(tab.Rows, types.Row{k, types.NewInt(int64(i))})
	}
	return cat
}

// TestPartitionBigIntCollidingKeys is the regression test for the
// collision-merging bug: 2^53 and 2^53+1 share a float64 image — the
// "colliding keys" under the old float-image key encoding — so hash
// partitioning used to merge them into one group while sort
// partitioning kept them apart. Both strategies must now agree on two
// distinct groups.
func TestPartitionBigIntCollidingKeys(t *testing.T) {
	big := int64(1) << 53
	cat := keyTable(t, types.KindInt, []types.Value{
		types.NewInt(big), types.NewInt(big + 1),
		types.NewInt(big), types.NewInt(big + 1),
		types.NewInt(7),
	})
	want := map[string]int64{
		types.Row{types.NewInt(big)}.Key([]int{0}):     2,
		types.Row{types.NewInt(big + 1)}.Key([]int{0}): 2,
		types.Row{types.NewInt(7)}.Key([]int{0}):       1,
	}
	var byHint []map[string]int64
	for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
		got, groups := countPerGroup(t, cat, "obs", hint)
		if groups != 3 {
			t.Errorf("[%v] Groups counter = %d, want 3", hint, groups)
		}
		if len(got) != len(want) {
			t.Fatalf("[%v] groups = %d, want %d", hint, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("[%v] group count = %d, want %d", hint, got[k], n)
			}
		}
		byHint = append(byHint, got)
	}
	// Differential: hash and sort partitioning produce identical groups.
	for k, n := range byHint[0] {
		if byHint[1][k] != n {
			t.Errorf("hash/sort divergence at key %q: %d vs %d", k, n, byHint[1][k])
		}
	}
}

// TestPartitionNegativeZeroMerges: -0.0 and +0.0 compare equal, so both
// strategies must place them in a single group.
func TestPartitionNegativeZeroMerges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cat := keyTable(t, types.KindFloat, []types.Value{
		types.NewFloat(0), types.NewFloat(negZero), types.NewFloat(1.5), types.NewFloat(negZero),
	})
	for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
		got, _ := countPerGroup(t, cat, "obs", hint)
		if len(got) != 2 {
			t.Fatalf("[%v] groups = %v, want {0: 3, 1.5: 1}", hint, got)
		}
		if n := got[types.Row{types.NewFloat(0)}.Key([]int{0})]; n != 3 {
			t.Errorf("[%v] zero group count = %d, want 3 (+0.0 and -0.0 merged)", hint, n)
		}
	}
}

// TestPartitionNullKeysSingleGroup: NULL grouping keys form one group —
// under both partition strategies, and in agreement with the
// decorrelated baseline (a plain GroupBy over the same input).
func TestPartitionNullKeysSingleGroup(t *testing.T) {
	cat := keyTable(t, types.KindInt, []types.Value{
		types.Null, types.NewInt(1), types.Null, types.NewInt(2), types.Null,
	})
	nullKey := types.Row{types.Null}.Key([]int{0})
	for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
		got, groups := countPerGroup(t, cat, "obs", hint)
		if groups != 3 {
			t.Errorf("[%v] Groups counter = %d, want 3", hint, groups)
		}
		if got[nullKey] != 3 {
			t.Errorf("[%v] NULL group count = %d, want 3 (all NULLs in one group)", hint, got[nullKey])
		}
	}

	// Decorrelated baseline: GROUP BY over the same table must form the
	// same groups with the same counts.
	ctx := NewContext(cat, new(Store))
	g := &core.GroupBy{
		Input:     scan(ctx, "obs"),
		GroupCols: []*core.ColRef{core.Col("k")},
		Aggs:      []core.AggSpec{{Fn: "count", Star: true, As: "n"}},
	}
	res := mustRun(t, g, ctx)
	base := make(map[string]int64)
	for _, r := range res.Rows {
		base[r.Key([]int{0})] = r[1].Int()
	}
	got, _ := countPerGroup(t, cat, "obs", core.PartitionHash)
	if len(base) != len(got) {
		t.Fatalf("GroupBy formed %d groups, GApply %d", len(base), len(got))
	}
	for k, n := range base {
		if got[k] != n {
			t.Errorf("baseline/GApply divergence at key %q: %d vs %d", k, got[k], n)
		}
	}
}

// TestPartitionHashSortDifferential sweeps a mixed bag of hostile keys —
// NULLs, ±0.0, NaN, float64-image colliders, and int/float values that
// compare equal across kinds — asserting hash- and sort-based
// partitioning produce identical groups with identical counts.
func TestPartitionHashSortDifferential(t *testing.T) {
	big := int64(1) << 53
	keys := []types.Value{
		types.Null, types.NewInt(big), types.NewFloat(float64(big)),
		types.NewInt(big + 1), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewInt(0), types.NewFloat(math.NaN()), types.NewFloat(-math.NaN()),
		types.NewInt(3), types.NewFloat(3), types.NewFloat(3.5), types.Null,
	}
	// The key column holds mixed kinds; schema kind is nominal here.
	cat := keyTable(t, types.KindFloat, keys)
	hash, hashGroups := countPerGroup(t, cat, "obs", core.PartitionHash)
	sorted, sortGroups := countPerGroup(t, cat, "obs", core.PartitionSort)
	if hashGroups != sortGroups {
		t.Errorf("group counts diverge: hash %d vs sort %d", hashGroups, sortGroups)
	}
	if len(hash) != len(sorted) {
		t.Fatalf("distinct keys diverge: hash %v vs sort %v", hash, sorted)
	}
	for k, n := range hash {
		if sorted[k] != n {
			t.Errorf("hash/sort divergence at key %q: %d vs %d", k, n, sorted[k])
		}
	}
	// Spot-check the equivalence classes: INT 2^53 ≡ FLOAT 2^53 but not
	// INT 2^53+1; ±0.0 and INT 0 merge; both NaNs merge.
	expect := map[string]int64{
		types.Row{types.NewInt(big)}.Key([]int{0}):          2,
		types.Row{types.NewInt(big + 1)}.Key([]int{0}):      1,
		types.Row{types.NewFloat(0)}.Key([]int{0}):          3,
		types.Row{types.NewFloat(math.NaN())}.Key([]int{0}): 2,
		types.Row{types.Null}.Key([]int{0}):                 2,
	}
	for k, n := range expect {
		if hash[k] != n {
			t.Errorf("equivalence class %q count = %d, want %d (groups: %v)", k, hash[k], n, hash)
		}
	}
}

// ------------------------------------------------------ resource budget

func TestBudgetMaxOutputRows(t *testing.T) {
	ctx := fixture(t)
	ctx.Budget = &Budget{MaxOutputRows: 2}
	_, err := Run(scan(ctx, "part"), ctx) // 4 rows > 2
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ResourceError", err)
	}
	if re.Limit != LimitOutputRows || re.Max != 2 || re.Used != 3 {
		t.Errorf("ResourceError = %+v", re)
	}
	if !strings.Contains(re.Operator, "Scan") {
		t.Errorf("Operator = %q, want the offending operator's shape", re.Operator)
	}
	if !strings.Contains(re.Error(), LimitOutputRows) {
		t.Errorf("Error() = %q", re.Error())
	}
	// Under the limit, the same query runs fine.
	ctx2 := fixture(t)
	ctx2.Budget = &Budget{MaxOutputRows: 4}
	mustRun(t, scan(ctx2, "part"), ctx2)
}

func TestBudgetMaxPartitionBytes(t *testing.T) {
	for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
		ctx := fixture(t)
		ctx.Budget = &Budget{MaxPartitionBytes: 64} // one fixture row blows this
		_, err := Run(gapplyQ1(ctx, hint), ctx)
		var re *ResourceError
		if !errors.As(err, &re) {
			t.Fatalf("[%v] err = %v, want *ResourceError", hint, err)
		}
		if re.Limit != LimitPartitionBytes || re.Max != 64 || re.Used <= 64 {
			t.Errorf("[%v] ResourceError = %+v", hint, re)
		}
		if !strings.Contains(re.Operator, "GApply") {
			t.Errorf("[%v] Operator = %q, want the GApply's shape", hint, re.Operator)
		}
	}
	// A roomy budget lets the same plan through.
	ctx := fixture(t)
	ctx.Budget = &Budget{MaxPartitionBytes: 1 << 20}
	mustRun(t, gapplyQ1(ctx, core.PartitionHash), ctx)
}

// TestBudgetStopsSortPartitionOnIntake: a sort-hinted GApply over an
// unordered outer is stopped by the partition budget while its enforcer
// sort takes rows in — within one batch of the row that blew it — with
// the error a hash partition raises at the same row, profiled (under
// EXPLAIN ANALYZE's probes) or not; and each row is charged once, by the
// sort, the cutter above it charging nothing.
func TestBudgetStopsSortPartitionOnIntake(t *testing.T) {
	const rows, fits = 4 * batchSize, batchSize + 17
	keys := make([]types.Value, rows)
	for i := range keys {
		keys[i] = types.NewInt(int64(i*7919) % 97)
	}
	cat := keyTable(t, types.KindInt, keys)
	tab, err := cat.Lookup("obs")
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := int64(tab.Rows[0].Bytes())
	run := func(hint core.PartitionHint, prof bool, max int64) (*core.GApply, *Context, error) {
		ctx := NewContext(cat, new(Store))
		ctx.Budget = &Budget{MaxPartitionBytes: max}
		if prof {
			ctx.Prof = NewProfile()
		}
		ga := core.NewGApply(scan(ctx, "obs"), []*core.ColRef{core.Col("k")}, "g", countInner())
		ga.Partition = hint
		ga = core.LowerSortPartition(ga)
		if _, sorted := ga.Outer.(*core.OrderBy); sorted != (hint == core.PartitionSort) {
			t.Fatalf("[%v] outer %s", hint, core.Summary(ga.Outer))
		}
		_, err := Run(ga, ctx)
		return ga, ctx, err
	}
	for _, prof := range []bool{false, true} {
		var errs []ResourceError
		for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
			what := fmt.Sprintf("%v/profiled %v", hint, prof)
			ga, ctx, err := run(hint, prof, fits*rowBytes)
			var re *ResourceError
			if !errors.As(err, &re) {
				t.Fatalf("[%s] err = %v, want *ResourceError", what, err)
			}
			if re.Limit != LimitPartitionBytes || re.Operator != gapplyOperator(ga) || re.Used != (fits+1)*rowBytes {
				t.Errorf("[%s] ResourceError = %+v, want the GApply's, at row %d", what, re, fits+1)
			}
			if n := ctx.Counters.RowsScanned; n > fits+batchSize {
				t.Errorf("[%s] %d rows scanned before the budget stopped the query, want ≤ %d", what, n, fits+batchSize)
			}
			errs = append(errs, *re)
		}
		if errs[0].Limit != errs[1].Limit || errs[0].Max != errs[1].Max || errs[0].Used != errs[1].Used {
			t.Errorf("profiled %v: hash and sort stop differently: %+v vs %+v", prof, errs[0], errs[1])
		}
		_, ctx, err := run(core.PartitionSort, prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		if used := ctx.Budget.partitionBytes.Load(); used != rows*rowBytes {
			t.Errorf("profiled %v: sort partition charged %d B, want %d: each row once", prof, used, rows*rowBytes)
		}
	}
}
