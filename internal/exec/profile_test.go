package exec

import (
	"reflect"
	"testing"

	"gapplydb/internal/core"
)

// TestCountersAddCoversEveryField: because Add iterates the struct's
// fields generically, a newly added counter is merged automatically —
// this test fails (via reflection, not a hand-maintained list) if the
// struct ever gains a field the merge arithmetic mishandles.
func TestCountersAddCoversEveryField(t *testing.T) {
	var a, b Counters
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Counters field %s is %s; Add requires int64 tallies",
				av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(10 * (i + 1)))
		bv.Field(i).SetInt(int64(i + 1))
	}
	sum := a
	sum.Add(&b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		want := int64(10*(i+1) + (i + 1))
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("Add dropped field %s: got %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}

// TestProfileDisabledInsertsNoProbes pins the zero-cost-when-disabled
// contract: with a nil Profile the compiled tree contains no probe
// wrappers at all.
func TestProfileDisabledInsertsNoProbes(t *testing.T) {
	ctx := fixture(t)
	it, err := BuildBatch(gapplyQ1(ctx, core.PartitionHash), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, isProbe := it.(*batchProbe); isProbe {
		t.Fatal("nil Profile still produced an instrumented iterator")
	}
}

// TestProfileCountsMatchAcrossDOP runs the Q1 plan instrumented at
// dop 1 and dop 8 and checks (a) the per-operator actual row counts are
// exactly right, and (b) parallel workers' per-node stats merge to the
// serial totals — the partition-order merge the tentpole requires.
func TestProfileCountsMatchAcrossDOP(t *testing.T) {
	type nodeCount struct {
		op   string
		rows int64
	}
	collect := func(dop int) (map[core.Node]NodeStats, core.Node) {
		ctx := fixture(t)
		ctx.DOP = dop
		ctx.Prof = NewProfile()
		plan := gapplyQ1(ctx, core.PartitionHash)
		mustRun(t, plan, ctx)
		out := make(map[core.Node]NodeStats)
		core.Walk(plan, func(n core.Node) {
			s := ctx.Prof.Stats(n)
			s.Time = 0 // timings are the one legitimately nondeterministic field
			out[n] = s
		})
		return out, plan
	}

	serial, plan := collect(1)
	root := serial[plan]
	// Q1 over the fixture: 2 groups × (3+1 / 2+1) rows = 7, one Open.
	if root.Rows != 7 || root.Opens != 1 {
		t.Fatalf("GApply stats = %+v, want 7 rows / 1 open", root)
	}
	ga := plan.(*core.GApply)
	// The per-group union produces all 7 inner rows; it reopens per group
	// (2 groups; the prebuilt serial tree is the one that ran).
	if s := serial[ga.Inner]; s.Rows != 7 || s.Opens != 2 {
		t.Fatalf("inner stats = %+v, want 7 rows / 2 opens", s)
	}

	for _, dop := range []int{2, 8} {
		par, parPlan := collect(dop)
		// Per-node actual rows and loop counts must be identical to the
		// serial run — node-by-node, not just in total.
		byDescribe := func(m map[core.Node]NodeStats, plan core.Node) []nodeCount {
			var out []nodeCount
			core.Walk(plan, func(n core.Node) {
				out = append(out, nodeCount{op: n.Describe(), rows: m[n].Rows})
			})
			return out
		}
		want, got := byDescribe(serial, plan), byDescribe(par, parPlan)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("dop %d per-node rows diverged:\nserial: %+v\nparallel: %+v", dop, want, got)
		}
	}
}
