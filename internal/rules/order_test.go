package rules

import (
	"slices"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// TestPushKeyBoundsTightest: each side of the seek window keeps its
// tightest bound, compared in the order-key encoding (so 4 and 4.0 are
// one key), an equality bounds both sides, and at equal keys an
// exclusive bound beats an inclusive one. Conjuncts on other columns,
// NULL literals and non-range operators contribute nothing. A seek
// provides the key order exactly when the heap is in key order: the
// fixture's partsupp is, by ps_suppkey; a shuffled copy is not.
func TestPushKeyBoundsTightest(t *testing.T) {
	heap := func(sorted bool) *storage.Catalog {
		cat := fixtureCatalog(t)
		ix, err := cat.CreateIndex("ix_ps_supp", "partsupp", "ps_suppkey")
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := cat.Lookup("partsupp")
		if !sorted {
			slices.Reverse(tab.Rows)
		}
		ix.Run(tab)
		return cat
	}
	sorted, shuffled := heap(true), heap(false)
	tab, _ := sorted.Lookup("partsupp")
	scan := &core.Scan{Table: "partsupp", Def: tab.Def}
	keyOrder := []core.OrderedCol{{Table: "partsupp", Name: "ps_suppkey"}}
	c := func(op string, v types.Value) core.Expr {
		return &core.Cmp{Op: op, L: core.Col("ps_suppkey"), R: &core.Lit{V: v}}
	}
	i, f := types.NewInt, types.NewFloat
	other := &core.Cmp{Op: "=", L: core.Col("ps_partkey"), R: core.LitInt(3)}
	for _, tc := range []struct {
		name  string
		conds []core.Expr
		want  string // the window as IndexScan.Describe renders it; "" = no seek
	}{
		{"eq beats earlier range", []core.Expr{c(">=", i(10)), c("=", i(17))}, "[ps_suppkey >= 17 AND ps_suppkey <= 17]"},
		{"eq beats later range", []core.Expr{c("=", i(17)), c("<=", i(40))}, "[ps_suppkey >= 17 AND ps_suppkey <= 17]"},
		{"tightest lower", []core.Expr{c(">", i(3)), c(">=", i(9)), c(">", i(5))}, "[ps_suppkey >= 9]"},
		{"tightest upper", []core.Expr{c("<", i(30)), c("<=", i(12)), c("<", i(20))}, "[ps_suppkey <= 12]"},
		{"exclusive wins a tie", []core.Expr{c(">=", i(4)), c(">", i(4)), c("<=", i(8)), c("<", i(8))}, "[ps_suppkey > 4 AND ps_suppkey < 8]"},
		{"cross-type tie", []core.Expr{c(">", f(4.0)), c(">=", i(4))}, "[ps_suppkey > 4]"},
		{"cross-type order", []core.Expr{c(">", f(4.5)), c(">=", i(4)), c("<", i(9)), c("<=", f(8.5))}, "[ps_suppkey > 4.5 AND ps_suppkey <= 8.5]"},
		{"literal on the left", []core.Expr{&core.Cmp{Op: ">", L: core.LitInt(7), R: core.Col("ps_suppkey")}}, "[ps_suppkey < 7]"},
		{"null and others ignored", []core.Expr{c("=", types.Null), other, c("<>", i(3))}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seeks := HeapOrderSeeks(scan, core.AndAll(tc.conds), sorted)
			if tc.want == "" {
				if len(seeks) != 0 {
					t.Fatalf("got seek %s, want none", seeks[0].Describe())
				}
				return
			}
			if len(seeks) != 1 {
				t.Fatalf("got %d seeks, want 1", len(seeks))
			}
			want := "IndexScan partsupp using ix_ps_supp " + tc.want + " (heap order)"
			if got := seeks[0].Describe(); got != want {
				t.Errorf("seek = %s\nwant   %s", got, want)
			}
			if got := core.ProvidedOrdering(seeks[0]); !core.OrderingEquals(got, keyOrder) {
				t.Errorf("a heap-order seek over a heap in key order provides %v, want %v", got, keyOrder)
			}
			other := HeapOrderSeeks(scan, core.AndAll(tc.conds), shuffled)
			if len(other) != 1 || other[0].Describe() != want {
				t.Fatalf("the shuffled heap offers %d seeks, want the same one", len(other))
			}
			if core.ProvidedOrdering(other[0]) != nil {
				t.Error("a heap-order seek over a heap out of key order must provide no ordering")
			}
		})
	}
}

// TestHeapOrderSeeksSingleColumnOnly: composite indexes never take
// bounds (a leading-column bound is a prefix the seek primitives would
// mis-bracket).
func TestHeapOrderSeeksSingleColumnOnly(t *testing.T) {
	cat := fixtureCatalog(t)
	if _, err := cat.CreateIndex("ix_ps_pk", "partsupp", "ps_suppkey", "ps_partkey"); err != nil {
		t.Fatal(err)
	}
	tab, _ := cat.Lookup("partsupp")
	cond := &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: core.LitInt(1)}
	if seeks := HeapOrderSeeks(&core.Scan{Table: "partsupp", Def: tab.Def}, cond, cat); len(seeks) != 0 {
		t.Fatalf("composite index offered a seek: %s", seeks[0].Describe())
	}
}
