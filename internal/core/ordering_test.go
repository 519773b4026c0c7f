package core

import (
	"strings"
	"testing"
)

// TestOrderingThroughJoinsAndSeeks: a heap-order seek provides its key
// order only over a heap in key order; a hash or merge join — inner or
// left outer — keeps its left (probe) input's ordering, a nested-loops
// join none; and a GApply over such an outer streams under either
// partition hint, which EXPLAIN shows.
func TestOrderingThroughJoinsAndSeeks(t *testing.T) {
	seek := func(sorted bool) *IndexScan {
		return &IndexScan{Table: "partsupp", Def: partsuppDef(), Index: "ix_ps_supp",
			Cols: []string{"ps_suppkey"}, Ords: []int{1}, Hi: LitInt(9).V, HasHi: true,
			HeapOrder: true, HeapSorted: sorted}
	}
	want := []OrderedCol{{Table: "partsupp", Name: "ps_suppkey"}}
	if got := ProvidedOrdering(seek(false)); got != nil {
		t.Errorf("seek over an unsorted heap provides %v", got)
	}
	if got := ProvidedOrdering(seek(true)); !OrderingEquals(got, want) {
		t.Errorf("seek over a sorted heap provides %v, want %v", got, want)
	}
	for _, tc := range []struct {
		method JoinMethod
		kind   JoinKind
		keeps  bool
	}{
		{JoinHash, InnerJoin, true}, {JoinHash, LeftOuterJoin, true},
		{JoinMerge, InnerJoin, true}, {JoinMerge, LeftOuterJoin, true},
		{JoinNestedLoops, InnerJoin, false}, {JoinAuto, InnerJoin, false},
	} {
		j := joinedScan()
		j.Left = &Select{Input: seek(true), Cond: &Cmp{Op: "<=", L: Col("ps_suppkey"), R: LitInt(9)}}
		j.Method, j.Kind = tc.method, tc.kind
		got := ProvidedOrdering(j)
		if OrderingEquals(got, want) != tc.keeps {
			t.Errorf("method %d kind %d: join provides %v, want the left ordering: %v", tc.method, tc.kind, got, tc.keeps)
		}
		for _, hint := range []PartitionHint{PartitionHash, PartitionSort} {
			g := NewGApply(j, []*ColRef{Col("ps_suppkey")}, "g", &GroupScan{Var: "g"})
			g.Partition = hint
			if GApplyOuterOrdered(g) != tc.keeps || strings.Contains(g.Describe(), "(streaming)") != tc.keeps {
				t.Errorf("method %d kind %d hint %v: streaming %v (%s), want %v", tc.method, tc.kind, hint, GApplyOuterOrdered(g), g.Describe(), tc.keeps)
			}
		}
	}
}
