package gapplydb_test

import (
	"fmt"
	"strings"
	"testing"

	"gapplydb"
	"gapplydb/xmlpub"
)

// ordersSQL is the publishing benchmark's orders view over the orders
// with key ≤ maxKey: per order, how many of its items cost at least, and
// less than, the order's average. Its outer is lineitem ⋈ part through
// a heap-order seek on l_orderkey, over a heap written in l_orderkey
// order.
func ordersSQL(maxKey int) string {
	avg := &xmlpub.AggRef{Fn: "avg", Col: "l_extendedprice"}
	q := &xmlpub.FLWR{
		View: &xmlpub.View{
			RootTag: "orders", ElemTag: "order", Tables: []string{"lineitem", "part"},
			JoinCond: fmt.Sprintf("l_partkey = p_partkey and l_orderkey <= %d", maxKey),
			KeyCol:   "l_orderkey", KeyTag: "orderkey", ChildTag: "item",
			ChildFields: []xmlpub.Field{{Col: "p_name", Tag: "name"}, {Col: "l_extendedprice", Tag: "price"}},
		},
		Return: []xmlpub.Item{
			{Kind: xmlpub.ItemFilteredCount, Tag: "count_above", FilterCol: "l_extendedprice", FilterOp: ">=", FilterAgg: avg},
			{Kind: xmlpub.ItemFilteredCount, Tag: "count_below", FilterCol: "l_extendedprice", FilterOp: "<", FilterAgg: avg},
		},
	}
	return q.SQL(xmlpub.GApply)
}

// TestStreamingGApplyFollowsHeapOrder: the orders view streams its
// groups while lineitem's heap is in l_orderkey order, in agreement with
// the reference interpreter. An insert that keeps the order keeps the
// stream; one that breaks it retires the cached plan, and the statement
// recompiles to a materializing GApply that still matches the reference.
func TestStreamingGApplyFollowsHeapOrder(t *testing.T) {
	db, err := gapplydb.OpenTPCH(0.002)
	if err != nil {
		t.Fatal(err)
	}
	sql := ordersSQL(400)
	run := func(what string, streaming bool) {
		t.Helper()
		plan, err := db.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(plan, "(streaming)"); got != streaming {
			t.Fatalf("%s: EXPLAIN streaming = %v, want %v:\n%s", what, got, streaming, plan)
		}
		want := expectOracle(t, db, sql)
		for i := 0; i < 2; i++ { // compile, then the cached plan
			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkOracle(t, want, res, what)
		}
	}
	run("heap in key order", true)

	tab, err := gapplydb.CatalogOf(db).Lookup("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from int) {
		t.Helper()
		src := tab.Rows[from]
		row := make([]any, len(src))
		for i, v := range src {
			row[i] = v.Go()
		}
		if err := db.Insert("lineitem", row); err != nil {
			t.Fatal(err)
		}
	}
	insert(len(tab.Rows) - 1) // the last order again: still in key order
	run("in-order insert", true)
	insert(0) // order 1 after the last order
	run("out-of-order insert", false)
}
