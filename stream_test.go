package gapplydb

import (
	"errors"
	"reflect"
	"testing"
)

// TestStreamPullsAgree: Next, NextBatch and NextRows are three views of
// one cursor. Interleaved on a single stream they deliver every row
// exactly once, in order, and boxed or typed the rows are the ones Query
// materializes — over plain batches, selection-vector batches (the
// filter) and GApply output.
func TestStreamPullsAgree(t *testing.T) {
	db, err := OpenTPCH(0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, q := range []string{
		"select p_partkey, p_name, p_retailprice from part, partsupp where p_partkey = ps_partkey",
		"select l_orderkey, l_extendedprice, l_discount from lineitem where l_quantity > 25",
		gapplyCountQ,
		"explain select count(*) from part",
	} {
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		s, err := db.Stream(q)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]any
		for pull := 0; ; pull++ {
			var ok bool
			switch pull % 3 {
			case 0:
				var row []any
				if row, ok, err = s.Next(); ok {
					got = append(got, row)
				}
			case 1:
				var rows [][]any
				if rows, ok, err = s.NextBatch(); ok {
					got = append(got, rows...)
				}
			default:
				rows, more, rerr := s.NextRows()
				ok, err = more, rerr
				for _, r := range rows {
					got = append(got, boxRow(r))
				}
			}
			if err != nil {
				t.Fatalf("%s: pull %d: %v", q, pull, err)
			}
			if !ok {
				break
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || !reflect.DeepEqual(got, want.Rows) {
			t.Errorf("%s: stream delivered %d rows, Query %d, or they differ", q, len(got), len(want.Rows))
		}
	}
}

// Boxed rows are carved from one slab per result or batch; growing one
// must not write into its neighbour.
func TestBoxedRowsDoNotShareCapacity(t *testing.T) {
	db := fixture(t)
	res, err := db.Query("select p_partkey, p_name from part")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("fixture has %d parts", len(res.Rows))
	}
	next := append([]any(nil), res.Rows[1]...)
	_ = append(res.Rows[0], "overflow")
	if !reflect.DeepEqual(res.Rows[1], next) {
		t.Fatalf("appending to row 0 changed row 1: %v", res.Rows[1])
	}
}

// The output-row budget cuts a typed batch short exactly as it cuts the
// boxed pulls: the allowed rows arrive, then the resource error.
func TestNextRowsHonoursOutputBudget(t *testing.T) {
	db, err := OpenTPCH(0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := db.Stream("select l_orderkey from lineitem", WithBudget(Budget{MaxOutputRows: 300}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for {
		rows, ok, err := s.NextRows()
		n += len(rows)
		if err != nil {
			var re *ResourceError
			if !errors.As(err, &re) || n != 300 {
				t.Fatalf("after %d rows: %v", n, err)
			}
			return
		}
		if !ok {
			t.Fatalf("stream ended after %d rows without the budget error", n)
		}
	}
}
