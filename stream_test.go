package gapplydb

import (
	"errors"
	"reflect"
	"testing"

	"gapplydb/internal/types"
)

// TestStreamPullsAgree: the rows NextRows delivers, batch after batch,
// are the ones Query materializes from the same stream path — over plain
// batches, selection-vector batches (the filter), GApply output and an
// EXPLAIN report.
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
		var got []types.Row
		for {
			rows, ok, err := s.NextRows()
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !ok {
				break
			}
			got = append(got, rows...)
		}
		boxedGot := boxRows(got)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || !reflect.DeepEqual(boxedGot, want.Rows) {
			t.Errorf("%s: stream delivered %d rows, Query %d, or they differ", q, len(boxedGot), len(want.Rows))
		}
	}
}

// Boxed rows are carved from one slab per result; growing one
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

// The output-row budget cuts a typed batch short: the allowed rows
// arrive, then the resource error.
func TestNextRowsHonoursOutputBudget(t *testing.T) {
	db, err := OpenTPCH(0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := db.Stream("select l_orderkey from lineitem", WithOptions(Options{MaxOutputRows: 300}))
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
