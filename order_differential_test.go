package gapplydb_test

import (
	"context"
	"fmt"
	"testing"

	"gapplydb"
	"gapplydb/experiments"
	"gapplydb/replay"
)

// The order differential pins the ordered-index machinery to its
// baseline: every plan the order pass touches — index scans replacing
// heap scans, elided sorts, merge joins, ordered GApply partitioning —
// must produce byte-identical ordered output to the same statement
// planned with WithoutIndexes, at serial and parallel degrees, and the
// indexed plan's rows must match the reference interpreter's evaluation
// of that plan, which sorts explicitly wherever the engine elided.
// Indexes are an access-path choice, never a semantics choice; any
// divergence here is an order-pass bug.

func TestOrderDifferentialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery skipped in -short mode")
	}
	db := integDatabase(t)
	for _, sq := range experiments.SuiteQueries() {
		sq := sq
		t.Run(sq.Name, func(t *testing.T) {
			ref := expectOracle(t, db, sq.SQL)
			for _, dop := range []int{1, 2, 8} {
				base, err := db.Query(sq.SQL, gapplydb.WithDOP(dop), gapplydb.WithoutIndexes())
				if err != nil {
					t.Fatalf("no-index dop %d: %v\n%s", dop, err, sq.SQL)
				}
				res, err := db.Query(sq.SQL, gapplydb.WithDOP(dop))
				if err != nil {
					t.Fatalf("indexed dop %d: %v\n%s", dop, err, sq.SQL)
				}
				if d := firstDiff(ordered(base), ordered(res)); d != "" {
					t.Fatalf("dop %d: indexed plan diverged from no-index baseline: %s", dop, d)
				}
				checkOracle(t, ref, res, fmt.Sprintf("indexed dop %d", dop))
			}
		})
	}
}

func TestOrderDifferentialCorpus(t *testing.T) {
	c, err := replay.Load("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	db := integDatabase(t)
	ctx := context.Background()

	for _, q := range c.Queries {
		q := q
		if q.CancelAfterRows > 0 || q.Expect.Error != "" {
			continue // no deterministic output to compare
		}
		ref := expectOracle(t, db, q.SQL)
		for _, dop := range []int{1, 2, 8} {
			dop := dop
			if q.DOP > 0 && dop != 1 {
				continue // degree-pinned queries run once
			}
			t.Run(fmt.Sprintf("%s/dop%d", q.Name, dop), func(t *testing.T) {
				base, err := replay.RunLocalOpts(ctx, db, q, dop, gapplydb.WithoutIndexes())
				if err != nil {
					t.Fatal(err)
				}
				if base.Code != "" {
					t.Fatalf("no-index baseline failed: %s: %v", base.Code, base.Err)
				}
				got, err := replay.RunLocal(ctx, db, q, dop)
				if err != nil {
					t.Fatal(err)
				}
				if got.Code != "" {
					t.Fatalf("indexed plan failed: %s: %v", got.Code, got.Err)
				}
				if err := replay.DiffRendered(got.Rendered, base.Rendered); err != nil {
					t.Fatalf("indexed plan diverged from no-index baseline: %v", err)
				}
				res, err := db.QueryContext(ctx, q.SQL, gapplydb.WithOptions(q.Options(dop)))
				if err != nil {
					t.Fatal(err)
				}
				checkOracle(t, ref, res, "indexed plan vs oracle")
			})
		}
	}
}
