package experiments

import (
	"testing"
	"time"

	"gapplydb"
)

// The experiment suite runs at a very small scale factor in tests: the
// goal here is correctness of the harness (queries execute, both arms
// agree on results, aggregation math is right), not the measured ratios
// — those are exercised by the benchmarks.
func testDB(t *testing.T) *gapplydb.Database {
	t.Helper()
	db, err := gapplydb.OpenTPCH(0.001)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFigure8Harness(t *testing.T) {
	db := testDB(t)
	var rows []Figure8Row
	for _, q := range Figure8Queries() {
		r, err := q.Measure(db)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := []string{"Q1", "Q2", "Q3", "Q4"}
	for i, r := range rows {
		if r.Query != names[i] {
			t.Errorf("row %d = %q", i, r.Query)
		}
		if r.With <= 0 || r.Without <= 0 {
			t.Errorf("%s: zero timing", r.Query)
		}
		if r.Speedup() <= 0 {
			t.Errorf("%s: speedup = %v", r.Query, r.Speedup())
		}
		if r.RowsWith == 0 || r.RowsWithout == 0 {
			t.Errorf("%s: empty results (with=%d without=%d)", r.Query, r.RowsWith, r.RowsWithout)
		}
	}
	// Q1/Q3's two plans compute identical multisets, so row counts match.
	if rows[0].RowsWith != rows[0].RowsWithout {
		t.Errorf("Q1 row counts differ: %d vs %d", rows[0].RowsWith, rows[0].RowsWithout)
	}
	if rows[2].RowsWith != rows[2].RowsWithout {
		t.Errorf("Q3 row counts differ: %d vs %d", rows[2].RowsWith, rows[2].RowsWithout)
	}
}

func TestTable1Harness(t *testing.T) {
	db := testDB(t)
	var rows []Table1Row
	for _, sweep := range Table1Sweeps() {
		r, err := sweep.Measure(db)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	if len(rows) != 6 {
		t.Fatalf("rules = %d, want 6 (the paper's Table 1 rows)", len(rows))
	}
	wantRules := []string{
		"Placing Selection Before GApply",
		"Placing Projection Before GApply",
		"Converting GApply To groupby",
		"Exists",
		"Aggregate Selection",
		"Invariant Grouping",
	}
	for i, r := range rows {
		if r.Rule != wantRules[i] {
			t.Errorf("row %d = %q, want %q", i, r.Rule, wantRules[i])
		}
		if len(r.Points) < 3 {
			t.Errorf("%s: only %d sweep points", r.Rule, len(r.Points))
		}
		for _, p := range r.Points {
			if p.With <= 0 || p.Without <= 0 {
				t.Errorf("%s/%s: zero timing", r.Rule, p.Param)
			}
		}
		if r.Max() < r.Avg() {
			t.Errorf("%s: max %v < avg %v", r.Rule, r.Max(), r.Avg())
		}
		if r.AvgOverWins() != 0 && r.AvgOverWins() < 1 {
			t.Errorf("%s: avg-over-wins %v < 1", r.Rule, r.AvgOverWins())
		}
	}
}

func TestTable1RowMath(t *testing.T) {
	r := Table1Row{Points: []SweepPoint{
		{Without: 200 * time.Millisecond, With: 100 * time.Millisecond}, // benefit 2
		{Without: 50 * time.Millisecond, With: 100 * time.Millisecond},  // benefit 0.5
		{Without: 400 * time.Millisecond, With: 100 * time.Millisecond}, // benefit 4
	}}
	if got := r.Max(); got != 4 {
		t.Errorf("Max = %v", got)
	}
	if got := r.Avg(); got < 2.16 || got > 2.17 {
		t.Errorf("Avg = %v", got)
	}
	if got := r.AvgOverWins(); got != 3 {
		t.Errorf("AvgOverWins = %v", got)
	}
	empty := Table1Row{}
	if empty.Max() != 0 || empty.Avg() != 0 || empty.AvgOverWins() != 0 {
		t.Error("empty row math")
	}
}

func TestClientSimHarness(t *testing.T) {
	db := testDB(t)
	res, err := ClientSim(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSide <= 0 || res.ClientSide <= 0 {
		t.Fatalf("timings = %+v", res)
	}
	// The simulation must compute the same result set as the operator.
	server, err := db.Query(q4GApply)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != len(server.Rows) {
		t.Errorf("client sim produced %d rows, server %d", res.Rows, len(server.Rows))
	}
	// And it carries overhead (the point of §5.1.1): strictly slower.
	if res.Overhead() <= 1 {
		t.Errorf("client simulation overhead = %v, want > 1", res.Overhead())
	}
}

func TestRatio(t *testing.T) {
	if Ratio(200, 100) != 2 {
		t.Error("Ratio")
	}
	if Ratio(100, 0) != 0 {
		t.Error("Ratio zero divisor")
	}
}
