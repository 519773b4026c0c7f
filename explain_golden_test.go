package gapplydb_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gapplydb/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite the EXPLAIN golden files under testdata/explain")

// figure8Query fetches one Figure 8 statement from the evaluation suite
// by name, so the golden battery explains exactly what bench measures.
func figure8Query(t *testing.T, name string) string {
	t.Helper()
	for _, q := range experiments.SuiteQueries() {
		if q.Name == name {
			return q.SQL
		}
	}
	t.Fatalf("suite query %q not found", name)
	return ""
}

// TestExplainGolden pins the rendered EXPLAIN report — plan shape,
// per-node estimates, plan hash and optimizer trace — for the paper's
// four Figure 8 queries under both translation strategies. Beyond the
// byte comparison it asserts the paper's §5 claim structurally: the
// GApply plan scans the fact table (partsupp) exactly once, while the
// sorted-outer-union / flat-SQL baseline re-joins it repeatedly.
//
// Run with -update to regenerate the goldens after an intended planner
// or renderer change; the diff is the review artifact.
func TestExplainGolden(t *testing.T) {
	db := integDatabase(t)
	cases := []struct {
		file  string
		suite string
		// gapply marks the strategy expected to touch partsupp once.
		gapply bool
	}{
		{"q1_gapply", "figure8/Q1/with", true},
		{"q1_baseline", "figure8/Q1/without", false},
		{"q2_gapply", "figure8/Q2/with", true},
		{"q2_baseline", "figure8/Q2/without", false},
		{"q3_gapply", "figure8/Q3/with", true},
		{"q3_baseline", "figure8/Q3/without", false},
		{"q4_gapply", "figure8/Q4/with", true},
		{"q4_baseline", "figure8/Q4/without", false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			sql := figure8Query(t, tc.suite)
			e, err := db.ExplainPlan(sql)
			if err != nil {
				t.Fatalf("explain: %v\n%s", err, sql)
			}
			got := e.String()

			// Count fact-table scans in the plan tree only — the trace
			// section repeats operator summaries.
			scans := strings.Count(e.Plan, "Scan partsupp")
			if tc.gapply {
				if scans != 1 {
					t.Errorf("GApply plan scans partsupp %d times, want exactly 1:\n%s", scans, e.Plan)
				}
				if !strings.Contains(e.Plan, "GApply") {
					t.Errorf("plan lacks a GApply operator:\n%s", e.Plan)
				}
			} else if scans < 2 {
				t.Errorf("baseline plan scans partsupp %d times, want the redundant joins (>= 2):\n%s", scans, e.Plan)
			}

			checkGolden(t, tc.file, got)
		})
	}
}

// TestExplainGoldenAccessPaths pins the plans of the selective requests
// the entity_serving workload sends — the one-supplier Q1 document in
// both translations and the point lookup — beside the Figure 8 goldens:
// each filter on an indexed key is a heap-order seek under its Select,
// and the join to part probes part's index run in place.
func TestExplainGoldenAccessPaths(t *testing.T) {
	db := integDatabase(t)
	corpusSQL := func(name string) string {
		b, err := os.ReadFile(filepath.Join("testdata", "corpus", "sql", name+".sql"))
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(b))
	}
	for _, tc := range []struct {
		file, sql string
		seeks     int // heap-order seeks in the plan
		probes    int // merge joins probing an index run
	}{
		{"entity_q1_gapply", corpusSQL("entity_q1_gapply"), 1, 1},
		{"entity_q1_sorted", corpusSQL("entity_q1_sorted"), 2, 2},
		{"point_lookup", corpusSQL("point_lookup"), 1, 0},
	} {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			e, err := db.ExplainPlan(tc.sql)
			if err != nil {
				t.Fatalf("explain: %v\n%s", err, tc.sql)
			}
			if n := strings.Count(e.Plan, "(heap order)"); n != tc.seeks {
				t.Errorf("%d heap-order seeks, want %d:\n%s", n, tc.seeks, e.Plan)
			}
			if n := strings.Count(e.Plan, "(merge probe)"); n != tc.probes {
				t.Errorf("%d probed merge joins, want %d:\n%s", n, tc.probes, e.Plan)
			}
			checkGolden(t, tc.file, e.String())
		})
	}
}

// checkGolden compares an EXPLAIN report with testdata/explain/<file>.golden,
// or rewrites the golden under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "explain", file+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run: go test -run TestExplainGolden -update ./): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output changed (intended? regenerate with -update):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
