package experiments

import "strings"

// SuiteQuery is one statement of the evaluation workload, with the
// execution-feasibility flag differential tests need.
type SuiteQuery struct {
	Name string
	SQL  string
	// Heavy marks statements whose raw (un-optimized) plan is intractable
	// even at tiny scale factors: 3-way-or-worse cross products, or
	// correlated subqueries that without decorrelation re-scan an
	// unpushed join per outer row.
	Heavy bool
}

// SuiteQueries returns every SQL statement the Figure 8, Table 1 and
// spooling experiments execute — the full evaluation workload — so
// differential and regression tests cover exactly what the harness
// measures.
func SuiteQueries() []SuiteQuery {
	var out []SuiteQuery
	for _, q := range Figure8Queries() {
		out = append(out,
			// Every baseline but Q1's repeats a join per branch (or, for Q4,
			// joins the grouped averages back to another copy of the join).
			SuiteQuery{Name: "figure8/" + q.Name + "/without", SQL: q.Without, Heavy: q.Name != "Q1"},
			SuiteQuery{Name: "figure8/" + q.Name + "/with", SQL: q.With},
		)
	}
	out = append(out, SpoolQueries()...)
	seen := map[string]bool{}
	for _, q := range out {
		seen[q.SQL] = true
	}
	for _, sweep := range Table1Sweeps() {
		for _, pt := range sweep.points {
			if seen[pt.query] {
				continue
			}
			seen[pt.query] = true
			out = append(out, SuiteQuery{
				Name: "table1/" + sweep.RuleName + "/" + pt.param,
				SQL:  pt.query,
				// The invariant-grouping sweep and the wider projection
				// sweeps put 3-4 tables in FROM.
				Heavy: sweep.RuleName == "invariant-grouping" ||
					strings.Contains(pt.param, "3 tables") ||
					strings.Contains(pt.param, "4 tables"),
			})
		}
	}
	return out
}
