// Package experiments regenerates the paper's evaluation (§5): Figure 8
// (speedup from GApply on queries Q1–Q4) and Table 1 (effect of each
// transformation rule), plus the §5.1.1 client-side-simulation
// comparison. It owns the statements and the one estimator the paper's
// ratios use (minimum execution time of Repeats runs); the root
// benchmark suite (bench_test.go) reports those ratios, and the
// differential suites execute the same list (SuiteQueries).
//
// Absolute times differ from the paper's 2003 testbed (5 GB TPC-H on a
// 1 GHz server); the shapes — who wins, by roughly what factor, where a
// rule starts losing — are the reproduction target.
package experiments

import (
	"fmt"
	"time"

	"gapplydb"
)

// Repeats is how many times each query runs per measurement; the minimum
// elapsed time is kept (steady-state, least-noise estimator).
const Repeats = 3

// timeQuery returns the minimum execution time of the query across
// Repeats runs, and the result of the last run.
func timeQuery(db *gapplydb.Database, q string, opts ...gapplydb.QueryOption) (time.Duration, *gapplydb.Result, error) {
	best := time.Duration(0)
	var last *gapplydb.Result
	for i := 0; i < Repeats; i++ {
		res, err := db.Query(q, opts...)
		if err != nil {
			return 0, nil, fmt.Errorf("experiments: %w\nquery: %s", err, q)
		}
		if i == 0 || res.Elapsed < best {
			best = res.Elapsed
		}
		last = res
	}
	return best, last, nil
}

// Ratio renders a speedup factor the way Figure 8's y-axis does.
func Ratio(without, with time.Duration) float64 {
	if with <= 0 {
		return 0
	}
	return float64(without) / float64(with)
}
