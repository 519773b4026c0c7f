package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"gapplydb"
)

// OrderRow is one query measured with the ordered-index machinery on
// (the default) and off (WithoutIndexes): index-served ORDER BY versus
// a full sort, merge join versus hash join, ordered GApply partitioning
// versus the partition-phase sort. The outputs are verified identical
// before either timing is trusted — indexes are an access-path choice,
// never a semantics choice.
type OrderRow struct {
	Query string
	// NoIndex/Indexed are the minimum elapsed times across CompareRepeats
	// runs with the order pass disabled and enabled.
	NoIndex time.Duration
	Indexed time.Duration
	// Rows is the result cardinality (identical either way).
	Rows int
}

// Speedup is the ordered plan's advantage: no-index time ÷ indexed time.
func (r OrderRow) Speedup() float64 { return Ratio(r.NoIndex, r.Indexed) }

// orderQueries is the order-pass workload. Each query isolates one
// consumer of index order; all run at dop 1 so the partition phase and
// per-row costs are not hidden by parallelism.
func orderQueries() []struct {
	name, sql string
	opts      []gapplydb.QueryOption
} {
	return []struct {
		name, sql string
		opts      []gapplydb.QueryOption
	}{
		// ORDER BY served by an index: the no-index plan sorts every
		// lineitem row; the indexed plan gathers the presorted run and
		// elides the sort entirely.
		{"orderby_scan",
			"select l_suppkey, l_orderkey, l_quantity from lineitem order by l_suppkey",
			nil},
		// Range + ORDER BY: the seek bounds skip most of the run before
		// the (still present, now redundant) filter.
		{"orderby_range",
			"select ps_suppkey, ps_partkey, ps_availqty from partsupp where ps_suppkey >= 10 and ps_suppkey < 20 order by ps_suppkey",
			nil},
		// Merge join: a small probe side against a large sorted run. The
		// cost model only picks merge in this shape — a hash probe is
		// O(1) while the merge probe pays the binary search's log factor,
		// so merge wins by skipping the large side's hash build, not on
		// per-probe work.
		{"merge_join",
			"select c_name, o_orderkey, o_totalprice from customer, orders where c_custkey = o_custkey",
			nil},
		// Sort-partitioned GApply whose outer arrives in group-key order
		// through the index: the partition phase cuts runs instead of
		// sorting. The detail+summary inner keeps the GApply a real
		// GApply (a pure-aggregate inner would collapse to a GroupBy).
		{"sorted_gapply",
			"select gapply(select 0, l_partkey, l_quantity from g union all select 1, null, sum(l_quantity) from g) from lineitem group by l_suppkey : g",
			[]gapplydb.QueryOption{gapplydb.WithPartition("sort")}},
	}
}

// Order measures the order-pass workload with indexes on and off at
// serial degree. Every pair of runs is checked for identical output
// order and content before its timings are reported.
func Order(db *gapplydb.Database) ([]OrderRow, error) {
	var out []OrderRow
	for _, q := range orderQueries() {
		noOpts := append([]gapplydb.QueryOption{gapplydb.WithDOP(1), gapplydb.WithoutIndexes()}, q.opts...)
		nt, nres, err := timeEngine(db, q.sql, noOpts...)
		if err != nil {
			return nil, err
		}
		ixOpts := append([]gapplydb.QueryOption{gapplydb.WithDOP(1)}, q.opts...)
		it, ires, err := timeEngine(db, q.sql, ixOpts...)
		if err != nil {
			return nil, err
		}
		if err := sameResult(q.name, nres, ires); err != nil {
			return nil, err
		}
		out = append(out, OrderRow{Query: q.name, NoIndex: nt, Indexed: it, Rows: len(ires.Rows)})
	}
	return out, nil
}

// CompareRepeats is how many times each side of a comparison runs; the
// minimum is kept. Plan deltas can be fractions of a GC pause, so this
// is deliberately higher than the suite-wide Repeats: with a collection
// landing inside roughly every other run, min-of-3 measures which side
// got lucky, not which is faster.
var CompareRepeats = 9

// timeEngine is timeQuery with the comparison's noise controls: more
// repeats, and a forced collection before each timed run so one side's
// garbage doesn't land as a pause inside the other's window.
func timeEngine(db *gapplydb.Database, q string, opts ...gapplydb.QueryOption) (time.Duration, *gapplydb.Result, error) {
	best := time.Duration(0)
	var last *gapplydb.Result
	for i := 0; i < CompareRepeats; i++ {
		runtime.GC()
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

// sameResult rejects a timing pair whose plans disagree — a comparison
// between different computations measures nothing.
func sameResult(name string, a, b *gapplydb.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("experiments: %s: plans disagree: %d rows vs %d", name, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			return fmt.Errorf("experiments: %s: plans disagree at row %d: %v vs %v", name, i, a.Rows[i], b.Rows[i])
		}
	}
	return nil
}
