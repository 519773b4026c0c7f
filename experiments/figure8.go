package experiments

import (
	"time"

	"gapplydb"
	"gapplydb/xmlpub"
)

// Figure8Row is one bar of Figure 8: a query's execution time without
// GApply (sorted-outer-union / flat-SQL plan) and with it.
type Figure8Row struct {
	Query   string
	Without time.Duration
	With    time.Duration
	// RowsWithout/RowsWith sanity-check that both plans did the same
	// logical work (the "without" plan may emit 0-count rows differently
	// on empty subsets; see the Q2 note in EXPERIMENTS.md).
	RowsWithout int
	RowsWith    int
}

// Speedup is the Figure 8 y-axis value.
func (r Figure8Row) Speedup() float64 { return Ratio(r.Without, r.With) }

// Figure8Query is one bar pair of Figure 8: the statement without GApply
// and the statement with it.
type Figure8Query struct {
	Name          string
	Without, With string
}

// Figure8Queries returns Q1–Q4 in Figure 8's order. The "without"
// statements are the sorted-outer-union translations (Q1–Q3) and the
// paper's §5.2 flat SQL formulation (Q4).
func Figure8Queries() []Figure8Query {
	return []Figure8Query{
		{"Q1", xmlpub.Q1().SortedOuterUnionSQL(), xmlpub.Q1().GApplySQL()},
		{"Q2", xmlpub.Q2().SortedOuterUnionSQL(), xmlpub.Q2().GApplySQL()},
		{"Q3", xmlpub.Q3(0.9, 1.1).SortedOuterUnionSQL(), xmlpub.Q3(0.9, 1.1).GApplySQL()},
		{"Q4", q4Flat, q4GApply},
	}
}

// q4GApply is the paper's Q4 in the extended syntax: per (supplier,
// size), the parts priced above that group's average.
const q4GApply = `
	select gapply(select p_name, p_retailprice from g
	              where p_retailprice > (select avg(p_retailprice) from g))
	from partsupp, part
	where ps_partkey = p_partkey
	group by ps_suppkey, p_size : g`

// q4Flat is the paper's §5.2 SQL formulation of Q4: join the grouped
// averages back with another copy of the join.
const q4Flat = `
	select tmp.k1, p_name, p_size, p_retailprice
	from (select ps_suppkey, p_size, avg(p_retailprice)
	      from partsupp, part
	      where p_partkey = ps_partkey
	      group by ps_suppkey, p_size) as tmp(k1, k2, avgprice),
	     partsupp, part
	where ps_partkey = p_partkey
	  and ps_suppkey = tmp.k1
	  and p_size = tmp.k2
	  and p_retailprice > tmp.avgprice
	order by tmp.k1`

// Measure times the bar pair with and without GApply, through the full
// optimizer — including decorrelation, so the baseline is what a
// production engine without GApply would execute, not a naive per-row
// re-evaluation.
func (q Figure8Query) Measure(db *gapplydb.Database) (Figure8Row, error) {
	tw, resW, err := timeQuery(db, q.Without)
	if err != nil {
		return Figure8Row{}, err
	}
	tg, resG, err := timeQuery(db, q.With)
	if err != nil {
		return Figure8Row{}, err
	}
	return Figure8Row{
		Query: q.Name, Without: tw, With: tg,
		RowsWithout: len(resW.Rows), RowsWith: len(resG.Rows),
	}, nil
}
