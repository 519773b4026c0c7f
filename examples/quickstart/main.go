// Quickstart: create tables, load rows, and run groupwise-processing
// queries with the paper's extended SQL syntax.
package main

import (
	"fmt"
	"log"

	"gapplydb"
)

func main() {
	db := gapplydb.Open()

	// A little parts-and-suppliers schema (the paper's running example).
	check(db.CreateTable("supplier",
		[]gapplydb.Column{{Name: "s_suppkey", Type: "int"}, {Name: "s_name", Type: "string"}},
		[]string{"s_suppkey"}))
	check(db.CreateTable("part",
		[]gapplydb.Column{
			{Name: "p_partkey", Type: "int"},
			{Name: "p_name", Type: "string"},
			{Name: "p_retailprice", Type: "float"},
		},
		[]string{"p_partkey"}))
	check(db.CreateTable("partsupp",
		[]gapplydb.Column{{Name: "ps_partkey", Type: "int"}, {Name: "ps_suppkey", Type: "int"}},
		[]string{"ps_partkey", "ps_suppkey"},
		gapplydb.ForeignKey{Columns: []string{"ps_partkey"}, RefTable: "part", RefColumns: []string{"p_partkey"}},
		gapplydb.ForeignKey{Columns: []string{"ps_suppkey"}, RefTable: "supplier", RefColumns: []string{"s_suppkey"}}))

	check(db.Insert("supplier", []any{1, "Acme Metals"}, []any{2, "Bolt Bazaar"}))
	check(db.Insert("part",
		[]any{1, "bolt", 1.50}, []any{2, "nut", 0.75},
		[]any{3, "washer", 0.25}, []any{4, "flange", 12.00}))
	check(db.Insert("partsupp",
		[]any{1, 1}, []any{2, 1}, []any{3, 1}, // Acme: bolt, nut, washer
		[]any{3, 2}, []any{4, 2})) // Bolt Bazaar: washer, flange
	db.RefreshStats() // give the optimizer fresh cardinalities

	// The paper's Q2: for each supplier, how many of its parts cost at
	// least / less than the supplier's average part price. The per-group
	// query runs once per group, with `g` bound to the group's rows.
	res, err := db.Query(`
		select gapply(
			select count(*), null from g
			where p_retailprice >= (select avg(p_retailprice) from g)
			union all
			select null, count(*) from g
			where p_retailprice < (select avg(p_retailprice) from g)
		) as (at_or_above_avg, below_avg)
		from partsupp, part
		where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	check(err)
	fmt.Println("Parts priced around each supplier's average:")
	fmt.Print(res.String())
	fmt.Printf("(%d groups processed in %v)\n\n", res.Stats.Groups, res.Elapsed)

	// EXPLAIN shows the optimized plan; here the optimizer has pruned
	// the partitioned columns (projection-before-GApply, paper §4.1).
	plan, err := db.Explain(`
		select gapply(select avg(p_retailprice) from g) as (avg_price)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`,
		gapplydb.WithoutRule("gapply-to-groupby"))
	check(err)
	fmt.Println("Optimized plan for a per-supplier average:")
	fmt.Print(plan)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
