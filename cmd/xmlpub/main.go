// Command xmlpub publishes the TPC-H supplier view as XML, running one
// of the paper's example queries with either translation strategy.
//
// Usage:
//
//	xmlpub [-sf 0.001] [-query q1|q2|q3|expensive|rich] [-strategy gapply|sou] [-show-sql]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"gapplydb"
	"gapplydb/xmlpub"
)

func main() {
	sf := flag.Float64("sf", 0.001, "TPC-H scale factor")
	query := flag.String("query", "q1", "q1 | q2 | q3 | expensive | rich")
	strategy := flag.String("strategy", "gapply", "gapply | sou (sorted outer union)")
	showSQL := flag.Bool("show-sql", false, "print the generated SQL to stderr")
	threshold := flag.Float64("threshold", 2050, "price threshold for expensive/rich")
	flag.Parse()

	var q *xmlpub.FLWR
	switch *query {
	case "q1":
		q = xmlpub.Q1()
	case "q2":
		q = xmlpub.Q2()
	case "q3":
		q = xmlpub.Q3(0.9, 1.1)
	case "expensive":
		q = xmlpub.ExpensiveSuppliers(*threshold)
	case "rich":
		q = xmlpub.RichSuppliers(*threshold)
	default:
		fmt.Fprintf(os.Stderr, "xmlpub: unknown query %q\n", *query)
		os.Exit(2)
	}
	var s xmlpub.Strategy
	switch *strategy {
	case "gapply":
		s = xmlpub.GApply
	case "sou":
		s = xmlpub.SortedOuterUnion
	default:
		fmt.Fprintf(os.Stderr, "xmlpub: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	if *showSQL {
		fmt.Fprintf(os.Stderr, "-- %s translation:\n%s\n\n", s, q.SQL(s))
	}

	db, err := gapplydb.OpenTPCH(*sf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlpub:", err)
		os.Exit(1)
	}
	// The tagger writes once per row; buffer so stdout sees large writes.
	out := bufio.NewWriter(os.Stdout)
	res, err := xmlpub.Publish(db, q, s, out)
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlpub:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "published via %s in %v (%d rows scanned, %d groups)\n",
		s, res.Elapsed.Round(time.Microsecond), res.Stats.RowsScanned, res.Stats.Groups)
}
