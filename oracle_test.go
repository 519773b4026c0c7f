package gapplydb_test

import (
	"fmt"
	"sync"
	"testing"

	"gapplydb"
	"gapplydb/internal/core"
	"gapplydb/internal/oracle"
)

// oracleResults memoizes reference results by database, statement and
// plan: several batteries check the same statements, and the reference
// interpreter is slow by design.
var oracleResults sync.Map

// expectOracle plans sql under opts and evaluates the plan with the
// reference interpreter (internal/oracle): the result every engine run
// of the same statement must match.
func expectOracle(t *testing.T, db *gapplydb.Database, sql string, opts ...gapplydb.QueryOption) *oracle.Expected {
	t.Helper()
	plan, err := db.Plan(sql, opts...)
	if err != nil {
		t.Fatalf("plan: %v\n%s", err, sql)
	}
	key := fmt.Sprintf("%p\x00%s\x00%s", db, sql, core.Format(plan))
	if want, ok := oracleResults.Load(key); ok {
		return want.(*oracle.Expected)
	}
	want, err := oracle.Expect(plan, gapplydb.CatalogOf(db))
	if err != nil {
		t.Fatalf("oracle: %v\n%s", err, sql)
	}
	oracleResults.Store(key, want)
	return want
}

// checkOracle fails the test when res does not match the reference.
func checkOracle(t *testing.T, want *oracle.Expected, res *gapplydb.Result, what string) {
	t.Helper()
	if err := want.Check(gapplydb.TypedRows(res)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}
