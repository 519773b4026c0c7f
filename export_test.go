package gapplydb

import (
	"testing"

	"gapplydb/internal/exec"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// CatalogOf exposes a database's catalog to the external tests, which
// evaluate plans over it with the reference interpreter.
func CatalogOf(db *Database) *storage.Catalog { return db.cat }

// TypedRows returns a query result's rows as the engine produced them.
func TypedRows(r *Result) []types.Row { return r.inner.Rows }

// PoisonReleasedRows makes a closed Stream's recycled row storage read as
// poison, an undefined Kind, until the test ends, so a row read after
// its stream was closed cannot pass for data.
func PoisonReleasedRows(t testing.TB) {
	exec.SetPoisonOnRelease(true)
	t.Cleanup(func() { exec.SetPoisonOnRelease(false) })
}
