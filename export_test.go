package gapplydb

import (
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// CatalogOf exposes a database's catalog to the external tests, which
// evaluate plans over it with the reference interpreter.
func CatalogOf(db *Database) *storage.Catalog { return db.cat }

// TypedRows returns a query result's rows as the engine produced them.
func TypedRows(r *Result) []types.Row { return r.inner.Rows }
