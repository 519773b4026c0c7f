// Package storage provides the in-memory row store and catalog the engine
// runs against. Tables are append-only slices of rows; the engine is an
// analytical/publishing engine in the spirit of the paper's workload, so
// there is no update path or transaction machinery.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// Table is a base relation: a definition plus its rows.
type Table struct {
	Def  *schema.TableDef
	Rows []types.Row
}

// Append adds a row after validating its arity and column types (NULL is
// accepted in any column).
func (t *Table) Append(r types.Row) error {
	if len(r) != t.Def.Schema.Len() {
		return fmt.Errorf("storage: table %s expects %d columns, got %d", t.Def.Name, t.Def.Schema.Len(), len(r))
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		want := t.Def.Schema.Cols[i].Type
		if v.K != want && !(v.K.Numeric() && want.Numeric()) {
			return fmt.Errorf("storage: table %s column %s expects %s, got %s",
				t.Def.Name, t.Def.Schema.Cols[i].Name, want, v.K)
		}
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// Cardinality returns the number of rows.
func (t *Table) Cardinality() int { return len(t.Rows) }

// Catalog maps table names to tables and answers the key/foreign-key
// questions the optimizer asks.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// indexes maps lowercase index name → ordered secondary index
	// (index.go); nil until the first CreateIndex.
	indexes map[string]*Index
	// version counts schema changes (Create/Drop, CreateIndex/DropIndex)
	// and lost heap-order facts (Insert, Index.Run). Plans compiled
	// against one version are invalid under another; the statement plan
	// cache keys on it.
	version atomic.Uint64
}

// Version returns the schema-change counter. Safe for concurrent use.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a new, empty table. The name must be unused.
func (c *Catalog) Create(def *schema.TableDef) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(def.Name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", def.Name)
	}
	// Qualify the table's columns with its own name so unaliased scans
	// resolve `table.column` references.
	qualified := def.Schema.Rename(def.Name)
	def = &schema.TableDef{Name: def.Name, Schema: qualified, PrimaryKey: def.PrimaryKey, ForeignKeys: def.ForeignKeys}
	t := &Table{Def: def}
	c.tables[key] = t
	c.version.Add(1)
	return t, nil
}

// Drop removes a table.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("storage: unknown table %q", name)
	}
	delete(c.tables, key)
	for iname, ix := range c.indexes {
		if strings.EqualFold(ix.Table, name) {
			delete(c.indexes, iname)
		}
	}
	c.version.Add(1)
	return nil
}

// Lookup finds a table by name (case-insensitive).
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// Names returns the sorted table names, for the shell's \dt and tests.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Def.Name)
	}
	sort.Strings(out)
	return out
}

// HasForeignKey reports whether fromTable has a declared foreign key on
// fromCols referencing toTable's toCols (order-insensitive on pairs).
// This is the check behind "every join above n is a foreign-key join"
// in the invariant-grouping rule.
func (c *Catalog) HasForeignKey(fromTable string, fromCols []string, toTable string, toCols []string) bool {
	t, err := c.Lookup(fromTable)
	if err != nil || len(fromCols) != len(toCols) || len(fromCols) == 0 {
		return false
	}
	for _, fk := range t.Def.ForeignKeys {
		if !strings.EqualFold(fk.RefTable, toTable) || len(fk.Cols) != len(fromCols) {
			continue
		}
		if pairsMatch(fk.Cols, fk.RefCols, fromCols, toCols) {
			return true
		}
	}
	return false
}

// IsPrimaryKey reports whether cols covers the primary key of table.
func (c *Catalog) IsPrimaryKey(table string, cols []string) bool {
	t, err := c.Lookup(table)
	if err != nil {
		return false
	}
	return t.Def.IsKey(cols)
}

func pairsMatch(fkCols, fkRef, fromCols, toCols []string) bool {
	used := make([]bool, len(fromCols))
	for i := range fkCols {
		found := false
		for j := range fromCols {
			if used[j] {
				continue
			}
			if strings.EqualFold(fkCols[i], fromCols[j]) && strings.EqualFold(fkRef[i], toCols[j]) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
