package storage

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gapplydb/internal/types"
)

// Index is an ordered secondary index: a sorted run over one table's
// rows. The run holds the order-preserving encoding of the key columns
// (types.OrderKeys) and the heap positions sorted by those bytes — a
// stable sort, so rows with equal keys stay in heap order. That tie
// rule is load-bearing: it makes an index scan byte-identical to the
// executor's stable in-memory sort of a heap scan, which is what lets
// the planner elide sorts without changing output.
//
// The store is append-only, so a run is valid as long as the table's
// cardinality matches the cardinality it was built at; Run rebuilds
// lazily when the table has grown (or shrunk, impossible today) since.
type Index struct {
	Name  string
	Table string
	// Cols are the key column names (unqualified), outermost first. All
	// orderings are ascending; ties are heap position order.
	Cols []string
	// ords are the key columns' ordinals in the table schema.
	ords []int

	mu    sync.Mutex
	built int // table cardinality the current run was built at
	run   *IndexRun
}

// IndexRun is an immutable snapshot of a sorted run: Keys[i] is the
// encoded key of the row at heap position Pos[i], and Keys is
// non-decreasing. Safe for concurrent readers. Besides an ordered scan
// it is an access path in its own right: a bounded window of it serves
// a selective filter, and a merge join probes it in place.
type IndexRun struct {
	Keys [][]byte
	Pos  []int32
}

// Len returns the run's entry count.
func (r *IndexRun) Len() int { return len(r.Pos) }

// SeekGE returns the first run offset whose key is ≥ k (Len if none).
func (r *IndexRun) SeekGE(k []byte) int {
	return sort.Search(len(r.Keys), func(i int) bool { return bytes.Compare(r.Keys[i], k) >= 0 })
}

// SeekGT returns the first run offset whose key is > k (Len if none).
func (r *IndexRun) SeekGT(k []byte) int {
	return sort.Search(len(r.Keys), func(i int) bool { return bytes.Compare(r.Keys[i], k) > 0 })
}

// EqualRange returns the run window [lo, hi) of entries whose key is k:
// SeekGE for its start, then a short forward scan — most ranges are a
// few entries (one, on a key column) — falling back to a search for the
// first greater key over the rest of the run when the range is long.
func (r *IndexRun) EqualRange(k []byte) (int, int) {
	const scan = 8
	lo := r.SeekGE(k)
	hi := lo
	for hi < len(r.Keys) && hi-lo < scan && bytes.Equal(r.Keys[hi], k) {
		hi++
	}
	if hi-lo < scan {
		return lo, hi
	}
	rest := r.Keys[hi:]
	return lo, hi + sort.Search(len(rest), func(i int) bool { return bytes.Compare(rest[i], k) > 0 })
}

// Ords returns the key columns' ordinals in the table schema.
func (ix *Index) Ords() []int { return ix.ords }

// Run returns the current sorted run for t, rebuilding it first if the
// table has grown since the last build. Concurrent queries may race to
// rebuild; the mutex makes the rebuild happen once.
func (ix *Index) Run(t *Table) *IndexRun {
	n := len(t.Rows)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.run != nil && ix.built == n {
		return ix.run
	}
	var keys types.OrderKeys
	for _, r := range t.Rows {
		for _, c := range ix.ords {
			keys.Append(r[c], false)
		}
		keys.EndRow()
	}
	ix.run = NewIndexRun(&keys)
	ix.built = n
	return ix.run
}

// NewIndexRun sorts encoded keys (all ascending) into a run: Pos is the
// stable key order of the rows keys encodes, and Keys[i] is the key of
// row Pos[i]. The run takes ownership of keys' buffers; keys must not be
// reused.
func NewIndexRun(keys *types.OrderKeys) *IndexRun {
	pos := keys.Sort()
	sorted := make([][]byte, len(pos))
	for i, p := range pos {
		sorted[i] = keys.Key(int(p))
	}
	return &IndexRun{Keys: sorted, Pos: pos}
}

// lockedIndexes returns the catalog's index map, creating it on first
// use. Caller holds c.mu.
func (c *Catalog) lockedIndexes() map[string]*Index {
	if c.indexes == nil {
		c.indexes = make(map[string]*Index)
	}
	return c.indexes
}

// CreateIndex registers an ordered secondary index over the named
// columns of table. The key encoding and the ascending-with-stable-ties
// order are fixed; there is no DESC or uniqueness option. The run itself
// is built lazily on first use (and rebuilt when the table grows).
// Creating an index bumps the catalog version, so cached plans recompile
// and can pick the new access path up.
func (c *Catalog) CreateIndex(name, table string, cols ...string) (*Index, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: index %q needs at least one column", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", table)
	}
	key := strings.ToLower(name)
	idxs := c.lockedIndexes()
	if _, dup := idxs[key]; dup {
		return nil, fmt.Errorf("storage: index %q already exists", name)
	}
	ords := make([]int, len(cols))
	for i, col := range cols {
		ord, err := t.Def.Schema.Resolve(t.Def.Name, col)
		if err != nil {
			return nil, fmt.Errorf("storage: index %q: %w", name, err)
		}
		ords[i] = ord
	}
	ix := &Index{Name: name, Table: t.Def.Name, Cols: append([]string(nil), cols...), ords: ords}
	idxs[key] = ix
	c.version.Add(1)
	return ix, nil
}

// DropIndex removes an index by name and bumps the catalog version.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.indexes[key]; !ok {
		return fmt.Errorf("storage: unknown index %q", name)
	}
	delete(c.indexes, key)
	c.version.Add(1)
	return nil
}

// LookupIndex finds an index by name (case-insensitive).
func (c *Catalog) LookupIndex(name string) (*Index, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ix, ok := c.indexes[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: unknown index %q", name)
	}
	return ix, nil
}

// Indexes returns every index sorted by name, for gsql's \indexes and
// the tests.
func (c *Catalog) Indexes() []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OrderedIndex returns an index of table whose key columns are exactly
// cols, in order — the lookup the planner's order-placement pass makes.
// Exact equality (not prefix match) is required: an index with extra
// trailing key columns orders equal-prefix rows by those columns instead
// of by heap position, which would change tie order relative to the
// stable sorts it must substitute for.
func (c *Catalog) OrderedIndex(table string, cols []string) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.indexes {
		if !strings.EqualFold(ix.Table, table) || len(ix.Cols) != len(cols) {
			continue
		}
		match := true
		for i := range cols {
			if !strings.EqualFold(ix.Cols[i], cols[i]) {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// EncodeIndexKey encodes a probe value in the index key format, for
// range seeks against a run. Multi-column probes concatenate.
func EncodeIndexKey(dst []byte, v types.Value) []byte { return v.AppendOrderKey(dst) }
