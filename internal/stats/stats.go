// Package stats collects table statistics and implements the paper's
// §4.4 cost model for plans containing GApply: with a uniformity
// assumption over groups, cost(GApply) = cost(outer) + partitioning +
// (number of groups) × cost(per-group query on one average-size group).
// The number of groups is the number of distinct values in the grouping
// columns; the average group size is outer cardinality / groups.
package stats

import (
	"math"
	"strings"

	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// ColumnStats summarizes one column.
type ColumnStats struct {
	Distinct int64
	NullFrac float64
	Min, Max types.Value // numeric columns only
}

// TableStats summarizes one table.
type TableStats struct {
	Rows    int64
	Columns map[string]ColumnStats // keyed by lower-case column name
}

// Stats holds statistics for every table in a catalog.
type Stats struct {
	Tables map[string]TableStats // keyed by lower-case table name
}

// Collect scans the catalog and computes exact statistics. The engine is
// in-memory, so exact collection is cheap enough; a disk engine would
// sample instead, with the same interface.
func Collect(cat *storage.Catalog) *Stats {
	s := &Stats{Tables: make(map[string]TableStats)}
	var distinct types.KeyTable
	for _, name := range cat.Names() {
		tab, err := cat.Lookup(name)
		if err != nil {
			continue
		}
		ts := TableStats{Rows: int64(tab.Cardinality()), Columns: make(map[string]ColumnStats)}
		for i, col := range tab.Def.Schema.Cols {
			distinct.Reset()
			cols := []int{i}
			var nulls int64
			var minV, maxV types.Value
			for j, r := range tab.Rows {
				v := r[i]
				if v.IsNull() {
					nulls++
					continue
				}
				distinct.Insert(tab.Rows, j, cols)
				if v.K.Numeric() || v.K == types.KindDate {
					if minV.IsNull() {
						minV, maxV = v, v
					} else {
						if c, ok := types.Compare(v, minV); ok && c < 0 {
							minV = v
						}
						if c, ok := types.Compare(v, maxV); ok && c > 0 {
							maxV = v
						}
					}
				}
			}
			cs := ColumnStats{Distinct: int64(distinct.Len()), Min: minV, Max: maxV}
			if tab.Cardinality() > 0 {
				cs.NullFrac = float64(nulls) / float64(tab.Cardinality())
			}
			ts.Columns[strings.ToLower(col.Name)] = cs
		}
		s.Tables[strings.ToLower(name)] = ts
	}
	return s
}

// TableRows returns a table's cardinality (0 if unknown).
func (s *Stats) TableRows(table string) int64 {
	return s.Tables[strings.ToLower(table)].Rows
}

// ColumnDistinct returns the distinct count of table.column; when the
// table is unknown (derived columns), it searches all tables for the
// column name and falls back to a square-root heuristic on rows.
func (s *Stats) ColumnDistinct(table, column string, fallbackRows float64) float64 {
	column = strings.ToLower(column)
	if table != "" {
		if ts, ok := s.Tables[strings.ToLower(table)]; ok {
			if cs, ok := ts.Columns[column]; ok && cs.Distinct > 0 {
				return float64(cs.Distinct)
			}
		}
	}
	for _, ts := range s.Tables {
		if cs, ok := ts.Columns[column]; ok && cs.Distinct > 0 {
			return float64(cs.Distinct)
		}
	}
	d := math.Sqrt(fallbackRows)
	if d < 1 {
		d = 1
	}
	return d
}

// RangeSelectivity estimates the fraction of table.column values
// satisfying `column <op> literal` using min/max interpolation; 1/3 when
// unknown (the classic Selinger default).
func (s *Stats) RangeSelectivity(table, column, op string, lit types.Value) float64 {
	const def = 1.0 / 3
	cs, ok := s.interpolable(table, column)
	if !ok || lit.IsNull() {
		return def
	}
	lo, hi, v := cs.Min.Float(), cs.Max.Float(), lit.Float()
	frac := (v - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch op {
	case "<", "<=":
		return clampSel(frac)
	case ">", ">=":
		return clampSel(1 - frac)
	default:
		return def
	}
}

// interpolable returns table.column's statistics when they carry a
// non-empty min/max range for RangeSelectivity to interpolate over. An unknown table
// (derived columns) falls back to any table with the column.
func (s *Stats) interpolable(table, column string) (ColumnStats, bool) {
	column = strings.ToLower(column)
	cs, found := s.Tables[strings.ToLower(table)].Columns[column]
	if table == "" || !found {
		found = false
		for _, ts := range s.Tables {
			if c, ok := ts.Columns[column]; ok {
				cs, found = c, true
				break
			}
		}
	}
	return cs, found && !cs.Min.IsNull() && !cs.Max.IsNull() && cs.Max.Float() > cs.Min.Float()
}

func clampSel(x float64) float64 {
	if x < 0.001 {
		return 0.001
	}
	if x > 1 {
		return 1
	}
	return x
}
