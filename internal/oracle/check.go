package oracle

import (
	"fmt"
	"sort"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Expected is a plan's reference result, ready to check an engine's
// rows against.
type Expected struct {
	Rows []types.Row
	ties []int // see rel.ties; nil when the plan's output is unordered
}

// Expect evaluates plan over cat, as Eval does, keeping the tie runs of
// an ordered result.
func Expect(plan core.Node, cat *storage.Catalog) (*Expected, error) {
	r, err := eval(plan, &env{cat: cat})
	if err != nil {
		return nil, err
	}
	return &Expected{Rows: r.rows, ties: r.ties}, nil
}

// Check compares an engine's result rows with the reference. Rows match
// as multisets, values equal under types.Compare (NULL equal to NULL).
// When the plan orders its output the sequence must be a valid ordering
// too: got is cut into the reference's tie runs, rows whose sort keys
// are equal, and each run must match as a multiset — rows may permute
// within ties and nowhere else.
func (x *Expected) Check(got []types.Row) error {
	if len(got) != len(x.Rows) {
		return fmt.Errorf("oracle: %d rows, want %d", len(got), len(x.Rows))
	}
	if x.ties == nil {
		return sameMultiset(x.Rows, got, "result")
	}
	for start := 0; start < len(got); {
		end := start + 1
		for end < len(got) && x.ties[end] == x.ties[start] {
			end++
		}
		where := fmt.Sprintf("tie run at rows %d..%d", start, end-1)
		if err := sameMultiset(x.Rows[start:end], got[start:end], where); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// sameMultiset reports the first difference between two equally long
// row sets, naming the part of the result they are.
func sameMultiset(want, got []types.Row, where string) error {
	w, g := sortedRows(want), sortedRows(got)
	for i := range w {
		if len(w[i]) != len(g[i]) {
			return fmt.Errorf("oracle: %s: row of %d columns, want %d", where, len(g[i]), len(w[i]))
		}
		if cmpRows(w[i], g[i], allCols(len(w[i]))) != 0 {
			return fmt.Errorf("oracle: %s differs: got %v, want %v", where, g[i], w[i])
		}
	}
	return nil
}

func sortedRows(rows []types.Row) []types.Row {
	out := append([]types.Row{}, rows...)
	if len(out) > 0 {
		cols := allCols(len(out[0]))
		sort.SliceStable(out, func(i, j int) bool { return cmpRows(out[i], out[j], cols) < 0 })
	}
	return out
}

func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
