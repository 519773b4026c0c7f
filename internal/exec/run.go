package exec

import (
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// Result is a fully materialized query result.
type Result struct {
	Schema *schema.Schema
	Rows   []types.Row
}

// Run compiles and executes a logical plan, materializing the result.
// Execution honors the Context's cancellation signal (ctx.Ctx) and
// resource budget: cancellation surfaces as context.Canceled or
// context.DeadlineExceeded within one row batch, and a blown budget as
// a *ResourceError naming the offending operator. The output-row budget
// error is raised once max+1 rows have been produced, with Used =
// max+1, wherever in a batch the limit falls.
func Run(n core.Node, ctx *Context) (*Result, error) {
	it, err := BuildBatch(n, ctx)
	if err != nil {
		return nil, err
	}
	if err := it.Open(); err != nil {
		return nil, err
	}
	var rows []types.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			it.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		if err := ctx.tickN(b.Len()); err != nil {
			it.Close()
			return nil, err
		}
		if bud := ctx.Budget; bud != nil && bud.MaxOutputRows > 0 && int64(len(rows)+b.Len()) > bud.MaxOutputRows {
			it.Close()
			return nil, &ResourceError{
				Limit: LimitOutputRows, Operator: core.Summary(n),
				Max: bud.MaxOutputRows, Used: bud.MaxOutputRows + 1,
			}
		}
		rows = b.AppendRows(rows)
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	// A cancel that lands after the last batch still cancels the query:
	// callers must never mistake a result raced by cancellation for a
	// committed success.
	if err := ctx.checkCancel(); err != nil {
		return nil, err
	}
	return &Result{Schema: n.Schema(), Rows: rows}, nil
}

// String renders the result as an aligned text table (the shell's output
// format).
func (r *Result) String() string {
	headers := make([]string, r.Schema.Len())
	widths := make([]int, r.Schema.Len())
	for i, c := range r.Schema.Cols {
		headers[i] = c.QualifiedName()
		widths[i] = len(headers[i])
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = v.String()
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for j, v := range vals {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v)
			b.WriteString(strings.Repeat(" ", widths[j]-len(v)))
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for j, w := range widths {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
