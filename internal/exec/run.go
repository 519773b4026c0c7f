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

// Run executes a logical plan to completion and materializes the
// result: a drain of Start's Cursor, so cancellation, deadlines and the
// resource budget behave exactly as they do for a streamed execution.
// The rows are copied out of the execution's arena before its release,
// so they stay valid for as long as the caller holds them. The
// experiments' client simulation and package tests run plans this way.
func Run(n core.Node, ctx *Context) (*Result, error) {
	cur, err := Start(n, ctx)
	defer ctx.ReleaseArena()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	rows, err := cur.Drain()
	if err != nil {
		return nil, err
	}
	return &Result{Schema: cur.Schema, Rows: rows}, nil
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
