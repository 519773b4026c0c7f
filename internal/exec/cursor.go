package exec

import (
	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// Cursor is the one way a plan executes: Start builds and opens the
// iterator tree, and each NextBatch pulls one batch of output rows,
// polling the Context's cancellation signal and charging its output-row
// budget. The root package's Stream drives one (Query drains that
// Stream, the network server and xmlpub.Publish pull it), and Run
// drains one into a materialized Result. Its rows live in the arena
// BuildBatch attached until ReleaseArena; Drain copies them out.
//
// A Cursor, like the iterator tree it drives, belongs to a single
// goroutine. Close is idempotent and must be called even after an error
// (NextBatch errors leave the tree closed already; the extra Close is a
// no-op).
type Cursor struct {
	Schema *schema.Schema

	node    core.Node
	bit     BatchIterator
	ctx     *Context
	n       int64
	closed  bool
	trunc   Batch // the allowed head of a batch the output budget cuts short
	pendErr error // error to deliver on the NextBatch after a truncated batch
}

// Start compiles the plan and opens the iterator tree, returning a
// cursor positioned before the first row.
func Start(n core.Node, ctx *Context) (*Cursor, error) {
	bit, err := BuildBatch(n, ctx)
	if err != nil {
		return nil, err
	}
	if err := bit.Open(); err != nil {
		bit.Close()
		return nil, err
	}
	return &Cursor{Schema: n.Schema(), node: n, bit: bit, ctx: ctx}, nil
}

// NextBatch returns the next batch of output rows; nil with a nil error
// marks exhaustion, and any error (cancellation, deadline, budget,
// operator failure) closes the tree and is final. The batch and its rows
// follow the batch-engine ownership contract: valid until the next call
// on the cursor. When MaxOutputRows falls mid-batch the allowed rows are
// still delivered, and the *ResourceError (with Used = max+1) arrives on
// the following call.
func (c *Cursor) NextBatch() (*Batch, error) {
	if err := c.pendErr; err != nil {
		c.pendErr = nil
		return nil, err
	}
	if c.closed {
		return nil, nil
	}
	b, err := c.bit.NextBatch()
	if err != nil {
		c.close()
		return nil, err
	}
	if b == nil {
		// A cancel that lands after the last batch still cancels the
		// query: the consumer must not mistake a raced result for a
		// committed success.
		err := c.close()
		if cerr := c.ctx.checkCancel(); cerr != nil {
			err = cerr
		}
		return nil, err
	}
	if err := c.ctx.tickN(b.Len()); err != nil {
		c.close()
		return nil, err
	}
	c.n += int64(b.Len())
	if bud := c.ctx.Budget; bud != nil && bud.MaxOutputRows > 0 && c.n > bud.MaxOutputRows {
		keep := b.Len() - int(c.n-bud.MaxOutputRows)
		c.n = bud.MaxOutputRows
		err := &ResourceError{
			Limit: LimitOutputRows, Operator: core.Summary(c.node),
			Max: bud.MaxOutputRows, Used: bud.MaxOutputRows + 1,
		}
		c.close()
		if keep == 0 {
			return nil, err
		}
		c.pendErr = err
		if b.Sel != nil {
			c.trunc = Batch{Rows: b.Rows, Sel: b.Sel[:keep]}
		} else {
			c.trunc = Batch{Rows: b.Rows[:keep]}
		}
		return &c.trunc, nil
	}
	return b, nil
}

// Drain pulls every remaining batch and returns the rows, their values
// copied into one slab the caller owns, so they outlive the release of
// the execution's arena. An error is final, as from NextBatch.
func (c *Cursor) Drain() ([]types.Row, error) {
	var rows []types.Row
	for {
		b, err := c.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		rows = b.AppendRows(rows)
	}
	cells := 0
	for _, r := range rows {
		cells += len(r)
	}
	slab := make([]types.Value, cells)
	for i, r := range rows {
		n := copy(slab, r)
		rows[i] = slab[:n:n]
		slab = slab[n:]
	}
	return rows, nil
}

// Close releases the iterator tree. Safe to call more than once.
func (c *Cursor) Close() error { return c.close() }

func (c *Cursor) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.bit.Close()
}
