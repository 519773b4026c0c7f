package exec

import (
	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// Cursor is an incrementally consumed execution of a plan: Run without
// the materialization. Each Next produces one output row, polling the
// Context's cancellation signal and charging the output-row budget
// exactly as Run does, so a caller draining a Cursor to completion sees
// the same rows, the same errors and the same counters as Run — the
// network server streams results through one of these so a large result
// never exists in full on the server side.
//
// NextBatch is the bulk form — the server's framing loop uses it to
// move 256 rows per call — and may be mixed freely with Next: a batch
// never re-delivers rows Next already returned.
//
// A Cursor, like the iterator tree it drives, belongs to a single
// goroutine. Close is idempotent and must be called even after an error
// (Next errors leave the tree closed already; the extra Close is a
// no-op).
type Cursor struct {
	Schema *schema.Schema

	node   core.Node
	bit    BatchIterator
	ctx    *Context
	n      int64
	closed bool

	cur     *Batch // current batch being row-stepped by Next
	pos     int    // live-row position within cur
	rem     Batch  // scratch for NextBatch remainders and truncations
	pendErr error  // error to deliver on the NextBatch after a truncated batch
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

// Next returns the next output row. ok=false with a nil error marks
// normal exhaustion; any error (cancellation, deadline, budget, operator
// failure) closes the tree and is final.
func (c *Cursor) Next() (types.Row, bool, error) {
	if c.closed {
		if err := c.pendErr; err != nil {
			c.pendErr = nil
			return nil, false, err
		}
		return nil, false, nil
	}
	if err := c.ctx.tick(); err != nil {
		c.close()
		return nil, false, err
	}
	for c.cur == nil || c.pos >= c.cur.Len() {
		b, err := c.bit.NextBatch()
		if err != nil {
			c.close()
			return nil, false, err
		}
		if b == nil {
			// A cancel that lands after the last row still cancels the
			// query, as in Run: the consumer must not mistake a raced
			// result for a committed success.
			err := c.close()
			if cerr := c.ctx.checkCancel(); cerr != nil {
				err = cerr
			}
			return nil, false, err
		}
		c.cur, c.pos = b, 0
	}
	r := c.cur.Row(c.pos)
	c.pos++
	c.n++
	if b := c.ctx.Budget; b != nil && b.MaxOutputRows > 0 && c.n > b.MaxOutputRows {
		c.close()
		return nil, false, &ResourceError{
			Limit: LimitOutputRows, Operator: core.Summary(c.node),
			Max: b.MaxOutputRows, Used: c.n,
		}
	}
	return r, true, nil
}

// NextBatch returns the next batch of output rows; nil with a nil error
// marks exhaustion. The batch and its rows follow the batch-engine
// ownership contract: valid until the next call on the cursor. Budget
// semantics match Next exactly — when MaxOutputRows truncates mid-batch
// the allowed rows are still delivered, and the *ResourceError (with
// Used = max+1) arrives on the following call.
func (c *Cursor) NextBatch() (*Batch, error) {
	if err := c.pendErr; err != nil {
		c.pendErr = nil
		return nil, err
	}
	if c.closed {
		return nil, nil
	}
	var b *Batch
	if c.cur != nil && c.pos < c.cur.Len() {
		// Rows Next stepped past must not reappear: emit the remainder of
		// the current batch first.
		if c.cur.Sel != nil {
			c.rem = Batch{Rows: c.cur.Rows, Sel: c.cur.Sel[c.pos:]}
		} else {
			c.rem = Batch{Rows: c.cur.Rows[c.pos:]}
		}
		c.cur = nil
		b = &c.rem
	} else {
		c.cur = nil
		nb, err := c.bit.NextBatch()
		if err != nil {
			c.close()
			return nil, err
		}
		if nb == nil {
			err := c.close()
			if cerr := c.ctx.checkCancel(); cerr != nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			return nil, nil
		}
		b = nb
	}
	if err := c.ctx.tickN(b.Len()); err != nil {
		c.close()
		return nil, err
	}
	c.n += int64(b.Len())
	if bud := c.ctx.Budget; bud != nil && bud.MaxOutputRows > 0 && c.n > bud.MaxOutputRows {
		keep := b.Len() - int(c.n-bud.MaxOutputRows)
		c.n = bud.MaxOutputRows
		c.pendErr = &ResourceError{
			Limit: LimitOutputRows, Operator: core.Summary(c.node),
			Max: bud.MaxOutputRows, Used: bud.MaxOutputRows + 1,
		}
		c.close()
		if keep == 0 {
			err := c.pendErr
			c.pendErr = nil
			return nil, err
		}
		if b.Sel != nil {
			c.rem = Batch{Rows: b.Rows, Sel: b.Sel[:keep]}
		} else {
			c.rem = Batch{Rows: b.Rows[:keep]}
		}
		return &c.rem, nil
	}
	return b, nil
}

// Rows reports how many rows the cursor has produced so far.
func (c *Cursor) Rows() int64 { return c.n }

// Close releases the iterator tree. Safe to call more than once.
func (c *Cursor) Close() error { return c.close() }

func (c *Cursor) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.cur = nil
	return c.bit.Close()
}
