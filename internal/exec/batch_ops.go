package exec

import (
	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// The basic operators: scans, filter, projections, distinct, sort,
// union and exists. Each moves up to batchSize rows per interface call.

// bScan produces a base table in zero-copy batches: each batch aliases
// a window of the table's row slice.
type bScan struct {
	table *storage.Table
	ctx   *Context
	pos   int
	out   Batch
}

func (s *bScan) Open() error { s.pos = 0; return nil }

func (s *bScan) NextBatch() (*Batch, error) {
	if s.pos >= len(s.table.Rows) {
		return nil, nil
	}
	end := min(s.pos+batchSize, len(s.table.Rows))
	n := end - s.pos
	// Leaf scans remain the engine's universal cancellation point, now
	// at batch granularity.
	if err := s.ctx.tickN(n); err != nil {
		return nil, err
	}
	s.out = Batch{Rows: s.table.Rows[s.pos:end]}
	s.pos = end
	s.ctx.Counters.RowsScanned += int64(n)
	return &s.out, nil
}

func (s *bScan) Close() error { return nil }

// bGroupScan produces the group its variable is bound to, at compile
// time, in batches: the group the enclosing GApply's program is
// evaluating when the scan opens.
type bGroupScan struct {
	rows *[]types.Row
	ctx  *Context
	win  rowWindow
}

func (s *bGroupScan) Open() error {
	s.win.reset(*s.rows)
	return nil
}

func (s *bGroupScan) NextBatch() (*Batch, error) {
	b := s.win.next()
	if b == nil {
		return nil, nil
	}
	if err := s.ctx.tickN(b.Len()); err != nil {
		return nil, err
	}
	s.ctx.Counters.GroupScanRows += int64(b.Len())
	return b, nil
}

func (s *bGroupScan) Close() error { return nil }

// bFilter narrows each input batch's selection (filter.narrow): one
// interface call and one pass over the live rows per batch.
type bFilter struct {
	input BatchIterator
	ctx   *Context
	filter
	out Batch
}

func (f *bFilter) Open() error { return f.input.Open() }

func (f *bFilter) NextBatch() (*Batch, error) {
	for {
		b, err := f.input.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if err := f.narrow(b, f.ctx); err != nil {
			return nil, err
		}
		if len(f.sel) > 0 {
			f.out = Batch{Rows: b.Rows, Sel: f.sel}
			return &f.out, nil
		}
	}
}

func (f *bFilter) Close() error { return f.input.Close() }

// bProject computes its columns for every live row, carving the output
// rows out of shared slabs (rowSlab) — a handful of allocations per
// query instead of one per row or even one per batch. The row values
// are stable as the contract requires; only the rows container is
// reused, which the contract permits (containers are transient): a
// batch of headers from the arena, taken when the operator is built.
type bProject struct {
	input BatchIterator
	cols  []projCol
	ctx   *Context

	slab rowSlab
	rows []types.Row
	out  Batch
}

func (p *bProject) Open() error {
	p.slab.width = len(p.cols)
	return p.input.Open()
}

func (p *bProject) NextBatch() (*Batch, error) {
	b, err := p.input.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	p.rows = p.rows[:0]
	if err := fill(p.cols, b, nil, p.ctx, func() types.Row {
		row := p.slab.carve(len(p.cols))
		p.rows = append(p.rows, row)
		return row
	}); err != nil {
		return nil, err
	}
	p.out = Batch{Rows: p.rows}
	return &p.out, nil
}

func (p *bProject) Close() error { return p.input.Close() }

// projCol is one projected column: a column of the input row (ord ≥ 0),
// a parameter of a segment program (slot ≥ 0), a literal, or any other
// expression, compiled (fn).
type projCol struct {
	ord, slot int
	lit       types.Value
	fn        evalFn
}

// compileCols compiles a projection's exprs over the schema of rows
// holding its first phys columns; a column past them is the parameter
// slot slots[ord-phys]. A column or literal needs no compiling, so a
// compile error is the first failing expression's.
func compileCols(exprs []core.Expr, sch *schema.Schema, phys int, slots []int, env compileEnv) ([]projCol, error) {
	cols := make([]projCol, len(exprs))
	for i, e := range exprs {
		c := &cols[i]
		var ok bool
		c.ord, c.lit, ok = kernelOperand(e, sch)
		if c.slot = -1; c.ord >= phys {
			c.ord, c.slot = -1, slots[c.ord-phys]
		} else if !ok {
			var err error
			if c.fn, err = compileExpr(e, sch, env); err != nil {
				return nil, err
			}
		}
	}
	return cols, nil
}

// fill computes the projection of each live row of b, in order, into
// the row dst returns for it, reading parameter slots from params.
func fill(cols []projCol, b *Batch, params types.Row, ctx *Context, dst func() types.Row) (err error) {
	for i := 0; i < b.Len(); i++ {
		r, row := b.Row(i), dst()
		for j := range cols {
			switch c := &cols[j]; {
			case c.ord >= 0:
				row[j] = r[c.ord]
			case c.fn != nil:
				if row[j], err = c.fn(r, ctx); err != nil {
					return err
				}
			case c.slot >= 0:
				row[j] = params[c.slot]
			default:
				row[j] = c.lit
			}
		}
	}
	return nil
}

// bDistinct narrows each batch to first-seen rows: the hash kernel
// (grouping mode) keys every column, and a row is kept only when its key
// is new.
type bDistinct struct {
	input BatchIterator
	cols  []int // every column
	keys  types.KeyTable
	kept  []types.Row // the rows kept, the kernel's first rows
	sel   []int
	out   Batch
}

func (d *bDistinct) Open() error {
	d.keys.Reset()
	d.kept = d.kept[:0]
	return d.input.Open()
}

func (d *bDistinct) NextBatch() (*Batch, error) {
	for {
		b, err := d.input.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if b.Sel != nil {
			d.sel = append(d.sel[:0], b.Sel...)
		} else {
			d.sel = identitySel(d.sel, len(b.Rows))
		}
		out := d.sel[:0]
		for _, i := range d.sel {
			if _, isNew := d.keys.Add(&d.kept, b.Rows[i], d.cols); isNew {
				out = append(out, i)
			}
		}
		if len(out) == 0 {
			continue
		}
		d.sel = out
		d.out = Batch{Rows: b.Rows, Sel: d.sel}
		return &d.out, nil
	}
}

func (d *bDistinct) Close() error { return d.input.Close() }

// bUnionAll concatenates its inputs, forwarding their batches. Inputs
// past the first are opened lazily during NextBatch and closed as they
// exhaust.
type bUnionAll struct {
	inputs []BatchIterator
	cur    int
}

func (u *bUnionAll) Open() error {
	u.cur = 0
	if len(u.inputs) == 0 {
		return nil
	}
	return u.inputs[0].Open()
}

func (u *bUnionAll) NextBatch() (*Batch, error) {
	for u.cur < len(u.inputs) {
		b, err := u.inputs[u.cur].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		if err := u.inputs[u.cur].Close(); err != nil {
			return nil, err
		}
		u.cur++
		if u.cur < len(u.inputs) {
			if err := u.inputs[u.cur].Open(); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

func (u *bUnionAll) Close() error {
	if u.cur < len(u.inputs) {
		return u.inputs[u.cur].Close()
	}
	return nil
}

// bSort materializes its input, sorts stably by the compiled keys, and
// emits the sorted rows in aliased windows. Each row's keys are encoded
// once into the sort kernel (types.OrderKeys), which orders a
// permutation by byte comparison; the input's headers go into a chunk
// store, and the sorted ones into a slice sized once. The key buffer and
// both row buffers are reused across Opens.
type bSort struct {
	input  BatchIterator
	keys   []compiledKey
	ctx    *Context
	charge *core.GApply // non-nil: the sort-hinted GApply whose partition budget intake is charged to
	enc    types.OrderKeys
	in     chunked[types.Row] // input rows, in arrival order
	rows   []types.Row        // the same rows, sorted
	win    rowWindow
}

func (s *bSort) Open() (err error) {
	if err := s.input.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := s.input.Close(); err == nil {
			err = cerr
		}
	}()
	s.enc.Reset()
	s.in.reset()
	for {
		b, err := s.input.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		if err := s.ctx.tickN(n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			r := b.Row(i)
			for _, k := range s.keys {
				v, err := k.fn(r, s.ctx)
				if err != nil {
					return err
				}
				s.enc.Append(v, k.desc)
			}
			s.enc.EndRow()
			s.in.add(r)
			if s.charge != nil {
				if err := chargePartition(s.ctx, s.charge, r); err != nil {
					return err
				}
			}
		}
	}
	if cap(s.rows) < s.in.n {
		s.rows = s.ctx.arena.headers(s.in.n)
	}
	s.rows = s.rows[:s.in.n]
	s.in.gather(s.rows, s.enc.Sort())
	s.win.reset(s.rows)
	return nil
}

func (s *bSort) NextBatch() (*Batch, error) {
	return s.win.next(), nil
}

// Close keeps the buffers for the next Open, untouched: a cursor may
// still deliver the last batch after closing the tree under it.
func (s *bSort) Close() error {
	s.win.reset(nil)
	return nil
}

// bExists consumes its input and emits a single zero-column row when
// the input is nonempty (or empty, when negated). It pulls one batch to
// decide, so the upstream may do up to one batch more work than the
// answer needs — counters fed by that work (RowsScanned, JoinProbes)
// can run ahead by part of a batch.
type bExists struct {
	input   BatchIterator
	negated bool
	done    bool
	emit    bool
	out     Batch
}

func (e *bExists) Open() error {
	e.done = false
	if err := e.input.Open(); err != nil {
		return err
	}
	b, err := e.input.NextBatch()
	if err != nil {
		return err
	}
	if err := e.input.Close(); err != nil {
		return err
	}
	e.emit = (b.Len() > 0) != e.negated
	return nil
}

func (e *bExists) NextBatch() (*Batch, error) {
	if e.done || !e.emit {
		return nil, nil
	}
	e.done = true
	e.out = Batch{Rows: []types.Row{{}}}
	return &e.out, nil
}

func (e *bExists) Close() error { return nil }
