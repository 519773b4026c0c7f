package exec

import (
	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// The basic operators the iterator tree runs itself: scans, distinct
// and sort (the operators a segment program runs natively are in
// segment.go). Each moves up to batchSize rows per interface call.

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
