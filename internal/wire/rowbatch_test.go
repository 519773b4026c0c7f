package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"gapplydb/internal/types"
)

// sampleRows is a batch with every value kind, as the engine types it
// and as the public API boxes it.
func sampleRows(n int) ([]types.Row, [][]any) {
	typed := make([]types.Row, n)
	boxed := make([][]any, n)
	for i := range typed {
		typed[i] = types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 2)), types.Null,
			types.NewString("part name, forty-odd bytes of it, number x"),
			types.NewFloat(901.5 + float64(i)), types.NewBool(i%3 == 0), types.NewDate(int64(9000 + i)),
		}
		boxed[i] = make([]any, len(typed[i]))
		for j, v := range typed[i] {
			boxed[i][j] = v.Go()
		}
	}
	return typed, boxed
}

// The typed builder and the boxed entry point share one value encoding:
// the same rows give the same payload, and reusing the builder's buffer
// leaves nothing of the previous batch behind.
func TestRowBatchTypedMatchesBoxed(t *testing.T) {
	typed, boxed := sampleRows(40)
	want, err := EncodeRowBatch(7, len(typed[0]), boxed)
	if err != nil {
		t.Fatal(err)
	}
	var b RowBatch
	b.Begin(3, 1)
	if err := b.Row(types.Row{types.NewString("left over from the batch before")}); err != nil {
		t.Fatal(err)
	}
	b.Begin(7, len(typed[0]))
	for _, r := range typed {
		if err := b.Row(r); err != nil {
			t.Fatal(err)
		}
	}
	if b.Rows() != len(typed) || b.Size() != len(want) || !bytes.Equal(b.Payload(), want) {
		t.Fatalf("typed payload (%d rows, %d bytes) differs from the boxed one (%d bytes)", b.Rows(), b.Size(), len(want))
	}
	_, got, err := DecodeRowBatch(b.Payload())
	if err != nil || !reflect.DeepEqual(got, boxed) {
		t.Fatalf("decode: err=%v", err)
	}
	if err := b.Row(typed[0][:2]); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

// Decoded rows are carved from one slab; appending to one must not
// reach into the next.
func TestDecodedRowsDoNotShareCapacity(t *testing.T) {
	_, boxed := sampleRows(3)
	p, _ := EncodeRowBatch(1, len(boxed[0]), boxed)
	_, rows, err := DecodeRowBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(rows[0], "overflow")
	if !reflect.DeepEqual(rows[1], boxed[1]) {
		t.Fatalf("appending to row 0 changed row 1: %v", rows[1])
	}
}

// batchHeader is a TypeRowBatch payload's header followed by body.
func batchHeader(ncols, nrows uint32, body ...byte) []byte {
	var e Enc
	e.U64(1)
	e.U32(ncols)
	e.U32(nrows)
	return append(e.B, body...)
}

// A header may not declare more cells than the payload has bytes: before
// this check a 16-byte frame declaring 50 M zero-column rows decoded,
// without error, into 50 M rows and 6.8 GB.
func TestDecodeRowBatchRejectsOversizedHeader(t *testing.T) {
	for _, tc := range []struct {
		name         string
		ncols, nrows uint32
		body         []byte
	}{
		{"zero columns, many rows", 0, 50_000_000, nil},
		{"many columns", 1<<32 - 1, 1, []byte{tagNull}},
		{"product overflows uint32", 1 << 16, 1 << 16, []byte{tagNull, tagNull}},
		{"one cell too many", 2, 2, []byte{tagNull, tagNull, tagNull}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, rows, err := DecodeRowBatch(batchHeader(tc.ncols, tc.nrows, tc.body...))
		runtime.ReadMemStats(&after)
		var sizeErr *RowBatchSizeError
		if !errors.As(err, &sizeErr) || rows != nil {
			t.Errorf("%s: %d rows, err %v; want a *RowBatchSizeError", tc.name, len(rows), err)
			continue
		}
		if sizeErr.NCols != tc.ncols || sizeErr.NRows != tc.nrows || sizeErr.Remaining != len(tc.body) {
			t.Errorf("%s: error reports %+v", tc.name, *sizeErr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: rejected only after allocating %d bytes", tc.name, grew)
		}
	}
	// At the bound it still decodes: NULLs are one byte each.
	_, rows, err := DecodeRowBatch(batchHeader(2, 2, tagNull, tagNull, tagNull, tagNull))
	if err != nil || len(rows) != 2 || len(rows[1]) != 2 {
		t.Fatalf("four NULL cells in four bytes: rows=%v err=%v", rows, err)
	}
	// A header that fits but whose values run out is still a short payload.
	if _, _, err := DecodeRowBatch(batchHeader(1, 2, tagInt, 0)); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("truncated values: err=%v", err)
	}
}

// FuzzDecodeRowBatch feeds the decoder arbitrary payloads — it is the
// client's decoder — and holds what it returns and allocates to a
// multiple of the payload's size. The allocation is read from
// process-wide counters, which other goroutines' allocations also move;
// the decoder is deterministic and that noise only adds, so the least
// of a few decodes of the same payload is held to the limit.
func FuzzDecodeRowBatch(f *testing.F) {
	_, boxed := sampleRows(5)
	good, _ := EncodeRowBatch(1, len(boxed[0]), boxed)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(batchHeader(0, 50_000_000))
	f.Add(batchHeader(0, 3, '0', '0', '0'))
	f.Add(batchHeader(1<<32-1, 1, tagNull))
	f.Add(batchHeader(3, 1, tagStr, 0xff, 0xff, 0xff, 0xff, 'x'))
	f.Add([]byte{1, 2})
	f.Fuzz(func(t *testing.T, p []byte) {
		var rows [][]any
		var err error
		grew := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, rows, err = DecodeRowBatch(p)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		// A cell costs a 16-byte interface plus at most a boxed value and
		// its share of the payload; a row a 24-byte header.
		if limit := uint64(64*len(p) + 4096); grew > limit {
			t.Fatalf("%d-byte payload made the decoder allocate %d bytes (limit %d)", len(p), grew, limit)
		}
		if err != nil {
			if rows != nil {
				t.Fatalf("rows returned alongside %v", err)
			}
			return
		}
		cells := 0
		for _, r := range rows {
			cells += max(len(r), 1)
		}
		if cells > len(p) {
			t.Fatalf("%d cells decoded from %d bytes", cells, len(p))
		}
		// What decoded must encode to a payload that decodes the same —
		// except zero-column rows, which encode to no bytes at all: the
		// decoder admits only as many as the payload has (stray) bytes,
		// so that their count is bounded, and no server sends them.
		if len(rows) > 0 && len(rows[0]) > 0 {
			again, err := EncodeRowBatch(1, len(rows[0]), rows)
			if err != nil {
				t.Fatal(err)
			}
			if _, rows2, err := DecodeRowBatch(again); err != nil || !equalRows(rows, rows2) {
				t.Fatalf("re-encoded batch does not round-trip: %v", err)
			}
		}
	})
}

// equalRows is reflect.DeepEqual with NaN equal to itself.
func equalRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, v := range a[i] {
			w := b[i][j]
			if f, ok := v.(float64); ok && f != f {
				g, ok := w.(float64)
				if !ok || g == g {
					return false
				}
				continue
			}
			if v != w {
				return false
			}
		}
	}
	return true
}

// Encoding a typed row into a warmed-up builder allocates nothing, and
// decoding a frame allocates two containers however many rows it has.
func TestRowBatchAllocations(t *testing.T) {
	typed, boxed := sampleRows(256)
	var b RowBatch
	encode := func() {
		b.Begin(1, len(typed[0]))
		for _, r := range typed {
			if err := b.Row(r); err != nil {
				t.Fatal(err)
			}
		}
		b.Payload()
	}
	encode() // grow the buffer once
	if n := testing.AllocsPerRun(20, encode); n != 0 {
		t.Errorf("encoding %d typed rows into a reused builder: %.1f allocations, want 0", len(typed), n)
	}

	payload, _ := EncodeRowBatch(1, len(boxed[0]), boxed)
	perFrame := testing.AllocsPerRun(20, func() {
		if _, _, err := DecodeRowBatch(payload); err != nil {
			t.Fatal(err)
		}
	})
	// Per row: one string copy and the boxes of the string, the float and
	// the two integers too large for the runtime's small-value cache.
	perRow := (perFrame - 2) / float64(len(boxed))
	if perRow > 5.1 {
		t.Errorf("decoding: %.2f allocations per row beyond the frame's two containers, want at most 5", perRow)
	}
}

// The codec alone: rows/s is the inverse of ns/row, B/row the payload's
// density, allocs/row what the GC sees.
func BenchmarkRowBatch(b *testing.B) {
	typed, boxed := sampleRows(256)
	ncols := len(typed[0])
	payload, _ := EncodeRowBatch(1, ncols, boxed)
	report := func(b *testing.B, mallocs uint64) {
		rows := float64(b.N * len(typed))
		b.SetBytes(int64(len(payload)))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
		b.ReportMetric(float64(len(payload))/float64(len(typed)), "B/row")
		b.ReportMetric(float64(mallocs)/rows, "allocs/row")
	}
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	b.Run("encode/typed", func(b *testing.B) {
		var rb RowBatch
		m0 := mallocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			rb.Begin(1, ncols)
			for _, r := range typed {
				rb.Row(r)
			}
			rb.Payload()
		}
		b.StopTimer()
		report(b, mallocs()-m0)
	})
	b.Run("encode/boxed", func(b *testing.B) {
		m0 := mallocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := EncodeRowBatch(1, ncols, boxed); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, mallocs()-m0)
	})
	b.Run("decode", func(b *testing.B) {
		m0 := mallocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, _, err := DecodeRowBatch(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, mallocs()-m0)
	})
}
