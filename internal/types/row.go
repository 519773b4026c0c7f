package types

import (
	"encoding/binary"
	"math"
	"strings"
)

// Row is a tuple of values. A row's values never change once it is
// produced, so operators share rows freely: a consumer that keeps a row
// past its producer's next batch keeps the row itself (GApply's groups
// are views of the outer's rows), never a copy.
type Row []Value

// Concat returns the concatenation of r and s in a fresh row, the tuple
// shape produced by joins and by GApply's cross product of grouping
// values with per-group results.
func (r Row) Concat(s Row) Row {
	out := make(Row, 0, len(r)+len(s))
	out = append(out, r...)
	return append(out, s...)
}

// Project returns the row restricted to the given column ordinals.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// Identical reports column-wise Identical equality (NULLs match NULLs),
// the equality used by DISTINCT and by grouping.
func (r Row) Identical(s Row) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if !Identical(r[i], s[i]) {
			return false
		}
	}
	return true
}

// Hash folds the listed columns into a hash value.
func (r Row) Hash(cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = r[c].Hash(h)
	}
	return h
}

// Key renders the listed columns into a canonical string usable as a Go
// map key. Values that are Identical produce identical keys: numeric
// values whose float64 image is exact are canonicalized to that image
// (so INT 2 and FLOAT 2.0 agree), while integers beyond the float64-exact
// range get an exact integer encoding — two distinct int64 keys never
// merge, however large. The engine keys through KeyTable; Key is the
// independent reference encoding tests check it, and row multisets,
// against.
func (r Row) Key(cols []int) string {
	var dst []byte
	for _, c := range cols {
		dst = appendKeyValue(dst, r[c])
	}
	return string(dst)
}

func appendKeyValue(dst []byte, v Value) []byte {
	var buf [9]byte
	switch v.K {
	case KindNull:
		return append(dst, 0)
	case KindInt:
		if f, ok := exactFloatImage(v.I); ok {
			buf[0] = 1
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(f))
		} else {
			buf[0] = 5
			binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
		}
		return append(dst, buf[:9]...)
	case KindFloat:
		buf[0] = 1
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(canonFloat(v.F)))
		return append(dst, buf[:9]...)
	case KindString:
		buf[0] = 2
		binary.LittleEndian.PutUint64(buf[1:], uint64(len(v.S)))
		dst = append(dst, buf[:9]...)
		return append(dst, v.S...)
	case KindBool:
		return append(dst, 3, byte(v.I))
	case KindDate:
		buf[0] = 4
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
		return append(dst, buf[:9]...)
	}
	return dst
}

// Bytes estimates the in-memory footprint of the row: the value structs
// plus string payloads and the slice header. Resource budgets use it to
// meter materialized partitions; it is an estimate, not an accounting of
// the allocator's exact overhead.
func (r Row) Bytes() int {
	const valueSize = 40 // unsafe.Sizeof(Value{}): kind + int64 + float64 + string header
	n := 24 + len(r)*valueSize
	for _, v := range r {
		if v.K == KindString {
			n += len(v.S)
		}
	}
	return n
}

// KeyAll is Key over every column.
func (r Row) KeyAll() string {
	var dst []byte
	for _, v := range r {
		dst = appendKeyValue(dst, v)
	}
	return string(dst)
}

// String renders the row for debugging and the result printer.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CompareRows orders two rows by the listed columns with per-column
// direction (true = descending), value by value with SortCompare. The
// executor sorts on encoded order keys instead; the order-key tests
// use CompareRows as the reference those keys must agree with.
func CompareRows(a, b Row, cols []int, desc []bool) int {
	for i, c := range cols {
		cmp := SortCompare(a[c], b[c])
		if cmp == 0 {
			continue
		}
		if desc != nil && i < len(desc) && desc[i] {
			return -cmp
		}
		return cmp
	}
	return 0
}
