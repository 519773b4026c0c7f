package types

import (
	"bytes"
	"fmt"
	"math"
	"slices"
)

// Order-preserving key encoding: AppendOrderKey(a) and AppendOrderKey(b)
// compare bytewise (bytes.Compare / memcmp) exactly as SortCompare(a, b)
// orders the values. This is the key format of the ordered secondary
// indexes — a sorted run of encoded keys can be range-searched with
// plain byte comparisons and scanned in SortCompare order.
//
// The encoding is canonical over SortCompare's equivalence classes, not
// over representations: values that SortCompare reports equal encode to
// identical bytes (INT 2 and FLOAT 2.0, -0.0 and +0.0, every NaN
// payload), which is what makes index order agree with the stable sorts
// the executor would otherwise run. The flip side is that kind
// information inside the numeric class is deliberately unrecoverable:
// DecodeOrderKey returns a value Identical to the input, not always one
// of the same Kind.
//
// Layout per value (concatenations of fixed-width or terminated fields
// stay prefix-free, so multi-column keys compare field-wise):
//
//	NULL    0x00
//	numeric 0x10 · approx[8] · residual[8]
//	string  0x20 · bytes with 0x00 → 0x00 0xFF · 0x00 0x01
//	bool    0x30 · 0x00/0x01
//	date    0x40 · uint64(days) ^ 2^63, big-endian
//
// The class tags follow SortCompare's cross-kind order (NULL first, then
// kind tags, with INT and FLOAT inter-comparable and therefore one
// class).
//
// The numeric field is the delicate one: it must interleave int64 and
// float64 exactly, including integers beyond 2^53 whose float64 image is
// rounded. approx is the sortable-bits transform of float64(v) (for an
// INT, its rounded image; for a FLOAT, the canonicalized value) and
// residual is the exact difference i − float64(i) an integer carries
// past its image (zero for floats and for exactly-representable ints).
// Correctness: float64(i) is the nearest float to i, so any float g with
// g ≠ float64(i) satisfies sign(g − float64(i)) = sign(g − i) — the
// approx bytes decide. When g = float64(i) exactly, the residual decides
// (it is sign(i − g)). Two integers sharing an image compare by their
// residuals, which carry their exact difference from it.
const (
	okTagNull    = 0x00
	okTagNumeric = 0x10
	okTagString  = 0x20
	okTagBool    = 0x30
	okTagDate    = 0x40
)

const maxInt64Float = 9223372036854775808.0 // 2^63, exactly representable

// sortableBits maps float64 bits to uint64s whose unsigned order is the
// IEEE total order with all negatives below all positives and the
// (canonical, positive) NaN above +Inf — SortCompare's float order.
func sortableBits(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func unsortableBits(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

func appendBE64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

func readBE64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// appendNumeric emits the 17-byte numeric field. residual is biased by
// 2^63 so its signed order is its unsigned byte order.
func appendNumeric(dst []byte, approx float64, residual int64) []byte {
	dst = append(dst, okTagNumeric)
	dst = appendBE64(dst, sortableBits(approx))
	return appendBE64(dst, uint64(residual)+1<<63)
}

// AppendOrderKey appends v's order-preserving encoding to dst and
// returns the extended slice.
func (v Value) AppendOrderKey(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, okTagNull)
	case KindInt:
		if f, ok := exactFloatImage(v.I); ok {
			return appendNumeric(dst, f, 0)
		}
		f := float64(v.I) // rounded image; |v.I| > 2^53 here, so f ≠ v.I
		if f == maxInt64Float {
			// v.I rounded up past int64 range: the residual is v.I − 2^63,
			// computed in two's complement (it is in [-1024, -1]).
			return appendNumeric(dst, f, int64(uint64(v.I)-1<<63))
		}
		return appendNumeric(dst, f, v.I-int64(f))
	case KindFloat:
		return appendNumeric(dst, canonFloat(v.F), 0)
	case KindString:
		dst = append(dst, okTagString)
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, v.S[i])
			}
		}
		return append(dst, 0x00, 0x01)
	case KindBool:
		return append(dst, okTagBool, byte(v.I&1))
	case KindDate:
		dst = append(dst, okTagDate)
		return appendBE64(dst, uint64(v.I)+1<<63)
	default:
		// Unreachable for engine-produced values; keep the order total.
		return append(dst, 0xFF)
	}
}

// OrderKeys is the stable sort kernel: it encodes each row's sort keys
// once, into one reused buffer, and sorts a permutation of the rows by
// plain byte comparison of those encodings. A descending key's bytes are
// complemented. The encoding is prefix-free, so two different encodings
// of one key first differ at a byte both contain; complementing flips
// that comparison and leaves the keys after it unread. Byte order is
// therefore exactly SortCompare order, key by key with descending keys
// reversed, and ties on the whole key break by input position: the
// permutation is what a stable sort by SortCompare produces.
//
// The zero value is ready for use. Reset keeps every buffer's capacity,
// so a sort re-run on each Open allocates nothing once warm.
type OrderKeys struct {
	buf  []byte
	off  []int // row i's key is buf[off[i]:off[i+1]]
	perm []int32
}

// Reset drops every encoded row, keeping the buffers.
func (k *OrderKeys) Reset() {
	k.buf, k.off, k.perm = k.buf[:0], k.off[:0], k.perm[:0]
}

// Append encodes v as the next key of the row being built.
func (k *OrderKeys) Append(v Value, desc bool) {
	start := len(k.buf)
	k.buf = v.AppendOrderKey(k.buf)
	if desc {
		for i := start; i < len(k.buf); i++ {
			k.buf[i] = ^k.buf[i]
		}
	}
}

// EndRow closes the row being built; the next Append starts a new one.
func (k *OrderKeys) EndRow() {
	if len(k.off) == 0 {
		k.off = append(k.off, 0)
	}
	k.off = append(k.off, len(k.buf))
}

// Len returns the number of rows encoded.
func (k *OrderKeys) Len() int {
	if len(k.off) == 0 {
		return 0
	}
	return len(k.off) - 1
}

// Key returns row i's encoded key. It aliases the buffer, capped so an
// append never writes through it, and is valid until Reset.
func (k *OrderKeys) Key(i int) []byte {
	return k.buf[k.off[i]:k.off[i+1]:k.off[i+1]]
}

// Sort returns the stable order of the rows: perm[j] is the input
// position of the j-th row in key order. The slice is reused by the
// next Sort after a Reset. Input already in key order sorts in linear
// time (pattern-defeating quicksort detects the run).
func (k *OrderKeys) Sort() []int32 {
	n := k.Len()
	perm := k.perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := bytes.Compare(k.Key(int(a)), k.Key(int(b))); c != 0 {
			return c
		}
		return int(a - b)
	})
	k.perm = perm
	return perm
}

// DecodeOrderKey decodes one value from the front of b, returning it and
// the remaining bytes. The result is Identical to the encoded value
// (SortCompare 0); numeric kind (INT vs FLOAT) is only distinguishable
// for integers outside the float64-exact grid.
func DecodeOrderKey(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, fmt.Errorf("types: empty order key")
	}
	switch tag := b[0]; tag {
	case okTagNull:
		return Null, b[1:], nil
	case okTagNumeric:
		if len(b) < 17 {
			return Null, nil, fmt.Errorf("types: truncated numeric order key")
		}
		f := unsortableBits(readBE64(b[1:9]))
		res := int64(readBE64(b[9:17]) - 1<<63)
		rest := b[17:]
		if res == 0 {
			return NewFloat(f), rest, nil
		}
		if f == maxInt64Float {
			return NewInt(int64(1<<63 + uint64(res))), rest, nil
		}
		return NewInt(int64(f) + res), rest, nil
	case okTagString:
		var s []byte
		i := 1
		for {
			if i >= len(b) {
				return Null, nil, fmt.Errorf("types: unterminated string order key")
			}
			c := b[i]
			if c != 0x00 {
				s = append(s, c)
				i++
				continue
			}
			if i+1 >= len(b) {
				return Null, nil, fmt.Errorf("types: truncated string order key escape")
			}
			switch b[i+1] {
			case 0x01:
				return NewString(string(s)), b[i+2:], nil
			case 0xFF:
				s = append(s, 0x00)
				i += 2
			default:
				return Null, nil, fmt.Errorf("types: bad string order key escape 0x%02x", b[i+1])
			}
		}
	case okTagBool:
		if len(b) < 2 {
			return Null, nil, fmt.Errorf("types: truncated bool order key")
		}
		return NewBool(b[1] != 0), b[2:], nil
	case okTagDate:
		if len(b) < 9 {
			return Null, nil, fmt.Errorf("types: truncated date order key")
		}
		return NewDate(int64(readBE64(b[1:9]) - 1<<63)), b[9:], nil
	default:
		return Null, nil, fmt.Errorf("types: unknown order key tag 0x%02x", tag)
	}
}
