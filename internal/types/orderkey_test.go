package types

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// orderKeyCorpus is a hostile value set: every kind, NULL, exact and
// inexact int/float interleavings around 2^53 and 2^63, NaN and signed
// zeros, strings with embedded NULs and escape-adjacent bytes.
func orderKeyCorpus() []Value {
	vals := []Value{
		Null,
		NewBool(false), NewBool(true),
		NewDate(-400000), NewDate(0), NewDate(8035), NewDate(10591),
		NewString(""), NewString("a"), NewString("ab"), NewString("b"),
		NewString("a\x00"), NewString("a\x00b"), NewString("a\x01"),
		NewString("a\xff"), NewString("\x00"), NewString("\x00\x00"),
		NewString("Supplier#000000001"),
	}
	ints := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 511, math.MinInt64 + 512, math.MinInt64 + 513,
		-(1 << 62), -(1 << 53) - 1, -(1 << 53), -(1<<53 - 1),
		-4567, -1, 0, 1, 2, 4567,
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3,
		1 << 62, 1<<62 + 1,
		math.MaxInt64 - 1024, math.MaxInt64 - 513, math.MaxInt64 - 512, math.MaxInt64 - 511, math.MaxInt64,
	}
	for _, i := range ints {
		vals = append(vals, NewInt(i))
	}
	floats := []float64{
		math.Inf(-1), -math.MaxFloat64, -9.223372036854776e18, // -2^63
		-1e18, -4567.25, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		0.5, 1, 2, 4567.25,
		9007199254740991, 9007199254740992, 9007199254740994, // 2^53-1, 2^53, 2^53+2
		4.611686018427388e18, // 2^62
		9.223372036854776e18, // 2^63 (beyond every int64)
		1e19, math.MaxFloat64, math.Inf(1),
		math.NaN(), math.Float64frombits(0xFFF8000000000001), // NaN with a hostile payload
	}
	for _, f := range floats {
		vals = append(vals, NewFloat(f))
	}
	return vals
}

// TestOrderKeyMatchesSortCompare: byte order of encodings is exactly
// SortCompare order, over every pair of the corpus.
func TestOrderKeyMatchesSortCompare(t *testing.T) {
	vals := orderKeyCorpus()
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = v.AppendOrderKey(nil)
	}
	for i, a := range vals {
		for j, b := range vals {
			want := SortCompare(a, b)
			got := bytes.Compare(keys[i], keys[j])
			if got != want {
				t.Errorf("order mismatch: SortCompare(%v, %v) = %d but keys compare %d\n a=%x\n b=%x",
					a, b, want, got, keys[i], keys[j])
			}
		}
	}
}

// TestOrderKeyCanonical: SortCompare-equal values must encode to
// identical bytes — the property that makes index order reproduce the
// executor's stable sorts (which never distinguish equal keys).
func TestOrderKeyCanonical(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(2), NewFloat(2)},
		{NewInt(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewInt(1 << 60), NewFloat(float64(int64(1) << 60))},
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xFFF8000000000001))},
	}
	for _, p := range pairs {
		a := p[0].AppendOrderKey(nil)
		b := p[1].AppendOrderKey(nil)
		if !bytes.Equal(a, b) {
			t.Errorf("equal values encode differently: %v → %x, %v → %x", p[0], a, p[1], b)
		}
	}
}

// TestOrderKeyRoundTrip: decoding yields a value Identical to the input
// (and bit-exact for non-numeric kinds), and consumes exactly the
// encoded bytes.
func TestOrderKeyRoundTrip(t *testing.T) {
	for _, v := range orderKeyCorpus() {
		enc := v.AppendOrderKey(nil)
		got, rest, err := DecodeOrderKey(enc)
		if err != nil {
			t.Fatalf("decode %v (%x): %v", v, enc, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %v left %d bytes", v, len(rest))
		}
		if SortCompare(got, v) != 0 {
			t.Errorf("round trip %v → %v (not Identical)", v, got)
		}
		switch v.K {
		case KindString, KindBool, KindDate, KindNull:
			if got != v {
				t.Errorf("round trip %v → %v (kind lost)", v, got)
			}
		case KindInt:
			// Outside the float64-exact grid the integer must survive
			// bit-exactly — no float64 can be Identical to it.
			if _, exact := exactFloatImage(v.I); !exact {
				if got.K != KindInt || got.I != v.I {
					t.Errorf("inexact int round trip %v → %v", v, got)
				}
			}
		}
	}
}

// TestOrderKeysMultiColumn: concatenated per-column keys compare exactly
// as CompareRows over those columns — including across a short string
// followed by other columns (the prefix-free property).
func TestOrderKeysMultiColumn(t *testing.T) {
	rows := []Row{
		{NewString("a"), NewInt(9)},
		{NewString("a"), NewInt(10)},
		{NewString("a\x00"), NewInt(1)},
		{NewString("ab"), NewInt(1)},
		{Null, NewInt(5)},
		{NewString("a"), Null},
		{NewInt(7), NewFloat(7.5)},
	}
	cols := []int{0, 1}
	var keys OrderKeys
	for _, r := range rows {
		keys.Append(r[0], false)
		keys.Append(r[1], false)
		keys.EndRow()
	}
	for i := range rows {
		for j := range rows {
			want := CompareRows(rows[i], rows[j], cols, nil)
			got := bytes.Compare(keys.Key(i), keys.Key(j))
			if got != want {
				t.Errorf("rows %v vs %v: CompareRows=%d keys=%d", rows[i], rows[j], want, got)
			}
		}
	}
}

// FuzzOrderKeyNumeric cross-checks the delicate numeric interleave: for
// arbitrary (int64, float64, int64) the three pairwise byte orders must
// match SortCompare, and all three values must round-trip.
func FuzzOrderKeyNumeric(f *testing.F) {
	f.Add(int64(0), 0.0, int64(1))
	f.Add(int64(1<<53+1), float64(1<<53), int64(math.MaxInt64))
	f.Add(int64(math.MinInt64), math.Inf(-1), int64(math.MinInt64+512))
	f.Add(int64(math.MaxInt64), 9.223372036854776e18, int64(math.MaxInt64-512))
	f.Add(int64(42), math.NaN(), int64(-42))
	f.Fuzz(func(t *testing.T, i int64, g float64, j int64) {
		vals := []Value{NewInt(i), NewFloat(g), NewInt(j), NewFloat(math.Float64frombits(uint64(i)))}
		keys := make([][]byte, len(vals))
		for k, v := range vals {
			keys[k] = v.AppendOrderKey(nil)
			got, rest, err := DecodeOrderKey(keys[k])
			if err != nil || len(rest) != 0 {
				t.Fatalf("round trip %v: err=%v rest=%d", v, err, len(rest))
			}
			if SortCompare(got, v) != 0 {
				t.Fatalf("round trip %v → %v", v, got)
			}
		}
		for a := range vals {
			for b := range vals {
				if got, want := bytes.Compare(keys[a], keys[b]), SortCompare(vals[a], vals[b]); got != want {
					t.Fatalf("SortCompare(%v, %v)=%d but keys compare %d", vals[a], vals[b], want, got)
				}
			}
		}
	})
}

// FuzzOrderKeyString: arbitrary byte strings (embedded NULs, 0xFF runs)
// must round-trip and order correctly against a second string.
func FuzzOrderKeyString(f *testing.F) {
	f.Add("", "a")
	f.Add("a\x00", "a")
	f.Add("a\x00\xff", "a\x00\x01")
	f.Add("\x00\x00\x00", "\x00")
	f.Fuzz(func(t *testing.T, a, b string) {
		va, vb := NewString(a), NewString(b)
		ka := va.AppendOrderKey(nil)
		kb := vb.AppendOrderKey(nil)
		if got, want := bytes.Compare(ka, kb), SortCompare(va, vb); got != want {
			t.Fatalf("SortCompare(%q, %q)=%d but keys compare %d", a, b, want, got)
		}
		got, rest, err := DecodeOrderKey(ka)
		if err != nil || len(rest) != 0 || got.S != a || got.K != KindString {
			t.Fatalf("round trip %q → %v (err=%v, rest=%d)", a, got, err, len(rest))
		}
	})
}

// TestOrderKeyDescComplement: complemented encodings order exactly as
// SortCompare reversed, over every pair of the corpus — strings that are
// prefixes of each other, embedded NULs, NULL, NaN, ±0.0 and integers
// beyond 2^53 included — and a complemented key followed by another key
// still compares key by key (the encoding is prefix-free, so the first
// differing byte lies inside the first key whenever the first keys
// differ).
func TestOrderKeyDescComplement(t *testing.T) {
	vals := orderKeyCorpus()
	second := []Value{Null, NewInt(-1), NewString("")}
	var rows []Row
	for _, v := range vals {
		for _, w := range second {
			rows = append(rows, Row{v, w})
		}
	}
	for _, desc := range [][]bool{{true, false}, {false, true}, {true, true}} {
		var k OrderKeys
		for _, r := range rows {
			k.Append(r[0], desc[0])
			k.Append(r[1], desc[1])
			k.EndRow()
		}
		for i, a := range rows {
			for j, b := range rows {
				want := CompareRows(a, b, []int{0, 1}, desc)
				if got := bytes.Compare(k.Key(i), k.Key(j)); got != want {
					t.Fatalf("desc=%v: CompareRows(%v, %v) = %d but keys compare %d\n a=%x\n b=%x",
						desc, a, b, want, got, k.Key(i), k.Key(j))
				}
			}
		}
	}
}

// FuzzStableOrder checks the sort kernel against the definition it
// replaces: sort.SliceStable with SortCompare, over random rows of up to
// three keys with mixed directions, mixed kinds and many ties.
func FuzzStableOrder(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0b010))
	f.Add(int64(2), uint16(2), uint8(0b111))
	f.Add(int64(3), uint16(1000), uint8(0b101))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, descBits uint8) {
		rng := rand.New(rand.NewSource(seed))
		pool := []Value{
			Null, NewInt(0), NewInt(1), NewInt(-7), NewInt(1 << 60), NewInt(1<<53 + 1),
			NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(math.NaN()), NewFloat(0.5),
			NewString(""), NewString("a"), NewString("a\x00"), NewString("ab"),
			NewBool(true), NewDate(3),
		}
		keys := 1 + int(descBits>>3)%3
		desc := make([]bool, keys)
		cols := make([]int, keys)
		for c := range desc {
			desc[c] = descBits&(1<<c) != 0
			cols[c] = c
		}
		rows := make([]Row, int(n)%2000)
		for i := range rows {
			r := make(Row, keys)
			for c := range r {
				r[c] = pool[rng.Intn(len(pool))]
			}
			rows[i] = r
		}
		var k OrderKeys
		for _, r := range rows {
			for c, v := range r {
				k.Append(v, desc[c])
			}
			k.EndRow()
		}
		got := k.Sort()
		want := make([]int32, len(rows))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool {
			return CompareRows(rows[want[a]], rows[want[b]], cols, desc) < 0
		})
		if !slices.Equal(got, want) {
			t.Fatalf("keys=%d desc=%v: kernel order %v, stable sort %v", keys, desc, got, want)
		}
	})
}

// BenchmarkAppendOrderKey: encoding one value of each kind the sort and
// index builds encode most, per value.
func BenchmarkAppendOrderKey(b *testing.B) {
	for _, tc := range []struct {
		name string
		v    Value
	}{
		{"int", NewInt(4567)},
		{"int-inexact", NewInt(1<<53 + 1)},
		{"float", NewFloat(4567.25)},
		{"string", NewString("Supplier#000000001")},
	} {
		b.Run(tc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			for i := 0; i < b.N; i++ {
				buf = tc.v.AppendOrderKey(buf[:0])
			}
		})
	}
}
