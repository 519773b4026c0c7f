// Package types defines the value model of the engine: SQL-style dynamically
// typed scalar values with NULL, three-valued logic for predicates, total
// ordering for sorting and hashing for partitioning.
//
// The representation is deliberately compact (one small struct, no pointers
// except for strings) because the GApply executor moves large numbers of
// values through partition tables.
package types

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Kind enumerates the scalar types the engine supports. The paper's
// workload (TPC-H publishing) needs integers, decimals and strings; BOOL
// exists for predicate results and DATE is carried as an ordered integer
// (days since epoch) with its own render form.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // INT, BOOL (0/1), DATE (days)
	F float64 // FLOAT
	S string  // VARCHAR
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a BOOL value.
func NewBool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// NewDate returns a DATE value holding days since an arbitrary epoch.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the truth value of a BOOL; NULL and non-bool are false.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// Int returns the integer payload (valid for INT, BOOL, DATE).
func (v Value) Int() int64 { return v.I }

// Float returns the value coerced to float64. INT and DATE widen; other
// kinds return 0. Use Kind checks before calling when exactness matters.
func (v Value) Float() float64 {
	switch v.K {
	case KindFloat:
		return v.F
	case KindInt, KindBool, KindDate:
		return float64(v.I)
	default:
		return 0
	}
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// String renders the value the way the result printer and tagger show it.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return fmt.Sprintf("date(%d)", v.I)
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.K))
	}
}

// Go returns the value in the Go representation the public API's boxed
// rows use: nil, int64 (INT and DATE), float64, string or bool.
func (v Value) Go() any {
	switch v.K {
	case KindInt, KindDate:
		return v.I
	case KindFloat:
		return v.F
	case KindString:
		return v.S
	case KindBool:
		return v.I != 0
	default:
		return nil
	}
}

// FromGo is the inverse of Go for the dynamic types boxed rows carry
// (int is accepted alongside int64). ok is false for any other type.
func FromGo(v any) (Value, bool) {
	switch x := v.(type) {
	case nil:
		return Null, true
	case int64:
		return NewInt(x), true
	case int:
		return NewInt(int64(x)), true
	case float64:
		return NewFloat(x), true
	case string:
		return NewString(x), true
	case bool:
		return NewBool(x), true
	default:
		return Null, false
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted).
func (v Value) SQLLiteral() string {
	if v.K == KindString {
		return "'" + v.S + "'"
	}
	return v.String()
}

// Tri is SQL three-valued logic.
type Tri uint8

const (
	False Tri = iota
	True
	Unknown
)

// String renders the truth value.
func (t Tri) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// TriOf lifts a Go bool into Tri.
func TriOf(b bool) Tri {
	if b {
		return True
	}
	return False
}

// And is three-valued conjunction.
func (t Tri) And(o Tri) Tri {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or is three-valued disjunction.
func (t Tri) Or(o Tri) Tri {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not is three-valued negation.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Value converts the truth value to a SQL value (Unknown ⇒ NULL).
func (t Tri) Value() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null
	}
}

// comparable pairs: numeric/numeric (with widening), string/string,
// bool/bool, date/date. Compare returns -1, 0, +1. If either side is NULL
// or the kinds are incomparable the second return is false; predicates
// must then evaluate to Unknown.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	switch {
	case a.K.Numeric() && b.K.Numeric():
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1, true
			case a.I > b.I:
				return 1, true
			}
			return 0, true
		}
		// Mixed INT/FLOAT compares exactly: converting the integer side
		// to float64 would collapse distinct values beyond 2^53 (e.g.
		// 2^53 and 2^53+1 share a float64 image), which would make
		// grouping equality intransitive and let hash partitioning merge
		// keys sort partitioning keeps apart.
		if a.K == KindInt {
			return compareIntFloat(a.I, b.F), true
		}
		if b.K == KindInt {
			return -compareIntFloat(b.I, a.F), true
		}
		af, bf := a.F, b.F
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		case af == bf:
			return 0, true
		}
		// At least one side is NaN. NaN orders after every non-NaN float
		// and equals itself — the same placement compareIntFloat gives it
		// — so grouping equality stays an equivalence relation instead of
		// NaN comparing "equal" to everything.
		switch {
		case math.IsNaN(af) && math.IsNaN(bf):
			return 0, true
		case math.IsNaN(af):
			return 1, true
		default:
			return -1, true
		}
	case a.K == KindString && b.K == KindString:
		switch {
		case a.S < b.S:
			return -1, true
		case a.S > b.S:
			return 1, true
		}
		return 0, true
	case a.K == KindBool && b.K == KindBool, a.K == KindDate && b.K == KindDate:
		switch {
		case a.I < b.I:
			return -1, true
		case a.I > b.I:
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// SortCompare is a total order used by ORDER BY and sort-based
// partitioning: NULL sorts first, then by kind for incomparable kinds,
// then by Compare.
func SortCompare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	// Incomparable kinds: order by kind tag so sorting is still total.
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

// compareIntFloat compares an int64 against a float64 exactly, without
// rounding the integer through a float64 image. Returns -1/0/+1 for
// i </==/> f; NaN orders after every integer.
func compareIntFloat(i int64, f float64) int {
	const maxInt64f = 9223372036854775808.0 // 2^63, exactly representable
	switch {
	case math.IsNaN(f):
		return -1
	case f >= maxInt64f:
		return -1
	case f < -maxInt64f:
		return 1
	}
	t := math.Trunc(f) // in [-2^63, 2^63): int64(t) is defined
	ti := int64(t)
	switch {
	case i < ti:
		return -1
	case i > ti:
		return 1
	case f > t: // equal integer parts; a positive fraction makes f larger
		return -1
	case f < t:
		return 1
	}
	return 0
}

// exactFloatImage returns the float64 with exactly the numeric value of
// i, when one exists (|i| ≤ 2^53 always qualifies; larger magnitudes
// only when they fall on the float64 grid).
func exactFloatImage(i int64) (float64, bool) {
	const maxInt64f = 9223372036854775808.0 // 2^63
	f := float64(i)
	if f >= -maxInt64f && f < maxInt64f && int64(f) == i {
		return f, true
	}
	return 0, false
}

// canonFloat canonicalizes a float64 for keying and hashing: -0.0 and
// +0.0 compare equal, so they must produce the same image — and so do
// all NaNs (Compare reports any two NaNs equal), so every NaN payload
// collapses to the canonical one.
func canonFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	if math.IsNaN(f) {
		return math.NaN()
	}
	return f
}

// Identical reports whether two values are the same for grouping and
// DISTINCT purposes (NULLs group together, unlike predicate equality).
func Identical(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Hash folds the value into h a word at a time: a number, BOOL, DATE or
// NULL in one fold (a multiply spreads the word, a rotate and a multiply
// mix it into h), a string in one fold per 8 bytes plus one for its tail
// and length. Values that are Identical hash identically: INT 2 and
// FLOAT 2.0 compare equal, so both hash through the float image; an
// integer beyond the float64-exact range (which no float64 can equal)
// hashes its exact bits under a tag of its own; -0.0 hashes like +0.0
// and every NaN like every other. For a given h and tag each fold is a
// bijection of the word, so distinct one-word values of one tag never
// collide; other keys may — the hash kernel (KeyTable) confirms every
// hit by comparing actual key values.
func (v Value) Hash(h uint64) uint64 {
	switch v.K {
	case KindNull:
		return fold(h^1*hashTag, 0)
	case KindInt:
		if f, ok := exactFloatImage(v.I); ok {
			return fold(h^2*hashTag, math.Float64bits(f))
		}
		return fold(h^6*hashTag, uint64(v.I))
	case KindFloat:
		return fold(h^2*hashTag, math.Float64bits(canonFloat(v.F)))
	case KindString:
		h ^= 3 * hashTag
		s := v.S
		for ; len(s) >= 8; s = s[8:] {
			h = fold(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
				uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		}
		w := uint64(len(v.S)) << 56
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		return fold(h, w)
	case KindBool:
		return fold(h^4*hashTag, uint64(v.I))
	case KindDate:
		return fold(h^5*hashTag, uint64(v.I))
	default:
		return fold(h^7*hashTag, 0)
	}
}

// The multipliers are xxHash64's primes: hashTag separates the kinds,
// hashSpread spreads a word over its high bits, hashMix mixes it into h.
const (
	hashTag    = 1609587929392839161
	hashSpread = 14029467366897019727
	hashMix    = 11400714785074694791
)

// fold mixes the word x into h: an xxHash64 round.
func fold(h, x uint64) uint64 { return bits.RotateLeft64(h^x*hashSpread, 31) * hashMix }

// Add returns a+b with SQL NULL propagation and numeric widening.
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b; integer division truncates, division by zero errors.
func Div(a, b Value) (Value, error) { return arith(a, b, '/') }

func arith(a, b Value, op byte) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.K.Numeric() || !b.K.Numeric() {
		return Null, fmt.Errorf("types: cannot apply %c to %s and %s", op, a.K, b.K)
	}
	if a.K == KindInt && b.K == KindInt {
		switch op {
		case '+':
			return NewInt(a.I + b.I), nil
		case '-':
			return NewInt(a.I - b.I), nil
		case '*':
			return NewInt(a.I * b.I), nil
		case '/':
			if b.I == 0 {
				return Null, fmt.Errorf("types: division by zero")
			}
			return NewInt(a.I / b.I), nil
		}
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case '+':
		return NewFloat(af + bf), nil
	case '-':
		return NewFloat(af - bf), nil
	case '*':
		return NewFloat(af * bf), nil
	case '/':
		if bf == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		return NewFloat(af / bf), nil
	}
	return Null, fmt.Errorf("types: unknown operator %c", op)
}
