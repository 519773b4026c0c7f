package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "VARCHAR", KindBool: "BOOL", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.K != KindInt || v.Int() != 42 {
		t.Errorf("NewInt: %+v", v)
	}
	if v := NewFloat(2.5); v.K != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat: %+v", v)
	}
	if v := NewString("abc"); v.K != KindString || v.Str() != "abc" {
		t.Errorf("NewString: %+v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool(true): %+v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false): %+v", v)
	}
	if v := NewDate(100); v.K != KindDate || v.Int() != 100 {
		t.Errorf("NewDate: %+v", v)
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull wrong")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be NULL")
	}
}

func TestFloatCoercion(t *testing.T) {
	if got := NewInt(3).Float(); got != 3 {
		t.Errorf("int→float = %v", got)
	}
	if got := NewBool(true).Float(); got != 1 {
		t.Errorf("bool→float = %v", got)
	}
	if got := Null.Float(); got != 0 {
		t.Errorf("null→float = %v", got)
	}
	if got := NewString("x").Float(); got != 0 {
		t.Errorf("string→float = %v", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewDate(12), "date(12)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v, got, c.want)
		}
	}
	if got := NewString("hi").SQLLiteral(); got != "'hi'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := NewInt(4).SQLLiteral(); got != "4" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestTriLogic(t *testing.T) {
	// Kleene truth tables.
	and := [3][3]Tri{
		// False, True, Unknown (row = left operand)
		{False, False, False},
		{False, True, Unknown},
		{False, Unknown, Unknown},
	}
	or := [3][3]Tri{
		{False, True, Unknown},
		{True, True, True},
		{Unknown, True, Unknown},
	}
	vals := []Tri{False, True, Unknown}
	for i, a := range vals {
		for j, b := range vals {
			if got := a.And(b); got != and[i][j] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, and[i][j])
			}
			if got := a.Or(b); got != or[i][j] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, or[i][j])
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("Not wrong")
	}
	if !Unknown.Value().IsNull() || !True.Value().Bool() || False.Value().Bool() {
		t.Error("Tri.Value wrong")
	}
	if TriOf(true) != True || TriOf(false) != False {
		t.Error("TriOf wrong")
	}
	if Unknown.String() != "unknown" {
		t.Error("Tri.String wrong")
	}
}

func TestCompare(t *testing.T) {
	type tc struct {
		a, b Value
		cmp  int
		ok   bool
	}
	cases := []tc{
		{NewInt(1), NewInt(2), -1, true},
		{NewInt(2), NewInt(2), 0, true},
		{NewInt(3), NewInt(2), 1, true},
		{NewInt(2), NewFloat(2.0), 0, true},
		{NewFloat(1.5), NewInt(2), -1, true},
		{NewString("a"), NewString("b"), -1, true},
		{NewString("b"), NewString("b"), 0, true},
		{NewBool(false), NewBool(true), -1, true},
		{NewDate(1), NewDate(5), -1, true},
		{Null, NewInt(1), 0, false},
		{NewInt(1), Null, 0, false},
		{NewInt(1), NewString("1"), 0, false},
		{NewBool(true), NewInt(1), 0, false},
	}
	for _, c := range cases {
		got, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && got != c.cmp) {
			t.Errorf("Compare(%v, %v) = %d,%v want %d,%v", c.a, c.b, got, ok, c.cmp, c.ok)
		}
	}
}

func TestSortCompareTotalOrder(t *testing.T) {
	if SortCompare(Null, NewInt(-1000)) != -1 {
		t.Error("NULL must sort first")
	}
	if SortCompare(NewInt(1), Null) != 1 {
		t.Error("NULL must sort first (reversed)")
	}
	if SortCompare(Null, Null) != 0 {
		t.Error("NULL == NULL in sort order")
	}
	// Incomparable kinds fall back to kind ordering, stably.
	a, b := NewInt(5), NewString("5")
	if SortCompare(a, b) >= 0 || SortCompare(b, a) <= 0 {
		t.Error("kind fallback must be antisymmetric")
	}
	if SortCompare(NewBool(true), NewBool(true)) != 0 {
		t.Error("equal bools")
	}
}

func TestIdentical(t *testing.T) {
	if !Identical(Null, Null) {
		t.Error("NULL is identical to NULL for grouping")
	}
	if Identical(Null, NewInt(0)) {
		t.Error("NULL != 0")
	}
	if !Identical(NewInt(2), NewFloat(2)) {
		t.Error("2 and 2.0 group together")
	}
	if Identical(NewInt(2), NewInt(3)) {
		t.Error("2 != 3")
	}
}

func TestHashConsistentWithIdentical(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(2), NewFloat(2)},
		{Null, Null},
		{NewString("xy"), NewString("xy")},
		{NewBool(true), NewBool(true)},
		{NewDate(9), NewDate(9)},
	}
	for _, p := range pairs {
		if p[0].Hash(17) != p[1].Hash(17) {
			t.Errorf("Identical values %v and %v hash differently", p[0], p[1])
		}
	}
	if NewString("a").Hash(17) == NewString("b").Hash(17) {
		t.Error("distinct strings should (overwhelmingly) hash differently")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected err: %v", err)
		}
		return v
	}
	if got := mustV(Add(NewInt(2), NewInt(3))); got.Int() != 5 || got.K != KindInt {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Sub(NewInt(2), NewInt(3))); got.Int() != -1 {
		t.Errorf("2-3 = %v", got)
	}
	if got := mustV(Mul(NewInt(2), NewFloat(1.5))); got.K != KindFloat || got.Float() != 3 {
		t.Errorf("2*1.5 = %v", got)
	}
	if got := mustV(Div(NewInt(7), NewInt(2))); got.Int() != 3 {
		t.Errorf("7/2 = %v (integer division truncates)", got)
	}
	if got := mustV(Div(NewFloat(7), NewInt(2))); got.Float() != 3.5 {
		t.Errorf("7.0/2 = %v", got)
	}
	if got := mustV(Add(Null, NewInt(1))); !got.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", got)
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero must error")
	}
	if _, err := Div(NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero must error")
	}
	if _, err := Add(NewString("a"), NewInt(1)); err == nil {
		t.Error("string arithmetic must error")
	}
}

// Property: Compare is antisymmetric and consistent with SortCompare on
// comparable numeric values.
func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, ok1 := Compare(x, y)
		c2, ok2 := Compare(y, x)
		if !ok1 || !ok2 {
			return false
		}
		return c1 == -c2 && SortCompare(x, y) == c1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: int→float hashing is consistent with equality across kinds.
func TestQuickHashCrossKind(t *testing.T) {
	f := func(a int32) bool {
		x, y := NewInt(int64(a)), NewFloat(float64(a))
		return x.Hash(7) == y.Hash(7) && Identical(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arithmetic on floats matches Go semantics (away from zero div).
func TestQuickFloatArith(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		s, err := Add(NewFloat(a), NewFloat(b))
		if err != nil {
			return false
		}
		return s.Float() == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Go and FromGo are inverses on everything a boxed row can carry; DATE
// boxes to its integer, and anything else is refused, not guessed at.
func TestGoFromGoRoundTrip(t *testing.T) {
	for _, v := range []Value{Null, NewInt(-3), NewInt(math.MaxInt64), NewFloat(2.5), NewFloat(math.Inf(1)), NewString(""), NewString("x"), NewBool(true), NewBool(false)} {
		back, ok := FromGo(v.Go())
		if !ok || !Identical(back, v) || back.K != v.K {
			t.Errorf("%v: boxed to %#v, back to %v (ok=%v)", v, v.Go(), back, ok)
		}
	}
	if g := NewDate(9000).Go(); g != int64(9000) {
		t.Errorf("DATE boxed to %#v, want int64(9000)", g)
	}
	if v, ok := FromGo(7); !ok || v != NewInt(7) {
		t.Errorf("int: %v ok=%v", v, ok)
	}
	for _, bad := range []any{int32(1), uint(1), []byte("x"), struct{}{}} {
		if _, ok := FromGo(bad); ok {
			t.Errorf("FromGo accepted %T", bad)
		}
	}
}
