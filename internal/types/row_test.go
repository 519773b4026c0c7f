package types

import (
	"testing"
	"testing/quick"
)

func sampleRow() Row {
	return Row{NewInt(1), NewString("a"), NewFloat(2.5), Null}
}

func TestRowConcat(t *testing.T) {
	a := Row{NewInt(1)}
	b := Row{NewInt(2), NewInt(3)}
	got := a.Concat(b)
	want := Row{NewInt(1), NewInt(2), NewInt(3)}
	if !got.Identical(want) {
		t.Errorf("Concat = %v", got)
	}
	// Concat must not share the left row's array.
	got[0] = NewInt(42)
	if a[0].Int() != 1 {
		t.Error("Concat aliases left input")
	}
}

func TestRowProject(t *testing.T) {
	r := sampleRow()
	got := r.Project([]int{2, 0})
	if len(got) != 2 || got[0].Float() != 2.5 || got[1].Int() != 1 {
		t.Errorf("Project = %v", got)
	}
	if got := r.Project(nil); len(got) != 0 {
		t.Errorf("empty projection = %v", got)
	}
}

func TestRowIdentical(t *testing.T) {
	if !sampleRow().Identical(sampleRow()) {
		t.Error("identical rows")
	}
	if sampleRow().Identical(sampleRow()[:3]) {
		t.Error("length mismatch must be false")
	}
	other := sampleRow()
	other[1] = NewString("b")
	if sampleRow().Identical(other) {
		t.Error("differing rows")
	}
	// NULLs group together at the row level too.
	if !(Row{Null}).Identical(Row{Null}) {
		t.Error("NULL rows identical")
	}
}

func TestRowKeyDiscriminates(t *testing.T) {
	a := Row{NewString("ab"), NewString("c")}
	b := Row{NewString("a"), NewString("bc")}
	if a.Key([]int{0, 1}) == b.Key([]int{0, 1}) {
		t.Error("Key must be prefix-safe: (ab,c) vs (a,bc)")
	}
	// Identical values produce identical keys across kinds.
	x := Row{NewInt(2)}
	y := Row{NewFloat(2)}
	if x.Key([]int{0}) != y.Key([]int{0}) {
		t.Error("2 and 2.0 must key identically")
	}
	if (Row{Null}).Key([]int{0}) == (Row{NewInt(0)}).Key([]int{0}) {
		t.Error("NULL and 0 must key differently")
	}
	n := sampleRow()
	if n.KeyAll() != n.Key([]int{0, 1, 2, 3}) {
		t.Error("KeyAll must cover every column")
	}
	// Bool and date keys.
	if (Row{NewBool(true)}).KeyAll() == (Row{NewBool(false)}).KeyAll() {
		t.Error("bools key differently")
	}
	if (Row{NewDate(1)}).KeyAll() == (Row{NewDate(2)}).KeyAll() {
		t.Error("dates key differently")
	}
}

func TestRowHashMatchesKey(t *testing.T) {
	a := Row{NewInt(7), NewString("x")}
	b := Row{NewFloat(7), NewString("x")}
	cols := []int{0, 1}
	if a.Hash(cols) != b.Hash(cols) {
		t.Error("rows with identical keys must hash identically")
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("a")}
	if CompareRows(a, b, []int{0}, nil) != 0 {
		t.Error("equal on col 0")
	}
	if CompareRows(a, b, []int{0, 1}, nil) != 1 {
		t.Error("a > b on (0,1)")
	}
	if CompareRows(a, b, []int{1}, []bool{true}) != -1 {
		t.Error("descending flips order")
	}
	c := Row{Null, NewString("z")}
	if CompareRows(c, a, []int{0}, nil) != -1 {
		t.Error("NULL-first ordering in rows")
	}
}

func TestRowString(t *testing.T) {
	got := (Row{NewInt(1), Null}).String()
	if got != "(1, NULL)" {
		t.Errorf("Row.String = %q", got)
	}
}

// Property: Key equality coincides with Identical for int/string rows.
func TestQuickKeyIdentical(t *testing.T) {
	f := func(a, b int64, s, u string) bool {
		x := Row{NewInt(a), NewString(s)}
		y := Row{NewInt(b), NewString(u)}
		return (x.KeyAll() == y.KeyAll()) == x.Identical(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: projection then key equals key of projected columns.
func TestQuickProjectKey(t *testing.T) {
	f := func(a, b, c int64) bool {
		r := Row{NewInt(a), NewInt(b), NewInt(c)}
		return r.Project([]int{2, 0}).KeyAll() == r.Key([]int{2, 0})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
