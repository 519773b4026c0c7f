package types

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// kernelValues is a mixed-kind domain whose Identical classes cross kinds
// (INT 2 and FLOAT 2.0, ±2^53 and their float images, -0.0 and +0.0, NaN
// payloads) and whose neighbours only just differ (2^53 and 2^53+1, INT 2
// and STRING "2", BOOL true and INT 1, DATE 2 and INT 2).
func kernelValues() []Value {
	return []Value{
		Null,
		NewInt(0), NewInt(1), NewInt(2), NewInt(-2),
		NewInt(twoTo53), NewInt(twoTo53 + 1), NewInt(twoTo53 - 1),
		NewInt(-twoTo53), NewInt(-twoTo53 - 1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(2), NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(0.5), NewFloat(2.5),
		NewFloat(float64(twoTo53)), NewFloat(-float64(twoTo53)),
		NewFloat(math.NaN()), NewFloat(-math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000001)),
		NewString("2"), NewString(""), NewString("a"),
		NewBool(true), NewBool(false),
		NewDate(2), NewDate(0),
	}
}

// checkKeyTable feeds rows to a fresh table in the given mode, with the
// real fingerprints or (collide) one fingerprint for every key, in INT
// mode and in generic mode alike, and checks the ids against the
// reference partition by Row.Key: ids are dense in first appearance, two
// rows share an id exactly when their Keys are equal, and in join mode a
// key with a NULL column gets no id. FindAll must then return every
// row's id, probed from a second copy of the key columns at other
// ordinals, the reference's id for a key of each kernel value in every
// column, and -1 for a key no row holds. It returns the table, so a
// caller can check which mode it ended in.
func checkKeyTable(t *testing.T, rows []Row, cols []int, join, collide bool) *KeyTable {
	t.Helper()
	tab := &KeyTable{Join: join}
	if collide {
		tab.collide = ^uint32(0)
	}
	ref := map[string]int{}
	ids := make([]int32, len(rows))
	for i, r := range rows {
		id, isNew := tab.Insert(rows, i, cols)
		ids[i] = int32(id)
		want, seen := -1, true
		if !join || !hasNull(r, cols) {
			k := r.Key(cols)
			if want, seen = ref[k]; !seen {
				want = len(ref)
				ref[k] = want
			}
		}
		if id != want || isNew != !seen {
			t.Fatalf("join=%v collide=%v: row %d %v got id %d (new %v), want %d (new %v)", join, collide, i, r.Project(cols), id, isNew, want, !seen)
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("join=%v collide=%v: %d keys, reference has %d", join, collide, tab.Len(), len(ref))
	}
	// Probe every row's key, moved to the end of a wider row, a key of
	// each kernel value, and a key the table lacks.
	probe := make([]int, len(cols))
	for j := range probe {
		probe[j] = 1 + j
	}
	var probes []Row
	for _, r := range rows {
		probes = append(probes, append(Row{NewString("pad")}, r.Project(cols)...))
	}
	want := append(ids[:len(ids):len(ids)], make([]int32, 0, 64)...)
	for _, v := range append(kernelValues(), NewString("absent")) {
		p := Row{NewString("pad")}
		for range cols {
			p = append(p, v)
		}
		id, ok := ref[p.Key(probe)]
		if !ok || join && v.IsNull() {
			id = -1
		}
		probes, want = append(probes, p), append(want, int32(id))
	}
	got := tab.FindAll([]int32{7}, rows, cols, probes, probe)[1:]
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("join=%v collide=%v generic=%v: FindAll(%v) = %d, want %d", join, collide, tab.generic, probes[j][1:], got[j], want[j])
		}
	}
	checkCluster(t, rows, ids, tab.Len())
	return tab
}

// checkCluster checks Cluster's layout over chunked input: key k's
// rows, and only they, in input order, with rows of negative id left
// out.
func checkCluster(t *testing.T, rows []Row, ids []int32, keys int) {
	t.Helper()
	// Cut the input into chunks of 1, 2, 3, … rows.
	var idChunks [][]int32
	var rowChunks [][]Row
	for lo, n := 0, 1; lo < len(rows); lo, n = lo+n, n+1 {
		hi := min(lo+n, len(rows))
		idChunks, rowChunks = append(idChunks, ids[lo:hi]), append(rowChunks, rows[lo:hi])
	}
	laid, bounds := Cluster(nil, nil, keys, idChunks, rowChunks)
	if len(bounds) != keys+1 || bounds[0] != 0 || bounds[keys] != len(laid) {
		t.Fatalf("Cluster bounds %v over %d rows", bounds, len(laid))
	}
	next := make([]int, keys)
	copy(next, bounds)
	for i, id := range ids {
		if id < 0 {
			continue
		}
		if at := next[id]; at >= bounds[id+1] || &laid[at][0] != &rows[i][0] {
			t.Fatalf("Cluster: row %d is not at key %d's position %d", i, id, at)
		}
		next[id]++
	}
	for k := 0; k < keys; k++ {
		if next[k] != bounds[k+1] {
			t.Fatalf("Cluster: key %d holds %d rows, placed %d", k, bounds[k+1]-bounds[k], next[k]-bounds[k])
		}
	}
}

// TestKeyTableMatchesKeyEncoding: over every pair of the mixed-kind
// domain, shuffled and repeated, and over INT-dense keys that leave INT
// mode part way or never, the kernel's ids partition the rows exactly as
// a Row.Key map does — grouping mode — and as that map minus
// NULL-bearing keys does — join mode — with the real fingerprints and
// with every key forced into one probe chain, where the key comparison
// alone decides.
func TestKeyTableMatchesKeyEncoding(t *testing.T) {
	vals := kernelValues()
	var rows []Row
	for _, a := range vals {
		for _, b := range vals {
			rows = append(rows, Row{NewInt(int64(len(rows))), a, b})
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	rows = append(rows, rows[:len(rows)/2]...)
	for _, cols := range [][]int{{1}, {2, 1}} {
		for _, join := range []bool{false, true} {
			for _, collide := range []bool{false, true} {
				checkKeyTable(t, rows, cols, join, collide)
			}
		}
	}
	// INT-dense: every kernel INT and more, repeated, then each way out
	// of INT mode after a few hundred keys, or none.
	var ints []int64
	for _, v := range vals {
		if v.K == KindInt {
			ints = append(ints, v.I)
		}
	}
	for i := 0; i < 600; i++ {
		ints = append(ints, int64(rng.Intn(300)-100))
	}
	for _, leaver := range intLeavers {
		checkIntDense(t, ints, len(ints)/2, leaver)
	}
	checkIntDense(t, ints, len(ints), Null)
}

// intLeavers are the keys that end INT mode, each a way out: a FLOAT, a
// NULL (in grouping mode) and a string.
var intLeavers = []Value{NewFloat(2.5), Null, NewString("2")}

// checkIntDense checks the kernel over INT keys, one column and two,
// with leaver inserted after the first n (none when n is past the end):
// a single-column table stays in INT mode until then, and leaves it just
// when leaver is a key that must (a NULL in join mode gets no id and
// does not).
func checkIntDense(t *testing.T, ints []int64, n int, leaver Value) {
	t.Helper()
	var rows []Row
	for i, x := range ints {
		if i == n {
			rows = append(rows, Row{NewInt(-1), leaver, NewInt(x)})
		}
		rows = append(rows, Row{NewInt(int64(i)), NewInt(x), NewInt(x % 7)})
	}
	for _, cols := range [][]int{{1}, {1, 2}} {
		for _, join := range []bool{false, true} {
			for _, collide := range []bool{false, true} {
				tab := checkKeyTable(t, rows, cols, join, collide)
				left := len(ints) > 0 && (len(cols) > 1 || n < len(ints) && !(join && leaver.IsNull()))
				if tab.generic != left {
					t.Fatalf("cols %v join=%v, leaving on %v after %d keys: generic mode %v, want %v", cols, join, leaver, n, tab.generic, left)
				}
			}
		}
	}
}

// TestKeyTableResetAndGrowth: a reset table assigns ids afresh, ids
// survive the slot array doubling many times over, and Add keeps
// exactly each key's first row.
func TestKeyTableResetAndGrowth(t *testing.T) {
	var rows []Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, Row{NewInt(int64(i % 3000)), NewInt(int64(i))})
	}
	var tab KeyTable
	for round := 0; round < 2; round++ {
		tab.Reset()
		var firsts []Row
		for i, r := range rows {
			id := 0
			if round == 0 {
				id, _ = tab.Insert(rows, i, []int{0})
			} else {
				id, _ = tab.Add(&firsts, r, []int{0})
			}
			if id != i%3000 {
				t.Fatalf("round %d: row %d got id %d, want %d", round, i, id, i%3000)
			}
		}
		if tab.Len() != 3000 {
			t.Fatalf("round %d: %d keys, want 3000", round, tab.Len())
		}
		if round == 1 {
			for id, r := range firsts {
				if r[1].Int() != int64(id) {
					t.Fatalf("Add kept row %v as key %d's first row", r, id)
				}
			}
		}
	}
}

// FuzzKeyTable decodes the input into two-column rows over a small
// mixed-kind domain (so keys repeat and cross kinds) and into INT keys
// that leave INT mode part way, and checks the kernel against the
// Row.Key partition in grouping and join mode, in INT and generic mode,
// with the real fingerprints and with forced collisions.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1, 2, 3, 2})
	f.Add([]byte{0, 0, 0, 0, 12, 3, 3, 2, 20, 1, 19, 5})
	f.Add([]byte{5, 250, 6, 7, 16, 17, 18, 19, 20, 21, 22})
	vals := kernelValues()
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows []Row
		for i := 0; i+1 < len(data) && len(rows) < 512; i += 2 {
			rows = append(rows, Row{vals[int(data[i])%len(vals)], vals[int(data[i+1])%len(vals)]})
		}
		for _, cols := range [][]int{{0}, {0, 1}} {
			for _, join := range []bool{false, true} {
				for _, collide := range []bool{false, true} {
					checkKeyTable(t, rows, cols, join, collide)
				}
			}
		}
		// INT-dense: the same bytes as INT keys, the first byte choosing
		// the way out of INT mode and the second how many keys precede it.
		if len(data) < 2 {
			return
		}
		var ints []int64
		for _, b := range data[2:] {
			if v := vals[int(b)%len(vals)]; v.K == KindInt {
				ints = append(ints, v.I)
			} else {
				ints = append(ints, int64(b%32))
			}
		}
		checkIntDense(t, ints, int(data[1]), intLeavers[int(data[0])%len(intLeavers)])
	})
}

// TestKeyTableProbeLengths bounds the probe chains the fingerprints
// make, over 100 000 keys of each common shape: sequential INT pairs,
// the float images of sequential INTs and short strings, all in generic
// mode, and sequential INTs in INT mode. A key's probe length is one
// plus its distance from its home slot; at the table's load of at most a
// half, well-spread fingerprints give a mean near 1.5.
func TestKeyTableProbeLengths(t *testing.T) {
	const n = 100000
	for _, tc := range []struct {
		name    string
		key     func(i int) Row
		cols    []int
		generic bool
	}{
		{"int pairs", func(i int) Row { return Row{NewInt(int64(i / 317)), NewInt(int64(i % 317))} }, []int{0, 1}, true},
		{"float images", func(i int) Row { return Row{NewFloat(float64(i))} }, []int{0}, true},
		{"short strings", func(i int) Row { return Row{NewString(strconv.Itoa(i))} }, []int{0}, true},
		{"ints", func(i int) Row { return Row{NewInt(int64(i))} }, []int{0}, false},
	} {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = tc.key(i)
		}
		var tab KeyTable
		for i := range rows {
			tab.Insert(rows, i, tc.cols)
		}
		if tab.Len() != n || tab.generic != tc.generic {
			t.Fatalf("%s: %d keys in generic mode %v, want %d in %v", tc.name, tab.Len(), tab.generic, n, tc.generic)
		}
		mask := len(tab.slots) - 1
		total, longest := 0, 0
		for s, slot := range tab.slots {
			if slot != 0 {
				home := int(uint32(slot>>32)>>tab.shift) & mask
				l := (s-home)&mask + 1
				total, longest = total+l, max(longest, l)
			}
		}
		mean := float64(total) / n
		t.Logf("%s: mean probe length %.3f, longest %d", tc.name, mean, longest)
		if mean > 1.6 || longest > 40 {
			t.Errorf("%s: mean probe length %.3f, longest %d: want at most 1.6 and 40", tc.name, mean, longest)
		}
	}
}
