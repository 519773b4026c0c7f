package types

import (
	"math"
	"math/rand"
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
		NewFloat(2), NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(0.5),
		NewFloat(float64(twoTo53)), NewFloat(-float64(twoTo53)),
		NewFloat(math.NaN()), NewFloat(-math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000001)),
		NewString("2"), NewString(""), NewString("a"),
		NewBool(true), NewBool(false),
		NewDate(2), NewDate(0),
	}
}

// checkKeyTable feeds rows to a fresh table in the given mode, with the
// real hash or (collide) one constant hash for every key, and checks the
// ids against the reference partition by Row.Key: ids are dense in first
// appearance, two rows share an id exactly when their Keys are equal,
// and in join mode a key with a NULL column gets no id. FindAll must
// then return every row's id, probed from a second copy of the key
// columns at other ordinals, and -1 for a key no row holds.
func checkKeyTable(t *testing.T, rows []Row, cols []int, join, collide bool) {
	t.Helper()
	tab := KeyTable{Join: join}
	hash := func(r Row, cols []int) uint64 {
		if collide {
			return 42
		}
		return r.Hash(cols)
	}
	ref := map[string]int{}
	ids := make([]int32, len(rows))
	for i, r := range rows {
		var id int
		var isNew bool
		if join && hasNull(r, cols) {
			id, isNew = tab.Insert(rows, i, cols)
		} else {
			id, isNew = tab.insert(rows, i, cols, hash(r, cols))
		}
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
	// Probe every row's key, moved to the end of a wider row, and a key
	// the table lacks.
	probe := make([]int, len(cols))
	for j := range probe {
		probe[j] = 1 + j
	}
	var probes []Row
	for _, r := range rows {
		probes = append(probes, append(Row{NewString("pad")}, r.Project(cols)...))
	}
	probes = append(probes, Row{NewString("pad"), NewString("absent"), NewString("absent")})
	want := append(ids[:len(ids):len(ids)], -1)
	var got []int32
	if collide {
		got = make([]int32, len(probes))
		for j := range got {
			got[j] = int32(fingerprint(42))
		}
		tab.findAll(got, rows, cols, probes, probe)
	} else {
		got = tab.FindAll([]int32{7}, rows, cols, probes, probe)[1:]
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("join=%v collide=%v: FindAll(%v) = %d, want %d", join, collide, probes[j][1:], got[j], want[j])
		}
	}
	checkCluster(t, rows, ids, tab.Len())
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
// domain, shuffled and repeated, the kernel's ids partition the rows
// exactly as a Row.Key map does — grouping mode — and as that map minus
// NULL-bearing keys does — join mode — with the real hash and with every
// key forced into one probe chain, where Identical alone decides.
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
// mixed-kind domain (so keys repeat and cross kinds) and checks the
// kernel against the Row.Key partition in both modes, with the real hash
// and with forced collisions.
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
	})
}
