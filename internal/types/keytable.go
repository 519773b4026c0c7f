package types

import "math/bits"

// KeyTable is the engine's one hash kernel. It assigns dense ids, in
// first-appearance order, to the distinct keys of a sequence of rows, a
// key being a row's values at a list of column ordinals. Hash joins, hash
// grouping, DISTINCT (rows and aggregate arguments), GApply's hash
// partition and the statistics collector all key through it.
//
// It is open addressing with linear probing over a 32-bit fingerprint
// of the key. Colliding keys never merge, and Identical keys always do:
// INT 2 and FLOAT 2.0, -0.0 and +0.0, every NaN payload, while 2^53 and
// 2^53+1 stay apart. Rows are named by their index in a slice the caller
// owns; the table keeps, per id, only the index of the id's first row,
// so that row must stay at its index while the table is in use.
//
// A table starts in INT mode, where every key is one KindInt column: the
// fingerprint is the int's own, and a hit is confirmed against the id's
// int, kept in the table, without touching a row. The first key that is
// not (several columns, a FLOAT, a string, a NULL in grouping mode)
// leaves the mode for good: every key is re-slotted by its Row.Hash,
// read from its first row, and from then on a hit is confirmed column by
// column with Identical against the id's first row.
//
// The zero value is an empty table in grouping mode, where NULLs are
// Identical and form one key, whose arrays are plain makes.
type KeyTable struct {
	// Join selects join mode: a key with a NULL column is never inserted
	// or found, because predicate equality never matches NULL.
	Join bool

	// Storage, when set, supplies the table's arrays, so that they can be
	// recycled with the rest of an execution's storage.
	Storage KeyStorage

	// slots holds, per occupied slot, the key's fingerprint in the high
	// 32 bits and its id + 1 in the low 32; 0 marks an empty slot. A
	// key's home slot is the top bits of its fingerprint (shift is 32
	// minus log2 of the slot count), so growing re-slots the keys from
	// their fingerprints alone.
	slots   []uint64
	shift   uint8
	firsts  []int32 // per id: the index of its first row
	ints    []int64 // per id in INT mode: its key
	generic bool    // INT mode has been left
	// collide is ORed into every fingerprint: a test sets every bit to
	// force every key into one probe chain.
	collide uint32
}

// KeyStorage supplies a KeyTable's arrays.
type KeyStorage interface {
	// Slots returns n zeroed slots.
	Slots(n int) []uint64
	// Int32s and Int64s return empty slices with room for n elements.
	Int32s(n int) []int32
	Int64s(n int) []int64
	// Drop takes back arrays the table has outgrown and will not touch
	// again; any of them may be empty.
	Drop(slots []uint64, firsts []int32, ints []int64)
}

// Reset empties the table, keeping its storage and modes.
func (t *KeyTable) Reset() {
	clear(t.slots)
	t.firsts, t.ints = t.firsts[:0], t.ints[:0]
}

// Len returns the number of keys.
func (t *KeyTable) Len() int { return len(t.firsts) }

// Insert returns the id of the key rows[i] holds at cols, adding the key
// with the next id when it is new. In join mode a key with a NULL column
// gets id -1 and is not added.
func (t *KeyTable) Insert(rows []Row, i int, cols []int) (id int, isNew bool) {
	r := rows[i]
	if !t.generic && len(cols) == 1 && r[cols[0]].K == KindInt {
		x := r[cols[0]].I
		return t.insert(rows, i, cols, t.fingerprint(uint64(x)), x)
	}
	if t.Join && hasNull(r, cols) {
		return -1, false
	}
	if !t.generic {
		t.leaveIntMode(rows, cols)
	}
	return t.insert(rows, i, cols, t.fingerprint(r.Hash(cols)), 0)
}

// Add is Insert for a row that is not yet in the slice: *firsts holds
// the first row of every key so far, and r is appended to it when its
// key is new.
func (t *KeyTable) Add(firsts *[]Row, r Row, cols []int) (id int, isNew bool) {
	*firsts = append(*firsts, r)
	n := len(*firsts)
	if id, isNew = t.Insert(*firsts, n-1, cols); !isNew {
		*firsts = (*firsts)[:n-1]
	}
	return id, isNew
}

// FindAll appends to ids the id of the key each probe row holds at
// probe, in order: matched column by column against the keys' columns
// cols in rows (the slice they were inserted from), or -1 when the table
// has no such key. In join mode a key with a NULL column is never found,
// as none was inserted. The lookups run in two passes, fingerprinting
// every probe and then walking every chain, so the memory loads of one
// probe's chain overlap those of the next instead of waiting behind its
// hashing.
func (t *KeyTable) FindAll(ids []int32, rows []Row, cols []int, probes []Row, probe []int) []int32 {
	start := len(ids)
	if len(t.firsts) == 0 {
		for range probes {
			ids = append(ids, -1)
		}
		return ids
	}
	if t.generic {
		for _, r := range probes {
			ids = append(ids, int32(t.fingerprint(r.Hash(probe))))
		}
	} else {
		c := probe[0]
		for _, r := range probes {
			x, _ := intKey(&r[c])
			ids = append(ids, int32(t.fingerprint(uint64(x))))
		}
	}
	t.findAll(ids[start:], rows, cols, probes, probe)
	return ids
}

// insert is Insert past the mode checks, with the key's fingerprint and,
// in INT mode, its int given.
func (t *KeyTable) insert(rows []Row, i int, cols []int, fp uint32, x int64) (int, bool) {
	if 2*(len(t.firsts)+1) > len(t.slots) {
		t.grow()
	}
	r := rows[i]
	mask := len(t.slots) - 1
	for s := int(fp>>t.shift) & mask; ; s = (s + 1) & mask {
		slot := t.slots[s]
		if slot == 0 {
			id := len(t.firsts)
			t.slots[s] = uint64(fp)<<32 | uint64(id+1)
			t.firsts = append(t.firsts, int32(i))
			if !t.generic {
				t.ints = append(t.ints, x)
			}
			return id, true
		}
		if uint32(slot>>32) == fp {
			id := int(uint32(slot)) - 1
			if t.generic && sameKey(rows[t.firsts[id]], cols, r, cols) || !t.generic && t.ints[id] == x {
				return id, false
			}
		}
	}
}

// findAll replaces each probe's fingerprint in fps with its key's id,
// or -1. The table is not empty.
func (t *KeyTable) findAll(fps []int32, rows []Row, cols []int, probes []Row, probe []int) {
	mask := len(t.slots) - 1
	for j, r := range probes {
		fp := uint32(fps[j])
		fps[j] = -1
		var x int64
		if !t.generic {
			var ok bool
			if x, ok = intKey(&r[probe[0]]); !ok {
				continue
			}
		}
		for s := int(fp>>t.shift) & mask; ; s = (s + 1) & mask {
			slot := t.slots[s]
			if slot == 0 {
				break
			}
			if uint32(slot>>32) != fp {
				continue
			}
			id := int(uint32(slot)) - 1
			if t.generic && sameKey(rows[t.firsts[id]], cols, r, probe) || !t.generic && t.ints[id] == x {
				fps[j] = int32(id)
				break
			}
		}
	}
}

// intKey returns the INT an INT-mode probe can match: an INT's own, or
// the INT a FLOAT is the exact image of. Nothing else is Identical to an
// INT.
func intKey(v *Value) (int64, bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		const twoTo63 = 9223372036854775808.0
		if f := v.F; f >= -twoTo63 && f < twoTo63 && float64(int64(f)) == f {
			return int64(f), true
		}
	}
	return 0, false
}

// leaveIntMode re-slots every key by its Row.Hash, read from its first
// row in rows at cols.
func (t *KeyTable) leaveIntMode(rows []Row, cols []int) {
	t.generic = true
	t.storage().Drop(nil, nil, t.ints)
	t.ints = nil
	clear(t.slots)
	mask := len(t.slots) - 1
	for id, i := range t.firsts {
		fp := t.fingerprint(rows[i].Hash(cols))
		s := int(fp>>t.shift) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = uint64(fp)<<32 | uint64(id+1)
	}
}

// grow doubles the slot array and re-slots every key by its fingerprint.
// The per-id arrays grow with it, to room for as many ids as the slots
// can take before the next doubling, so appending to them never
// reallocates. The outgrown arrays go back to the storage.
func (t *KeyTable) grow() {
	store := t.storage()
	old, firsts, ints := t.slots, t.firsts, t.ints
	n := max(64, 2*len(old))
	t.slots = store.Slots(n)
	t.shift = uint8(32 - bits.TrailingZeros(uint(n)))
	t.firsts = append(store.Int32s(n/2), firsts...)
	if !t.generic {
		t.ints = append(store.Int64s(n/2), ints...)
	}
	mask := n - 1
	for _, slot := range old {
		if slot == 0 {
			continue
		}
		s := int(uint32(slot>>32)>>t.shift) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = slot
	}
	store.Drop(old, firsts, ints)
}

func (t *KeyTable) storage() KeyStorage {
	if t.Storage == nil {
		return makeStorage{}
	}
	return t.Storage
}

// makeStorage is the KeyStorage of a table without one: plain makes,
// which the GC reclaims once outgrown.
type makeStorage struct{}

func (makeStorage) Slots(n int) []uint64            { return make([]uint64, n) }
func (makeStorage) Int32s(n int) []int32            { return make([]int32, 0, n) }
func (makeStorage) Int64s(n int) []int64            { return make([]int64, 0, n) }
func (makeStorage) Drop([]uint64, []int32, []int64) {}

// fingerprint mixes a hash, or an INT-mode key, into 32 well-spread bits
// (Fibonacci hashing: the top half of a multiply by 2^64/φ), which also
// make sequential ints land far apart.
func (t *KeyTable) fingerprint(h uint64) uint32 {
	return uint32((h*0x9E3779B97F4A7C15)>>32) | t.collide
}

// sameKey reports whether a's columns ac are Identical to b's columns
// bc. Values of one integer-like or string kind compare directly;
// every other pair takes Identical.
func sameKey(a Row, ac []int, b Row, bc []int) bool {
	for j, c := range ac {
		x, y := &a[c], &b[bc[j]]
		if x.K == y.K {
			switch x.K {
			case KindInt, KindDate, KindBool:
				if x.I != y.I {
					return false
				}
				continue
			case KindString:
				if x.S != y.S {
					return false
				}
				continue
			}
		}
		if !Identical(*x, *y) {
			return false
		}
	}
	return true
}

func hasNull(r Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// Cluster lays rows out key by key, a stable counting sort on their ids:
// the rows are the concatenation of the row chunks, their ids that of
// the id chunks, chunk for chunk the same lengths, and a row's id is its
// key in [0, keys), or negative for a row to leave out. It returns the
// laid-out rows and the bounds: key k's rows are
// laid[bounds[k]:bounds[k+1]], in input order. Only row headers move; the
// storage of dst and of the bounds passed in is reused when large enough.
func Cluster(dst []Row, bounds []int, keys int, ids [][]int32, rows [][]Row) ([]Row, []int) {
	if cap(bounds) < keys+1 {
		bounds = make([]int, keys+1)
	} else {
		bounds = bounds[:keys+1]
		clear(bounds)
	}
	for _, c := range ids {
		for _, id := range c {
			if id >= 0 {
				bounds[id+1]++
			}
		}
	}
	for k := 0; k < keys; k++ {
		bounds[k+1] += bounds[k]
	}
	n := bounds[keys]
	if cap(dst) < n {
		dst = make([]Row, n)
	}
	dst = dst[:n]
	// bounds[k] is key k's next free position; once every row is placed
	// it is key k's end, so shifting by one restores the starts.
	for k, c := range rows {
		for i, id := range ids[k][:len(c)] {
			if id >= 0 {
				dst[bounds[id]] = c[i]
				bounds[id]++
			}
		}
	}
	copy(bounds[1:], bounds[:keys])
	bounds[0] = 0
	return dst, bounds
}
