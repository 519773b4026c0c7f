package types

import "math/bits"

// KeyTable is the engine's one hash kernel. It assigns dense ids, in
// first-appearance order, to the distinct keys of a sequence of rows, a
// key being a row's values at a list of column ordinals. Hash joins, hash
// grouping, DISTINCT (rows and aggregate arguments), GApply's hash
// partition and the statistics collector all key through it.
//
// It is open addressing with linear probing over the key's 64-bit
// Row.Hash. A hit is confirmed column by column with Identical against
// the id's first row, so colliding keys never merge, and Identical keys
// always do: INT 2 and FLOAT 2.0, -0.0 and +0.0, every NaN payload, while
// 2^53 and 2^53+1 stay apart. Rows are named by their index in a slice
// the caller owns; the table keeps, per id, only the index of the id's
// first row, so that row must stay at its index while the table is in
// use.
//
// The zero value is an empty table in grouping mode, where NULLs are
// Identical and form one key.
type KeyTable struct {
	// Join selects join mode: a key with a NULL column is never inserted
	// or found, because predicate equality never matches NULL.
	Join bool

	// slots holds, per occupied slot, the key's fingerprint in the high
	// 32 bits and its id + 1 in the low 32; 0 marks an empty slot. A
	// key's home slot is the top bits of its fingerprint (shift is 32
	// minus log2 of the slot count), so growing re-slots the keys from
	// their fingerprints alone.
	slots  []uint64
	shift  uint8
	firsts []int32 // per id: the index of its first row
}

// Reset empties the table, keeping its storage and mode.
func (t *KeyTable) Reset() {
	clear(t.slots)
	t.firsts = t.firsts[:0]
}

// Len returns the number of keys.
func (t *KeyTable) Len() int { return len(t.firsts) }

// Insert returns the id of the key rows[i] holds at cols, adding the key
// with the next id when it is new. In join mode a key with a NULL column
// gets id -1 and is not added.
func (t *KeyTable) Insert(rows []Row, i int, cols []int) (id int, isNew bool) {
	if t.Join && hasNull(rows[i], cols) {
		return -1, false
	}
	return t.insert(rows, i, cols, rows[i].Hash(cols))
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
// as none was inserted. The lookups run in two passes, hashing every
// probe and then walking every chain, so the memory loads of one probe's
// chain overlap those of the next instead of waiting behind its hashing.
func (t *KeyTable) FindAll(ids []int32, rows []Row, cols []int, probes []Row, probe []int) []int32 {
	start := len(ids)
	for _, r := range probes {
		ids = append(ids, int32(fingerprint(r.Hash(probe))))
	}
	t.findAll(ids[start:], rows, cols, probes, probe)
	return ids
}

// insert is Insert with the key's hash given, so a test can force every
// key into one probe chain.
func (t *KeyTable) insert(rows []Row, i int, cols []int, h uint64) (int, bool) {
	if 2*(len(t.firsts)+1) > len(t.slots) {
		t.grow()
	}
	fp := fingerprint(h)
	r := rows[i]
	mask := len(t.slots) - 1
	for s := int(fp>>t.shift) & mask; ; s = (s + 1) & mask {
		slot := t.slots[s]
		if slot == 0 {
			id := len(t.firsts)
			t.slots[s] = uint64(fp)<<32 | uint64(id+1)
			t.firsts = append(t.firsts, int32(i))
			return id, true
		}
		if uint32(slot>>32) == fp {
			if id := int(uint32(slot)) - 1; sameKey(rows[t.firsts[id]], cols, r, cols) {
				return id, false
			}
		}
	}
}

// findAll replaces each probe's fingerprint in fps with its key's id,
// or -1; a test can pass one fingerprint for every probe.
func (t *KeyTable) findAll(fps []int32, rows []Row, cols []int, probes []Row, probe []int) {
	mask := len(t.slots) - 1
	for j, r := range probes {
		fp := uint32(fps[j])
		fps[j] = -1
		if len(t.firsts) == 0 {
			continue
		}
		for s := int(fp>>t.shift) & mask; ; s = (s + 1) & mask {
			slot := t.slots[s]
			if slot == 0 {
				break
			}
			if uint32(slot>>32) == fp {
				if id := int(uint32(slot)) - 1; sameKey(rows[t.firsts[id]], cols, r, probe) {
					fps[j] = int32(id)
					break
				}
			}
		}
	}
}

// grow doubles the slot array and re-slots every key by its fingerprint.
func (t *KeyTable) grow() {
	old := t.slots
	n := max(64, 2*len(old))
	t.slots = make([]uint64, n)
	t.shift = uint8(32 - bits.TrailingZeros(uint(n)))
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
}

// fingerprint mixes the hash into 32 well-spread bits (Fibonacci
// hashing: the top half of a multiply by 2^64/φ). Row.Hash alone is a
// poor slot index: it ends every value with a multiply, whose low bits
// see only the low bits of what it mixed in, and small integers hash
// through float64 images whose low bytes are all zero.
func fingerprint(h uint64) uint32 { return uint32((h * 0x9E3779B97F4A7C15) >> 32) }

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
