package simcache

// A shard files its slots in keyless open-addressed tables: each table is a
// power-of-two []slot of cells holding slot+1, so zero means empty (and an
// empty cell minus one is none), with linear probing from a key's home cell mix64(key) & mask. A cell stores no
// key; a probe checks a candidate against the slot's own state (its content
// hash, or the band key recomputed from its signature words). Tables are
// sized to at least twice the shard's capacity, so they are never more than
// half full and probe runs stay short. Deletion shifts the rest of the run
// back instead of leaving a tombstone, so a table never degrades with churn.

// tableCells returns the cell count of a shard's tables: the smallest power
// of two at least twice the shard capacity.
func tableCells(capacity int) int {
	n := 2
	for n < 2*capacity {
		n *= 2
	}
	return n
}

// home returns key's home cell in a table with the given mask.
func home(key, mask uint64) int {
	return int(mix64(key) & mask)
}

// tablePut stores slot i in the first empty cell of the probe run from h.
// The table must have an empty cell, which a half-full table always has.
func tablePut(t []slot, h int, i slot) {
	mask := len(t) - 1
	for t[h] != 0 {
		h = (h + 1) & mask
	}
	t[h] = i + 1
}

// tableCell returns the cell holding slot i in the probe run from h, or -1
// when the run ends without it.
func tableCell(t []slot, h int, i slot) int {
	mask := len(t) - 1
	for ; t[h] != 0; h = (h + 1) & mask {
		if t[h] == i+1 {
			return h
		}
	}
	return -1
}

// tableDelete empties cell pos and closes the gap: each later cell of the
// run moves back into the hole unless that would put it before its home,
// so every remaining slot stays reachable from its home without crossing
// an empty cell. homeOf returns a stored slot's home cell.
func tableDelete(t []slot, pos int, homeOf func(i slot) int) {
	mask := len(t) - 1
	hole := pos
	for j := (pos + 1) & mask; t[j] != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole when the hole lies cyclically
		// within [home, j), that is, no farther back from j than its home.
		if h := homeOf(t[j] - 1); (j-h)&mask >= (j-hole)&mask {
			t[hole] = t[j]
			hole = j
		}
	}
	t[hole] = 0
}
