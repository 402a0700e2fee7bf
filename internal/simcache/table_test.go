package simcache

import "testing"

func TestTableCells(t *testing.T) {
	for _, tc := range []struct{ capacity, want int }{
		{1, 2}, {2, 4}, {3, 8}, {8, 16}, {9, 32}, {8192, 16384},
	} {
		if got := tableCells(tc.capacity); got != tc.want {
			t.Errorf("tableCells(%d) = %d, want %d", tc.capacity, got, tc.want)
		}
	}
}

// TestTableWrapAroundDeletes files slots whose homes crowd the end of a
// 16-cell table, so their probe run wraps past the last cell to the first,
// then deletes them in every order. After each deletion every remaining slot
// must still be found from its home, the deleted one must be gone, and the
// run must stay contiguous: exactly the remaining slots' cells are occupied.
func TestTableWrapAroundDeletes(t *testing.T) {
	homes := []int{14, 15, 14, 0, 15, 13, 1}
	homeOf := func(i slot) int { return homes[i] }
	var filled [16]slot
	for i, h := range homes {
		tablePut(filled[:], h, slot(i))
	}
	// The run starts at cell 13 and wraps: 13 through 15, then 0 through 3.
	if filled[13] == 0 || filled[15] == 0 || filled[0] == 0 || filled[3] == 0 || filled[4] != 0 {
		t.Fatalf("probe run does not wrap as laid out: %v", filled)
	}

	orders := 0
	permute(len(homes), func(order []int) {
		orders++
		table := filled
		live := map[slot]bool{}
		for i := range homes {
			live[slot(i)] = true
		}
		for step, victim := range order {
			i := slot(victim)
			pos := tableCell(table[:], homes[i], i)
			if pos < 0 {
				t.Fatalf("order %v step %d: slot %d not found before its deletion", order, step, i)
			}
			tableDelete(table[:], pos, homeOf)
			delete(live, i)
			if tableCell(table[:], homes[i], i) >= 0 {
				t.Fatalf("order %v step %d: slot %d still found after its deletion", order, step, i)
			}
			for j := range live {
				if tableCell(table[:], homes[j], j) < 0 {
					t.Fatalf("order %v step %d: slot %d cut off from its home %d: %v", order, step, j, homes[j], table)
				}
			}
			if n := occupied(table[:]); n != len(live) {
				t.Fatalf("order %v step %d: %d occupied cells for %d slots", order, step, n, len(live))
			}
		}
	})
	if orders != 5040 {
		t.Fatalf("tried %d deletion orders, want 7! = 5040", orders)
	}
}

// permute calls fn with every permutation of 0..n-1, reusing one slice.
func permute(n int, fn func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(p)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
}
