package graph

import "testing"

// TestIndex: every ID put is found with its value, whether the IDs are
// dense, sparse, negative or colliding modulo the table size; an ID never
// put reads -1, and a repeated Put is refused without changing the value.
func TestIndex(t *testing.T) {
	for _, ids := range [][]NodeID{
		{},
		{0, 1, 2, 3, 4, 5, 6},
		{1000, 7, 64, 128, 1 << 40, 3},
		{5, 21, 37, 53, -11}, // equal mod 16: every probe after the first collides
	} {
		x := NewIndex(len(ids))
		for i, id := range ids {
			if !x.Put(id, int32(i)) {
				t.Fatalf("%v: Put(%d) refused a new ID", ids, id)
			}
		}
		for i, id := range ids {
			if got := x.Get(id); got != int32(i) {
				t.Errorf("%v: Get(%d) = %d, want %d", ids, id, got, i)
			}
			if x.Put(id, 99) || x.Get(id) != int32(i) {
				t.Errorf("%v: a second Put(%d) was accepted or changed the value", ids, id)
			}
		}
		for _, id := range []NodeID{-1, 2, 8, 69, 1<<40 + 1} {
			found := false
			for _, put := range ids {
				found = found || put == id
			}
			if got := x.Get(id); !found && got != -1 {
				t.Errorf("%v: Get(%d) = %d for an ID never put, want -1", ids, id, got)
			}
		}
	}
}
