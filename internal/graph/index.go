package graph

import "math/bits"

// Index maps a fixed set of node IDs to small non-negative integers — the
// NodeID → sender lookup a protocol instance makes on every pulse it
// receives. It is an open-addressed table (linear probing from id&mask,
// under half full), so IDs need not be contiguous, and when they are no
// probe collides. NewIndex allocates; Put and Get do not.
type Index struct {
	slots []indexSlot
}

// indexSlot is one table entry; val holds the value + 1, so 0 marks an
// empty slot.
type indexSlot struct {
	id  NodeID
	val int32
}

// NewIndex returns an empty index with room for n IDs.
func NewIndex(n int) Index {
	return Index{slots: make([]indexSlot, 2<<bits.Len(uint(n)))} // a power of two > 2n
}

// probe returns the position of id's slot, or of the empty one where the
// probe for it ends.
func (x Index) probe(id NodeID) int {
	mask := len(x.slots) - 1
	h := id & mask
	for s := x.slots[h]; s.val != 0 && s.id != id; s = x.slots[h] {
		h = (h + 1) & mask
	}
	return h
}

// Put maps id to v ≥ 0 and reports true, or reports false and changes
// nothing when id is already present. At most the n IDs NewIndex was sized
// for may be put.
func (x Index) Put(id NodeID, v int32) bool {
	h := x.probe(id)
	if x.slots[h].val != 0 {
		return false
	}
	x.slots[h] = indexSlot{id: id, val: v + 1}
	return true
}

// Get returns the value id maps to, or -1 when id was never put.
func (x Index) Get(id NodeID) int32 {
	return x.slots[x.probe(id)].val - 1
}
