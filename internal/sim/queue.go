package sim

import (
	"math"
	"math/bits"
)

// The pending-event queue: a time wheel in front of two heaps. The package
// comment gives the three stages and the ordering argument; this file is
// the mechanism.

// stage names the container that holds a pending slot.
type stage uint8

const (
	inNone  stage = iota // fired, canceled or never scheduled
	inNear               // near heap: bucket cur or earlier
	inWheel              // a bucket of the wheel: tick in (cur, cur+buckets)
	inFar                // far heap: tick ≥ cur+buckets
)

// slot is the queue's bookkeeping for one slab entry, kept in a dense array
// beside the slab so that sifting and unlinking touch 16-byte records
// instead of 64-byte events.
type slot struct {
	pos        int32 // index in the near/far heap, or the bucket in the wheel
	next, prev int32 // bucket list links (wheel only); -1 terminates
	in         stage
}

// entry is one heap element. The key rides inline so a compare reads the
// heap array alone; seq is fetched from the slab only on an exact time tie.
type entry struct {
	at Time
	id int32
}

const (
	// minBuckets is one bitmap word. maxBuckets bounds growth, so after a
	// transient burst an advance scans at most maxBuckets/64 bitmap words.
	minBuckets = 64
	maxBuckets = 1 << 12
	// maxTick clamps the time→tick map: float64 values ≥ 2⁶⁴ convert to an
	// unspecified uint64, and cur+buckets must not wrap.
	maxTick = 1 << 62
)

// QueueStats counts where scheduled events were filed and what the wheel
// handed to the near heap. Reset zeroes the counters; Buckets is the wheel's
// current size (0 until a lookahead is set) and survives Reset.
type QueueStats struct {
	// FiledNear, FiledWheel and FiledFar count ScheduleData calls by the
	// stage the event entered first.
	FiledNear, FiledWheel, FiledFar uint64
	// BucketsLoaded counts non-empty buckets moved into the near heap, and
	// EntriesLoaded the events they held.
	BucketsLoaded, EntriesLoaded uint64
	Buckets                      int
}

// QueueStats returns the queue counters.
func (e *Engine) QueueStats() QueueStats {
	s := e.stats
	s.Buckets = len(e.head)
	return s
}

// SetLookahead sets the span of simulated time the wheel covers ahead of
// the clock: events due within span are filed in O(1), later ones go through
// the far heap. Firing order does not depend on it. transport.Network passes
// the delay bound d (plus a margin), so every delivery stays inside the
// window; span ≤ 0 (the default) switches the wheel off and every event
// files near. Whatever is pending is re-filed; a repeated value is a no-op.
func (e *Engine) SetLookahead(span float64) {
	if !(span > 0 && span <= math.MaxFloat64) { // also NaN and +Inf
		span = 0
	}
	if span == e.span {
		return
	}
	buckets := len(e.head)
	if buckets == 0 {
		buckets = minBuckets
	}
	e.setGeometry(buckets, span)
}

// setGeometry installs a bucket count and span and re-files every pending
// event under the new time→tick map.
func (e *Engine) setGeometry(buckets int, span float64) {
	stats := e.stats
	chain := e.unfileAll()
	if buckets != len(e.head) {
		e.head = make([]int32, buckets)
		for i := range e.head {
			e.head[i] = -1
		}
		e.occ = make([]uint64, buckets/64)
	}
	e.span, e.scale = span, 0
	if span > 0 {
		e.scale = float64(buckets) / span
	}
	e.cur = e.tick(e.now)
	for id := chain; id >= 0; {
		next := e.slots[id].next
		e.place(id, e.events[id].at)
		id = next
	}
	e.stats = stats // re-filing is not scheduling
}

// unfileAll empties the three stages and returns the slots they held,
// chained through slot.next (-1 terminates).
func (e *Engine) unfileAll() int32 {
	chain := int32(-1)
	for _, h := range [2][]entry{e.near, e.far} {
		for _, x := range h {
			e.slots[x.id].next = chain
			chain = x.id
		}
	}
	e.near, e.far = e.near[:0], e.far[:0]
	if e.wheelN == 0 {
		return chain
	}
	for w, word := range e.occ {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			for id := e.head[b]; id >= 0; {
				next := e.slots[id].next
				e.slots[id].next = chain
				chain = id
				id = next
			}
			e.head[b] = -1
		}
		e.occ[w] = 0
	}
	e.wheelN = 0
	return chain
}

// tick maps a time to its bucket number. It is monotone in t — the one
// property the firing order rests on. NaN (0·Inf under a denormal span)
// clamps with the huge values; −0.0 converts to 0.
func (e *Engine) tick(t Time) uint64 {
	x := t * e.scale
	if !(x < maxTick) {
		return maxTick
	}
	return uint64(x)
}

// place files slot id, due at time at, in the stage its tick selects.
func (e *Engine) place(id int32, at Time) {
	tk := e.tick(at)
	switch {
	case tk <= e.cur:
		e.stats.FiledNear++
		e.heapPush(&e.near, entry{at, id}, inNear)
	case tk-e.cur < uint64(len(e.head)):
		e.stats.FiledWheel++
		e.link(id, tk)
	default:
		e.stats.FiledFar++
		e.heapPush(&e.far, entry{at, id}, inFar)
	}
}

// link puts slot id at the head of the bucket of tick tk.
func (e *Engine) link(id int32, tk uint64) {
	b := int32(tk & uint64(len(e.head)-1))
	first := e.head[b]
	e.slots[id] = slot{pos: b, next: first, prev: -1, in: inWheel}
	if first >= 0 {
		e.slots[first].prev = id
	} else {
		e.occ[b>>6] |= 1 << (b & 63)
	}
	e.head[b] = id
	e.wheelN++
}

// unlink takes slot id out of its bucket.
func (e *Engine) unlink(id int32) {
	s := e.slots[id]
	if s.next >= 0 {
		e.slots[s.next].prev = s.prev
	}
	if s.prev >= 0 {
		e.slots[s.prev].next = s.next
	} else {
		e.head[s.pos] = s.next
		if s.next < 0 {
			e.occ[s.pos>>6] &^= 1 << (s.pos & 63)
		}
	}
	e.wheelN--
}

// grow doubles the wheel once it holds more than two entries per bucket,
// like a hash table; it never shrinks, and Reset keeps the size.
func (e *Engine) grow() {
	if n := len(e.head); e.wheelN > 2*n && n < maxBuckets {
		e.setGeometry(2*n, e.span)
	}
}

// advance turns the wheel to the next pending tick and loads that bucket
// into the empty near heap. It reports false when nothing is pending.
//
// Far entries lie at cur+buckets or later and wheel entries before that, so
// the far heap decides the next tick only when the wheel is empty. A tick
// maps to exactly one bucket and a bucket holds exactly one tick.
func (e *Engine) advance() bool {
	switch {
	case e.wheelN > 0:
		e.cur = e.nextTick()
	case len(e.far) > 0:
		e.cur = e.tick(e.far[0].at)
	default:
		return false
	}
	buckets := uint64(len(e.head))
	for len(e.far) > 0 {
		x := e.far[0]
		tk := e.tick(x.at)
		if tk-e.cur >= buckets {
			break
		}
		e.heapRemove(&e.far, 0)
		if tk == e.cur {
			e.heapPush(&e.near, x, inNear)
		} else {
			e.link(x.id, tk)
		}
	}
	b := e.cur & (buckets - 1)
	id := e.head[b]
	if id < 0 {
		return true
	}
	n := 0
	for ; id >= 0; n++ {
		next := e.slots[id].next
		e.heapPush(&e.near, entry{e.events[id].at, id}, inNear)
		id = next
	}
	e.head[b] = -1
	e.occ[b>>6] &^= 1 << (b & 63)
	e.wheelN -= n
	e.stats.BucketsLoaded++
	e.stats.EntriesLoaded += uint64(n)
	return true
}

// nextTick returns the tick of the first occupied bucket after cur. The
// wheel must hold an entry. Bucket cur&mask itself is always empty (tick
// cur files near, tick cur+buckets far), so the scan may wrap onto it.
func (e *Engine) nextTick() uint64 {
	mask := uint64(len(e.head) - 1)
	words := uint64(len(e.occ))
	from := (e.cur + 1) & mask
	w := from >> 6
	word := e.occ[w] & (^uint64(0) << (from & 63))
	for word == 0 {
		w = (w + 1) & (words - 1)
		word = e.occ[w]
	}
	b := w<<6 | uint64(bits.TrailingZeros64(word))
	return e.cur + 1 + (b-from)&mask
}

// before orders heap entries by (at, seq).
func (e *Engine) before(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return e.events[a.id].seq < e.events[b.id].seq
}

// heapPush inserts x into the 4-ary min-heap *h and marks its slot.
func (e *Engine) heapPush(h *[]entry, x entry, in stage) {
	*h = append(*h, x)
	e.slots[x.id].in = in
	e.siftUp(*h, len(*h)-1, x)
}

// heapRemove deletes the entry at index i of *h; the caller owns the
// removed slot's next state.
func (e *Engine) heapRemove(h *[]entry, i int) {
	last := len(*h) - 1
	x := (*h)[last]
	*h = (*h)[:last]
	if i == last {
		return
	}
	if i > 0 && e.before(x, (*h)[(i-1)>>2]) {
		e.siftUp(*h, i, x)
	} else {
		e.siftDown(*h, i, x)
	}
}

// siftUp moves the hole at index i toward the root until x fits, then
// stores x: one write per level instead of a swap.
func (e *Engine) siftUp(h []entry, i int, x entry) {
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.before(x, h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slots[h[i].id].pos = int32(i)
		i = parent
	}
	h[i] = x
	e.slots[x.id].pos = int32(i)
}

// siftDown moves the hole at index i toward the leaves until x fits.
func (e *Engine) siftDown(h []entry, i int, x entry) {
	for {
		child := 4*i + 1
		if child >= len(h) {
			break
		}
		least := child
		for j := child + 1; j < min(child+4, len(h)); j++ {
			if e.before(h[j], h[least]) {
				least = j
			}
		}
		if !e.before(h[least], x) {
			break
		}
		h[i] = h[least]
		e.slots[h[i].id].pos = int32(i)
		i = least
	}
	h[i] = x
	e.slots[x.id].pos = int32(i)
}
