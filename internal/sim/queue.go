package sim

import (
	"math"
	"math/bits"
)

// The pending-event queue: two time wheels, a fine and a coarse one, in
// front of two heaps. The package comment gives the four stages and the
// ordering argument; this file is the mechanism.

// stage names the container that holds a pending slot.
type stage uint8

const (
	inNone   stage = iota // fired, canceled or never scheduled
	inNear                // near heap: bucket cur or earlier
	inWheel               // a bucket of the fine wheel: tick in (cur, cur+buckets)
	inCoarse              // a coarse bucket: period in (cur's, cur's + 64)
	inFar                 // far heap: period ≥ cur's + 64
)

// slot is the queue's bookkeeping for one slab entry, kept in a dense array
// beside the slab so that sifting and unlinking touch 16-byte records
// instead of 64-byte events.
type slot struct {
	pos        int32 // index in the near/far heap, or the bucket in head
	next, prev int32 // bucket list links (wheels only); -1 terminates
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
	// coarseBuckets is the coarse wheel's size, one bitmap word: it covers
	// 64 periods of one fine span each.
	coarseBuckets = 64
	// maxTick clamps the time→tick map: float64 values ≥ 2⁶⁴ convert to an
	// unspecified uint64, and the coarse window's end must not wrap.
	maxTick = 1 << 62
)

// QueueStats counts where scheduled events were filed and what the fine
// wheel handed to the near heap. Reset zeroes the counters; Buckets is the
// fine wheel's current size (0 until a lookahead is set) and survives Reset.
type QueueStats struct {
	// FiledNear, FiledWheel, FiledCoarse and FiledFar count ScheduleData
	// calls by the stage the event entered first.
	FiledNear, FiledWheel, FiledCoarse, FiledFar uint64
	// BucketsLoaded counts non-empty buckets moved into the near heap, and
	// EntriesLoaded the events they held.
	BucketsLoaded, EntriesLoaded uint64
	Buckets                      int
}

// QueueStats returns the queue counters.
func (e *Engine) QueueStats() QueueStats {
	s := e.stats
	s.Buckets = e.buckets()
	return s
}

// buckets returns the fine wheel's size; head and occ hold the coarse
// wheel's heads and bitmap word after the fine wheel's.
func (e *Engine) buckets() int {
	return max(len(e.head)-coarseBuckets, 0)
}

// SetLookahead sets the span of simulated time the fine wheel covers ahead
// of the clock: events due within span are filed in O(1), and so are those
// within 64 spans, in the coarse wheel; later ones go through the far heap.
// Firing order does not depend on it. transport.Network passes
// the delay bound d (plus a margin), so every delivery stays inside the
// fine window; span ≤ 0 (the default) switches the wheels off and every
// event files near. Whatever is pending is re-filed; a repeated value is a no-op.
func (e *Engine) SetLookahead(span float64) {
	if !(span > 0 && span <= math.MaxFloat64) { // also NaN and +Inf
		span = 0
	}
	if span == e.span {
		return
	}
	buckets := e.buckets()
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
	if buckets != e.buckets() {
		e.head = make([]int32, buckets+coarseBuckets)
		for i := range e.head {
			e.head[i] = -1
		}
		e.occ = make([]uint64, (buckets+coarseBuckets)/64)
	}
	e.span, e.scale = span, 0
	if span > 0 {
		e.scale = float64(buckets) / span
	}
	e.setCur(e.tick(e.now))
	for id := chain; id >= 0; {
		next := e.slots[id].next
		e.place(id, e.events[id].at)
		id = next
	}
	e.stats = stats // re-filing is not scheduling
}

// setCur moves cur to tick tk and edge to the first tick of the next
// period. A period is one fine wheel's worth of ticks — one span — and the
// bucket count is a power of two, so a tick's period is tk >> shift.
func (e *Engine) setCur(tk uint64) {
	e.cur = tk
	e.edge = (tk | uint64(e.buckets()-1)) + 1
}

// shift is log₂ of the fine wheel's size.
func (e *Engine) shift() int {
	return bits.TrailingZeros(uint(len(e.head) - coarseBuckets))
}

// unfileAll empties the four stages and returns the slots they held,
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
	if e.wheelN+e.coarseN == 0 {
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
	e.wheelN, e.coarseN = 0, 0
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
	buckets := uint64(len(e.head) - coarseBuckets)
	switch {
	case tk <= e.cur:
		e.stats.FiledNear++
		e.heapPush(&e.near, entry{at, id}, inNear)
	case tk-e.cur < buckets:
		e.stats.FiledWheel++
		e.link(id, int32(tk&(buckets-1)), inWheel)
		e.wheelN++
	case tk-e.edge < (coarseBuckets-1)*buckets: // period < cur's + 64
		e.stats.FiledCoarse++
		e.link(id, int32(buckets+(tk>>e.shift())%coarseBuckets), inCoarse)
		e.coarseN++
	default:
		e.stats.FiledFar++
		e.heapPush(&e.far, entry{at, id}, inFar)
	}
}

// link puts slot id at the head of bucket b of head, in stage in.
func (e *Engine) link(id int32, b int32, in stage) {
	first := e.head[b]
	e.slots[id] = slot{pos: b, next: first, prev: -1, in: in}
	if first >= 0 {
		e.slots[first].prev = id
	} else {
		e.occ[b>>6] |= 1 << (b & 63)
	}
	e.head[b] = id
}

// unlink takes slot id out of its bucket; the caller keeps the count.
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
}

// grow doubles the fine wheel once it holds more than two entries per
// bucket, like a hash table; it never shrinks, and Reset keeps the size.
// The coarse wheel keeps its 64 buckets: a period is one span whatever the
// bucket count.
func (e *Engine) grow() {
	if n := e.buckets(); e.wheelN > 2*n && n < maxBuckets {
		e.setGeometry(2*n, e.span)
	}
}

// advance moves cur to the next pending tick and loads that bucket into
// the empty near heap. It reports false when nothing is pending.
//
// Every entry outside the near heap lies after cur, and coarse and far
// entries lie in a later period than cur's, so while the fine wheel's next
// tick is before edge it is the next tick of all: one compare. Otherwise
// cascade moves cur to the start of the next period that holds an entry and
// re-files into the fine wheel what that period holds. A tick maps to
// exactly one fine bucket and a fine bucket holds exactly one tick.
func (e *Engine) advance() bool {
	for {
		next := uint64(math.MaxUint64)
		if e.wheelN > 0 {
			next = e.nextTick()
		}
		if next < e.edge {
			e.cur = next
		} else if !e.cascade(next) {
			return false
		}
		// After a cascade, bucket cur may hold fine entries filed before it
		// (nextTick scans from cur+1, so it is loaded first) or none at all.
		// The cascade may have filed tick cur near; if not, the fine wheel
		// holds what comes next and the loop turns on.
		b := e.cur & uint64(len(e.head)-coarseBuckets-1)
		id := e.head[b]
		if id < 0 {
			if len(e.near) > 0 {
				return true
			}
			continue
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
}

// cascade moves cur to the first tick of the least period q that holds a
// fine, coarse or far entry; next is the fine wheel's next tick (MaxUint64
// when it is empty). It re-files coarse bucket q and every far entry now
// inside the coarse window, and reports false when those three stages are
// empty. Coarse bucket q&63 ends empty, and stays so while cur is in q.
func (e *Engine) cascade(next uint64) bool {
	if e.wheelN == 0 && e.coarseN == 0 && len(e.far) == 0 {
		return false
	}
	shift := e.shift()
	q := next >> shift
	if e.coarseN > 0 {
		// cur's own coarse bucket is empty, so a scan of the one word from
		// the next period on finds the least coarse period exactly.
		from := e.edge >> shift
		word := bits.RotateLeft64(e.occ[len(e.occ)-1], -int(from%coarseBuckets))
		q = min(q, from+uint64(bits.TrailingZeros64(word)))
	}
	if len(e.far) > 0 {
		q = min(q, e.tick(e.far[0].at)>>shift)
	}
	e.setCur(q << shift)
	stats := e.stats
	b := len(e.head) - coarseBuckets + int(q%coarseBuckets)
	id := e.head[b]
	e.head[b] = -1
	e.occ[b>>6] &^= 1 << (b & 63)
	for id >= 0 {
		next := e.slots[id].next
		e.coarseN--
		e.place(id, e.events[id].at)
		id = next
	}
	for len(e.far) > 0 {
		x := e.far[0]
		if e.tick(x.at)>>shift-q >= coarseBuckets {
			break
		}
		e.heapRemove(&e.far, 0)
		e.place(x.id, x.at)
	}
	e.stats = stats // re-filing is not scheduling
	return true
}

// nextTick returns the tick of the first occupied fine bucket after cur.
// The fine wheel must hold an entry. Bucket cur&mask itself is empty once
// loaded (tick cur files near, tick cur+buckets beyond the fine wheel), so
// the scan may wrap onto it.
func (e *Engine) nextTick() uint64 {
	mask := uint64(len(e.head) - coarseBuckets - 1)
	words := uint64(len(e.occ) - 1)
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
