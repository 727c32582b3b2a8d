// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a priority queue of timed events over a continuous
// (float64) Newtonian timeline. Events scheduled for the same instant are
// executed in insertion order, which — together with seeded random number
// streams (see rng.go) — makes every simulation run bit-for-bit
// reproducible for a given seed.
//
// All clock synchronization experiments in this repository run on top of
// this engine: node pulses, phase transitions, drift-model rate changes and
// metric samplers are all events.
//
// Events live in a slab of pooled structs with an embedded free list: in
// steady state (events fired ≈ events scheduled) the engine performs zero
// heap allocations per event. Handles are generation-counted so Cancel on a
// recycled slot is safe.
//
// # The queue
//
// Pending events wait in four stages with one firing order, (at, seq):
//
//   - the near heap, a 4-ary min-heap over (at, seq). Events fire from its
//     root and from nowhere else;
//   - the fine wheel, an array of time buckets (intrusive doubly linked
//     lists, an occupancy bitmap) covering the ticks after the current one,
//     cur. Filing and canceling are O(1) and compare nothing;
//   - the coarse wheel, 64 more buckets of the same kind, one per period of
//     `buckets` ticks — one span —, for the periods after cur's (round
//     timers);
//   - the far heap, the same heap implementation, for events beyond the
//     coarse wheel's window (samplers, long round timers).
//
// tick(t) = uint64(t · buckets/span) numbers the buckets and the period of
// a tick is tick / buckets. An event with tick ≤ cur files near, one with
// tick − cur < buckets files in fine bucket tick mod buckets, a later one
// whose period is less than 64 periods after cur's in coarse bucket
// period mod 64, anything later files far. When the near heap runs empty
// the wheel turns: while the fine wheel's next occupied tick is in cur's
// period, cur becomes that tick; otherwise cur cascades to the first tick
// of the least period that holds an event, coarse bucket of that period and
// far entries that now fall inside the coarse window are re-filed, and
// fine buckets fill the near heap tick by tick as before.
//
// The ordering argument is two sentences. tick is monotone in t, so every
// entry outside the near heap (tick > cur) is strictly later than every
// entry inside it (tick ≤ cur), and the near heap is a proper heap over
// (at, seq) — hence the root of the near heap is the minimum of everything
// pending, whatever the span and the bucket count are. A period is monotone
// in the tick and every coarse and far entry lies in a later period than
// cur's, so the fine wheel's next tick in cur's period is the next tick of
// all, and a cascade re-files a whole period before any of it is loaded. A
// run that turns the wheel past the clock and then stops at its horizon is
// harmless for the same reason: a later push with tick ≤ cur lands in the
// near heap.
//
// The span is the only input (SetLookahead; transport.Network derives it
// from the delay model's bound d), the fine bucket count sizes itself like a
// hash table and the coarse geometry follows from the fine one. With no span
// every tick is 0 and every event files near: the wheels are an accelerator
// in front of the heap, not a second engine.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Time is a point on the simulated Newtonian timeline, in seconds.
type Time = float64

// Data is the payload of a data-scheduled event (see ScheduleData). It is
// sized so the common simulation payloads — a receiver pointer plus a few
// small integers — fit without boxing: storing a pointer (or func) in Ctx
// and calling a top-level DataFunc allocates nothing.
type Data struct {
	// Ctx carries the receiver (a pointer or func value; pointer-shaped
	// values do not allocate when stored in an interface).
	Ctx any
	// I0, I1, I2 carry small integer payloads (node IDs, kinds, codes).
	I0, I1, I2 int32
}

// DataFunc is the callback of a data-scheduled event. Implementations
// should be top-level functions (not closures) so scheduling stays
// allocation-free.
type DataFunc func(e *Engine, d Data)

// event is one pooled slab entry; dfn is non-nil while the slot is live.
type event struct {
	at   Time
	seq  uint64 // insertion order, breaks time ties deterministically
	dfn  DataFunc
	data Data
	gen  uint32 // bumped on every release; stale Handles never match
}

// Handle identifies a scheduled event so it can be canceled. The zero
// Handle is valid and behaves as an already-canceled event.
type Handle struct {
	eng *Engine
	id  int32
	gen uint32
}

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewEngine.
//
// Cross-goroutine contract: an Engine is single-goroutine for everything
// except Progress, a lock-free snapshot fed by atomic mirrors the event loop
// maintains, which may be taken from any goroutine while a run is in flight.
// The only way to stop a run from outside is to cancel its context.
type Engine struct {
	now Time
	// events is the pooled slab and slots its queue bookkeeping, index for
	// index; free is the stack of recycled slab indices.
	events []event
	slots  []slot
	free   []int32

	// The queue (queue.go): near and far are heaps ordered by (at, seq);
	// head[b] is the first slot of bucket b (-1 when empty) — the fine
	// wheel's buckets, then the 64 coarse ones —, occ has one bit per
	// non-empty bucket, and wheelN and coarseN count the two wheels'
	// entries. cur is the tick the near heap serves and edge the first tick
	// of the next period; scale = buckets/span maps time to ticks and is 0
	// while no span is set.
	near, far       []entry
	head            []int32
	occ             []uint64
	wheelN, coarseN int
	cur, edge       uint64
	span, scale     float64

	seq uint64

	// processed counts events executed so far. Atomic so Progress can read
	// it from another goroutine while the loop runs.
	processed atomic.Uint64
	// nowBits mirrors now (as Float64bits) for cross-goroutine Progress
	// reads; the event loop is the only writer.
	nowBits atomic.Uint64

	stats QueueStats

	// Pad 304 bytes of fields to five full cache lines (320 bytes): the
	// loop writes now, processed and nowBits on every event, and a Sweep
	// runs one engine per worker, so engines allocated side by side must
	// not share a line (measured: +12 % per sweep batch without it).
	_ [16]byte
}

// NewEngine returns an engine with the clock at time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// setNow advances the clock and its atomic mirror (see Progress).
func (e *Engine) setNow(t Time) {
	e.now = t
	e.nowBits.Store(math.Float64bits(t))
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed.Load() }

// Progress is a snapshot of a run: events executed and the current
// simulated time. It is safe to take from any goroutine while the engine
// runs; both fields advance monotonically within one run.
type Progress struct {
	// Events is the number of events executed so far.
	Events uint64
	// Now is the current simulated time.
	Now Time
}

// Progress returns a cross-goroutine-safe snapshot of the run. The two
// fields are read from independent atomics, so a snapshot taken mid-event
// may pair an event count with the timestamp of the adjacent event; each
// field is individually exact and monotone.
func (e *Engine) Progress() Progress {
	return Progress{
		Events: e.processed.Load(),
		Now:    math.Float64frombits(e.nowBits.Load()),
	}
}

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.near) + e.wheelN + e.coarseN + len(e.far) }

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("sim: schedule time is in the past")

// Canceled reports whether the underlying event was canceled or already
// fired. The zero Handle reports true. A handle to a recycled slot stays
// canceled forever: the slot's generation count no longer matches.
func (h Handle) Canceled() bool {
	if h.eng == nil || h.gen == 0 {
		return true
	}
	return h.eng.events[h.id].gen != h.gen || h.eng.slots[h.id].in == inNone
}

// validateAt ensures a schedulable event time.
func (e *Engine) validateAt(at Time, label string) error {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("sim: invalid event time %v (%s)", at, label)
	}
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v (%s)", ErrPast, at, e.now, label)
	}
	return nil
}

// alloc takes a slot from the free list (or grows the slab) and returns its
// index. The slot's gen is already advanced past any stale handle.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.events = append(e.events, event{gen: 1})
	e.slots = append(e.slots, slot{})
	return int32(len(e.events) - 1)
}

// release recycles a fired or canceled slot. References held by the slot
// are dropped so pooled events cannot keep closures or receivers alive.
func (e *Engine) release(id int32) {
	ev := &e.events[id]
	ev.gen++
	if ev.gen == 0 { // skip the reserved "stale" generation on wraparound
		ev.gen = 1
	}
	ev.dfn = nil
	ev.data = Data{}
	e.slots[id].in = inNone
	e.free = append(e.free, id)
}

// Schedule enqueues fn to run at time at. Scheduling in the past is an
// error; scheduling exactly at the current time is allowed and runs after
// all previously scheduled events for this instant. The closure rides in
// Data.Ctx (a func value is pointer-shaped, so storing it allocates nothing).
func (e *Engine) Schedule(at Time, label string, fn func(*Engine)) (Handle, error) {
	if fn == nil {
		return Handle{}, errors.New("sim: nil event function")
	}
	return e.ScheduleData(at, label, callClosure, Data{Ctx: fn})
}

// callClosure is the DataFunc of every Schedule'd event.
func callClosure(e *Engine, d Data) { d.Ctx.(func(*Engine))(e) }

// ScheduleData enqueues fn(e, d) to run at time at. With a top-level fn and
// a pointer-shaped d.Ctx this path performs no heap allocation: the payload
// lives inside the pooled event. Ordering is identical to Schedule (one
// shared seq stream).
func (e *Engine) ScheduleData(at Time, label string, fn DataFunc, d Data) (Handle, error) {
	if fn == nil {
		return Handle{}, errors.New("sim: nil event function")
	}
	if err := e.validateAt(at, label); err != nil {
		return Handle{}, err
	}
	id := e.alloc()
	ev := &e.events[id]
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.dfn = fn
	ev.data = d
	e.place(id, at)
	e.grow()
	return Handle{id: id, gen: ev.gen, eng: e}, nil
}

// MustSchedule is Schedule but panics on error. It is intended for internal
// scheduling where the time argument is known to be valid by construction;
// an error here indicates a bug in the caller, not a runtime condition.
func (e *Engine) MustSchedule(at Time, label string, fn func(*Engine)) Handle {
	h, err := e.Schedule(at, label, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// MustScheduleData is ScheduleData but panics on error.
func (e *Engine) MustScheduleData(at Time, label string, fn DataFunc, d Data) Handle {
	h, err := e.ScheduleData(at, label, fn, d)
	if err != nil {
		panic(err)
	}
	return h
}

// Cancel removes a scheduled event. Canceling an already-fired or
// already-canceled event is a no-op returning false; the generation count
// in the handle guarantees a recycled slot can never be canceled through a
// stale handle.
func (e *Engine) Cancel(h Handle) bool {
	if h.eng != e || h.gen == 0 || int(h.id) >= len(e.events) {
		return false
	}
	if e.events[h.id].gen != h.gen {
		return false
	}
	switch s := e.slots[h.id]; s.in {
	case inNear:
		e.heapRemove(&e.near, int(s.pos))
	case inWheel:
		e.unlink(h.id)
		e.wheelN--
	case inCoarse:
		e.unlink(h.id)
		e.coarseN--
	case inFar:
		e.heapRemove(&e.far, int(s.pos))
	default:
		return false
	}
	e.release(h.id)
	return true
}

// Reset rewinds the engine to its newly constructed state — time 0, empty
// queue, sequence counter 0, zero events processed — while keeping the
// event slab, heap arrays, wheel and free list allocated for reuse. Every
// pending event is released: slot generation counters survive the reset
// (they are bumped, never rewound), so Handles issued before a Reset remain
// permanently canceled and can never cancel an event scheduled after it.
// The lookahead span and the bucket count the wheel grew to are retained
// (a pooled system re-sizes nothing); the queue counters restart at zero.
//
// The slab-slot recycling order after a Reset differs from a fresh
// engine's append order, but slot identity is invisible to execution:
// events fire strictly by (time, seq), and Reset restarts seq at 0, so a
// reset engine replays a byte-identical event stream for the same inputs.
//
// Reset must not be called while Run/RunContext is in flight.
func (e *Engine) Reset() {
	for id := e.unfileAll(); id >= 0; {
		next := e.slots[id].next
		e.release(id)
		id = next
	}
	e.setCur(0)
	e.stats = QueueStats{}
	e.seq = 0
	e.setNow(0)
	e.processed.Store(0)
}

// fire pops the near heap's root and executes it. The slot is released
// before the callback runs (the callback may reuse it for a new event; stale
// handles are protected by the generation count).
func (e *Engine) fire() {
	id := e.near[0].id
	e.heapRemove(&e.near, 0)
	ev := &e.events[id]
	e.setNow(ev.at)
	dfn, d := ev.dfn, ev.data
	e.release(id)
	e.processed.Add(1)
	dfn(e, d)
}

// ctxCheckInterval is how many events RunContext executes between context
// polls. Events are microsecond-scale, so cancellation latency stays well
// under a millisecond while the check cost amortizes to nothing.
const ctxCheckInterval = 256

// Run is RunContext without cancellation.
func (e *Engine) Run(horizon Time) error {
	return e.RunContext(context.Background(), horizon)
}

// RunContext executes events in timestamp order until the queue is empty,
// the horizon is passed or ctx is done. The engine time is left at
// min(horizon, last event time); events scheduled after the horizon remain
// queued.
//
// Canceling ctx is the only way to stop a run: the context is polled on
// entry and every ctxCheckInterval events, and a done context aborts the
// run with ctx.Err() after the in-flight event completes. On cancellation
// the engine time stays where the run stopped (it does NOT jump to the
// horizon), so Progress reflects how far the run actually got; the queue
// is left intact and a later run resumes deterministically. Cancellation
// only decides where the executed prefix ends, never what it contains.
func (e *Engine) RunContext(ctx context.Context, horizon Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	countdown := ctxCheckInterval
	for len(e.near) > 0 || e.advance() {
		countdown--
		if countdown <= 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			countdown = ctxCheckInterval
		}
		if e.near[0].at > horizon {
			break
		}
		e.fire()
	}
	if e.now < horizon {
		e.setNow(horizon)
	}
	return nil
}
