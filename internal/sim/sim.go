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
// The queue is a hand-rolled indexed min-heap over a slab of pooled event
// structs with an embedded free list: in steady state (events fired ≈
// events scheduled) the engine performs zero heap allocations per event.
// Handles are generation-counted so Cancel on a recycled slot is safe.
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
// small integers/floats — fit without boxing: storing a pointer (or func)
// in Ctx and calling a top-level DataFunc allocates nothing.
type Data struct {
	// Ctx carries the receiver (a pointer or func value; pointer-shaped
	// values do not allocate when stored in an interface).
	Ctx any
	// I0, I1, I2 carry small integer payloads (node IDs, kinds, codes).
	I0, I1, I2 int64
	// F0 carries a float payload.
	F0 float64
}

// DataFunc is the callback of a data-scheduled event. Implementations
// should be top-level functions (not closures) so scheduling stays
// allocation-free.
type DataFunc func(e *Engine, d Data)

// event is one pooled slab entry; dfn is non-nil while the slot is live.
type event struct {
	at    Time
	seq   uint64 // insertion order, breaks time ties deterministically
	dfn   DataFunc
	data  Data
	label string
	gen   uint32 // bumped on every release; stale Handles never match
	pos   int32  // index into Engine.heap; -1 once fired/canceled
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
	// events is the pooled slab; heap holds slab indices ordered as a
	// min-heap by (at, seq); free is the stack of recycled slab indices.
	events []event
	heap   []int32
	free   []int32

	seq uint64

	// processed counts events executed so far. Atomic so Progress can read
	// it from another goroutine while the loop runs.
	processed atomic.Uint64
	// nowBits mirrors now (as Float64bits) for cross-goroutine Progress
	// reads; the event loop is the only writer.
	nowBits atomic.Uint64
	// maxEvents aborts runaway simulations; 0 means no limit.
	maxEvents uint64

	// Pad to two full cache lines (the 128-byte size class): the loop
	// writes now, processed and nowBits on every event, and a Sweep runs
	// one engine per worker, so engines allocated side by side must not
	// share a line (measured: +12 % per sweep batch without it).
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

// SetEventLimit aborts Run with ErrEventLimit after n events (0 = unlimited).
func (e *Engine) SetEventLimit(n uint64) { e.maxEvents = n }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.heap) }

// ErrEventLimit is returned by Run when the configured event limit is hit.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("sim: schedule time is in the past")

// Canceled reports whether the underlying event was canceled or already
// fired. The zero Handle reports true. A handle to a recycled slot stays
// canceled forever: the slot's generation count no longer matches.
func (h Handle) Canceled() bool {
	if h.eng == nil || h.gen == 0 {
		return true
	}
	ev := &h.eng.events[h.id]
	return ev.gen != h.gen || ev.pos < 0
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
	ev.label = ""
	ev.pos = -1
	e.free = append(e.free, id)
}

// push inserts slot id (with at/seq already set) into the heap.
func (e *Engine) push(id int32) {
	e.heap = append(e.heap, id)
	e.events[id].pos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
}

// less orders heap positions by (at, seq).
func (e *Engine) less(i, j int) bool {
	a, b := &e.events[e.heap[i]], &e.events[e.heap[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.events[e.heap[i]].pos = int32(i)
	e.events[e.heap[j]].pos = int32(j)
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			return
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && e.less(r, l) {
			least = r
		}
		if !e.less(least, i) {
			return
		}
		e.swap(i, least)
		i = least
	}
}

// removeAt deletes the heap entry at position pos, marking its slot
// off-heap (pos = -1) without releasing it.
func (e *Engine) removeAt(pos int) int32 {
	id := e.heap[pos]
	last := len(e.heap) - 1
	if pos != last {
		e.swap(pos, last)
	}
	e.heap = e.heap[:last]
	e.events[id].pos = -1
	if pos != last {
		e.siftDown(pos)
		e.siftUp(pos)
	}
	return id
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
	ev.label = label
	e.push(id)
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
	ev := &e.events[h.id]
	if ev.gen != h.gen || ev.pos < 0 {
		return false
	}
	e.removeAt(int(ev.pos))
	e.release(h.id)
	return true
}

// Reset rewinds the engine to its newly constructed state — time 0, empty
// queue, sequence counter 0, zero events processed — while keeping the
// event slab, heap array and free list allocated for reuse. Every pending
// event is released: slot generation counters survive the reset (they are
// bumped, never rewound), so Handles issued before a Reset remain
// permanently canceled and can never cancel an event scheduled after it.
// The configured event limit is retained.
//
// The slab-slot recycling order after a Reset differs from a fresh
// engine's append order, but slot identity is invisible to execution:
// events fire strictly by (time, seq), and Reset restarts seq at 0, so a
// reset engine replays a byte-identical event stream for the same inputs.
//
// Reset must not be called while Run/RunContext is in flight.
func (e *Engine) Reset() {
	for _, id := range e.heap {
		e.release(id)
	}
	e.heap = e.heap[:0]
	e.seq = 0
	e.setNow(0)
	e.processed.Store(0)
}

// fire pops the root event and executes it. The slot is released before the
// callback runs (the callback may reuse it for a new event; stale handles
// are protected by the generation count).
func (e *Engine) fire() {
	id := e.removeAt(0)
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
// the horizon is passed, ctx is done, or the event limit is exceeded. The
// engine time is left at min(horizon, last event time); events scheduled
// after the horizon remain queued.
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
	for len(e.heap) > 0 {
		countdown--
		if countdown <= 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			countdown = ctxCheckInterval
		}
		next := &e.events[e.heap[0]]
		if next.at > horizon {
			break
		}
		if e.maxEvents > 0 && e.processed.Load()+1 > e.maxEvents {
			id := e.removeAt(0)
			e.setNow(e.events[id].at)
			e.release(id)
			e.processed.Add(1)
			return fmt.Errorf("%w: %d events", ErrEventLimit, e.processed.Load())
		}
		e.fire()
	}
	if e.now < horizon {
		e.setNow(horizon)
	}
	return nil
}

// PeekTime returns the firing time of the next pending event, or +Inf when
// the queue is empty.
func (e *Engine) PeekTime() Time {
	if len(e.heap) == 0 {
		return math.Inf(1)
	}
	return e.events[e.heap[0]].at
}
