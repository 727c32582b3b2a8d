package sim

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// queueSpans are the lookaheads the differential tests cover: off, shorter
// than most leads, comparable to them, and longer than all of them.
var queueSpans = []float64{0, 1e-3, 0.5, 10, 1e3}

// modelEvent is one pending event of the sorted reference model.
type modelEvent struct {
	at Time
	id int
}

// queueHarness drives an Engine from an op string and checks, at every
// firing, that the engine fired the minimum of a sorted model by
// (at, insertion order): the firing order is the spec, whatever stage an
// event waited in.
type queueHarness struct {
	t       testing.TB
	e       *Engine
	live    []modelEvent // sorted by (at, id)
	handles []Handle     // by id
	leads   []float64    // by id: a child's lead, < 0 for none
	nextID  int
	lastAt  Time
	fired   int
}

// leadClasses is the number of lead-time shapes lead() knows.
const leadClasses = 7

// lead turns a class and a 16-bit fraction into a lead time: 0, an exact
// tie with the previously scheduled time, [0.9, 1.0] ms, [0, 1) s,
// [0, 100) s, sub-µs, or whole fine spans — 1 to 80 of them plus a
// fraction, or up to the start of a period (a multiple of the span) — so
// events land in coarse buckets, on cascade boundaries and beyond the
// coarse window.
func (q *queueHarness) lead(class byte, w uint16) Time {
	frac := float64(w) / 65536
	switch class % leadClasses {
	case 0:
		return 0
	case 1:
		return math.Max(q.lastAt-q.e.Now(), 0)
	case 2:
		return 0.9e-3 + 0.1e-3*frac
	case 3:
		return frac
	case 4:
		return 100 * frac
	case 6:
		span := q.e.span
		if span == 0 {
			span = 1
		}
		n := float64(1 + int(w>>8)%80)
		if w&0xff < 32 {
			now := q.e.Now()
			return math.Max(span*(math.Floor(now/span)+n)-now, 0)
		}
		return span * (n + float64(w&0xff)/256)
	default:
		return 1e-6 * frac
	}
}

// queueFire is the DataFunc of every harness event: I0 is the model id,
// and a lead ≥ 0 recorded for it asks for a child that much after the
// firing.
func queueFire(e *Engine, d Data) {
	q := d.Ctx.(*queueHarness)
	id := int(d.I0)
	if len(q.live) == 0 {
		q.t.Fatalf("event %d fired with an empty model", id)
	}
	if want := q.live[0]; want.id != id || want.at != e.Now() {
		q.t.Fatalf("fired event %d at %v, model expects %d at %v", id, e.Now(), want.id, want.at)
	}
	q.live = q.live[1:]
	q.fired++
	if lead := q.leads[id]; lead >= 0 {
		q.schedule(e.Now()+lead, -1)
	}
}

func (q *queueHarness) schedule(at Time, childLead float64) {
	id := q.nextID
	q.nextID++
	h := q.e.MustScheduleData(at, "q", queueFire, Data{Ctx: q, I0: int32(id)})
	q.handles = append(q.handles, h)
	q.leads = append(q.leads, childLead)
	q.lastAt = at
	i := sort.Search(len(q.live), func(i int) bool { return q.live[i].at > at })
	q.live = append(q.live, modelEvent{})
	copy(q.live[i+1:], q.live[i:])
	q.live[i] = modelEvent{at, id}
}

func (q *queueHarness) cancel(id int) {
	got := q.e.Cancel(q.handles[id])
	i := -1
	for j, m := range q.live {
		if m.id == id {
			i = j
			break
		}
	}
	if got != (i >= 0) {
		q.t.Fatalf("Cancel(%d) = %v, model says pending = %v", id, got, i >= 0)
	}
	if i >= 0 {
		q.live = append(q.live[:i], q.live[i+1:]...)
	}
}

func (q *queueHarness) run(horizon Time) {
	if err := q.e.Run(horizon); err != nil {
		q.t.Fatal(err)
	}
	if len(q.live) > 0 && q.live[0].at <= horizon {
		q.t.Fatalf("Run(%v) left event %d due at %v", horizon, q.live[0].id, q.live[0].at)
	}
	q.check()
}

func (q *queueHarness) check() {
	if got := q.e.Pending(); got != len(q.live) {
		q.t.Fatalf("Pending = %d, model holds %d", got, len(q.live))
	}
	q.checkStages()
}

// checkStages checks every pending slot against the window of the stage it
// waits in: near at tick ≤ cur; fine in (cur, cur+buckets), in its tick's
// bucket; coarse in a period after cur's and less than 64 after it, in its
// period's bucket; far at least 64 periods after cur's. Firing order alone
// cannot see an entry that waits too long in a later stage as long as it
// fires in time; this can.
func (q *queueHarness) checkStages() {
	e := q.e
	for _, x := range e.near {
		if tk := e.tick(x.at); tk > e.cur {
			q.t.Fatalf("near entry at tick %d, cur %d", tk, e.cur)
		}
	}
	buckets := e.buckets()
	if buckets == 0 {
		if len(e.far) != 0 {
			q.t.Fatalf("%d far entries without a wheel", len(e.far))
		}
		return
	}
	shift := e.shift()
	period := e.cur >> shift
	for _, x := range e.far {
		if p := e.tick(x.at) >> shift; p-period < coarseBuckets {
			q.t.Fatalf("far entry in period %d, cur's is %d", p, period)
		}
	}
	wheel, coarse := 0, 0
	for b, id := range e.head {
		for ; id >= 0; id = e.slots[id].next {
			tk := e.tick(e.events[id].at)
			p := tk >> shift
			switch {
			case b < buckets && (tk <= e.cur || tk-e.cur >= uint64(buckets) || int(tk)&(buckets-1) != b):
				q.t.Fatalf("fine bucket %d holds tick %d, cur %d", b, tk, e.cur)
			case b >= buckets && (p <= period || p-period >= coarseBuckets || int(p%coarseBuckets) != b-buckets):
				q.t.Fatalf("coarse bucket %d holds period %d, cur's is %d", b-buckets, p, period)
			case b < buckets:
				wheel++
			default:
				coarse++
			}
		}
	}
	if wheel != e.wheelN || coarse != e.coarseN {
		q.t.Fatalf("wheels hold %d and %d entries, counted %d and %d", wheel, coarse, e.wheelN, e.coarseN)
	}
}

// opArgs is the number of argument bytes each op consumes.
var opArgs = [8]int{3, 3, 3, 2, 3, 1, 2, 1}

// exec interprets ops. Each op is one byte (its low three bits select the
// action) followed by its opArgs argument bytes; a truncated tail reads as
// zeros. Ops 0–6 keep the geometry the caller set; op 7 resets the engine
// or changes its span.
func (q *queueHarness) exec(ops []byte) {
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	next16 := func() uint16 { return uint16(next())<<8 | uint16(next()) }
	for len(ops) > 0 {
		switch op := next(); op & 7 {
		case 0, 1, 2: // schedule, optionally with a child
			class, w := next(), next16()
			child := -1.0
			if class&0x10 != 0 {
				child = q.lead(class>>5, w)
			}
			q.schedule(q.e.Now()+q.lead(class, w), child)
		case 3: // cancel any event ever scheduled
			if w := next16(); len(q.handles) > 0 {
				q.cancel(int(w) % len(q.handles))
			}
		case 4: // run to a horizon
			q.run(q.e.Now() + q.lead(next(), next16()))
		case 5: // run to short of the next event, then schedule before it
			frac := float64(next()) / 256
			if len(q.live) == 0 || q.live[0].at <= q.e.Now() {
				break
			}
			first := q.live[0].at
			horizon := q.e.Now() + (first-q.e.Now())*frac
			if horizon >= first { // the gap is a few ulps of the clock
				horizon = q.e.Now()
			}
			fired := q.fired
			q.run(horizon) // may turn the wheel past the clock
			if q.fired != fired || q.e.Now() != horizon {
				q.t.Fatalf("Run(%v) before the minimum %v fired %d events, clock %v",
					horizon, first, q.fired-fired, q.e.Now())
			}
			q.schedule(q.e.Now()+(first-q.e.Now())*frac, -1)
		case 6: // a burst of 300 inside the window, enough for two growths
			width := q.e.span
			if width == 0 {
				width = 1
			}
			seed := next16()
			for i := 0; i < 300; i++ {
				seed = seed*25173 + 13849
				q.schedule(q.e.Now()+width*float64(seed)/65536*0.99, -1)
			}
		case 7:
			if arg := next(); arg&1 == 0 {
				q.e.Reset()
				q.live = q.live[:0]
				q.lastAt = 0
			} else {
				q.e.SetLookahead(queueSpans[int(arg>>1)%len(queueSpans)])
			}
			q.check()
		}
	}
	q.run(math.MaxFloat64) // children have no children, so this drains
	if len(q.live) != 0 {
		q.t.Fatalf("%d model events never fired", len(q.live))
	}
	if free, slab := len(q.e.free), len(q.e.events); free != slab {
		q.t.Fatalf("after drain: %d free slots of %d — a slot leaked", free, slab)
	}
}

// TestQueueOrderAgainstSortedModel is the differential: random op strings
// (without geometry ops) under every span, each firing checked against the
// sorted model, and with a span the opening burst must have grown the wheel
// twice.
func TestQueueOrderAgainstSortedModel(t *testing.T) {
	for _, span := range queueSpans {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// Open with a burst: later ones may follow a run that turned
			// the wheel past the clock, and then they file near.
			ops := append(make([]byte, 0, 2048), 6, 1, 2)
			for len(ops) < 2000 {
				op := byte(rng.Intn(7))
				if op == 6 && rng.Intn(8) != 0 { // bursts are 300 events each: keep them rare
					op = 0
				}
				ops = append(ops, op)
				for i := 0; i < opArgs[op]; i++ {
					ops = append(ops, byte(rng.Intn(256)))
				}
			}
			e := NewEngine()
			e.SetLookahead(span)
			q := &queueHarness{t: t, e: e}
			q.exec(ops)
			if q.fired < 500 {
				t.Fatalf("span %v seed %d: only %d events fired", span, seed, q.fired)
			}
			if st := e.QueueStats(); span > 0 && st.Buckets < 4*minBuckets {
				t.Errorf("span %v seed %d: %d buckets after a burst of 300, want ≥ %d (two growths)",
					span, seed, st.Buckets, 4*minBuckets)
			}
		}
	}
}

// FuzzQueueOrder feeds arbitrary op strings — including Reset and span
// changes on a non-empty queue — to the same model. The seed corpus runs as
// a plain test.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	// span 1e-3, a burst, run 100 s
	f.Add([]byte{7, 3, 6, 0, 1, 4, 4, 255, 255})
	// span 0.5 set on a non-empty queue, an event with a child, a run short
	// of the next event, reset
	f.Add([]byte{0, 3, 128, 0, 7, 5, 0, 0x33, 64, 0, 5, 64, 7, 0, 0, 2, 0, 0})
	// span 10, exact ties, a cancel, span switched off mid-run, a burst
	f.Add([]byte{7, 7, 0, 3, 9, 9, 0, 1, 0, 0, 0, 1, 0, 0, 3, 0, 1, 4, 3, 128, 0, 7, 1, 6, 0, 7})
	// span 1e3, two bursts, runs, a run short of the next event, a cancel
	f.Add([]byte{7, 9, 6, 9, 9, 6, 1, 1, 4, 2, 0, 0, 5, 200, 3, 0, 7, 4, 5, 0, 0})
	// span 1e-3, events 6.5, 33.25 and 70 spans ahead (coarse, coarse, far),
	// a run halfway to the first — it cascades into the first's period and
	// stops at its horizon — then a schedule before cur
	f.Add([]byte{7, 3, 0, 6, 5, 128, 0, 6, 32, 64, 0, 6, 69, 0, 5, 128, 4, 6, 80, 0})
	// span 1e-3, coarse entries (one exactly on a period start, one with a
	// coarse child), three of them canceled, a run across their periods
	f.Add([]byte{7, 3, 0, 6, 3, 0, 0, 0xd1, 9, 200, 0, 6, 40, 100, 0, 6, 2, 64,
		3, 0, 0, 3, 0, 2, 3, 0, 3, 4, 6, 50, 0, 3, 0, 1})
	// span 1e-3, coarse and far entries pending through a Reset, new coarse
	// and far entries pending through a span change to 0.5 and back, a run
	f.Add([]byte{7, 3, 0, 6, 7, 0, 0, 0x92, 70, 1, 0, 6, 20, 128, 7, 0,
		0, 6, 12, 200, 0, 6, 75, 0, 7, 5, 7, 3, 4, 6, 30, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			t.Skip("the sorted model is quadratic in the events a long op string can burst")
		}
		q := &queueHarness{t: t, e: NewEngine()}
		q.exec(ops)
	})
}

// TestQueueTiesAcrossStages schedules the same instant from different nows
// (times on a 2⁻¹⁰ grid, so the sums are exact): the first copy is filed far,
// the next in a coarse bucket, the next two in a fine bucket, the last
// straight into the near heap. They must fire in scheduling order.
func TestQueueTiesAcrossStages(t *testing.T) {
	const grid = 1.0 / 1024
	e := NewEngine()
	e.SetLookahead(1) // 64 buckets of 16 grid steps; coarse periods of 1
	target := 100 + 5*grid
	var got []string
	copyOf := func(name string, want func(QueueStats) uint64) {
		before := want(e.QueueStats())
		e.MustSchedule(target, name, func(*Engine) { got = append(got, name) })
		if want(e.QueueStats()) != before+1 {
			t.Errorf("copy %q was not filed in the stage the test is about: %+v", name, e.QueueStats())
		}
	}
	far := func(s QueueStats) uint64 { return s.FiledFar }
	coarse := func(s QueueStats) uint64 { return s.FiledCoarse }
	wheel := func(s QueueStats) uint64 { return s.FiledWheel }
	near := func(s QueueStats) uint64 { return s.FiledNear }

	copyOf("far", far)
	e.MustSchedule(50, "step", func(*Engine) { copyOf("coarse", coarse) })
	e.MustSchedule(99.5, "step", func(*Engine) {
		copyOf("wheel-1", wheel)
		copyOf("wheel-2", wheel)
	})
	e.MustSchedule(100+grid, "step", func(*Engine) { copyOf("near", near) })
	if err := e.Run(101); err != nil {
		t.Fatal(err)
	}
	if want := []string{"far", "coarse", "wheel-1", "wheel-2", "near"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestQueueResetReplaysIdenticallyWithWheel is
// TestEngineResetReplaysIdentically with the wheel on and a Reset that
// lands mid-run, with events waiting in every stage.
func TestQueueResetReplaysIdenticallyWithWheel(t *testing.T) {
	fresh := NewEngine()
	fresh.SetLookahead(2)
	want := traceEvents(t, fresh)

	e := NewEngine()
	e.SetLookahead(2)
	for i := 0; i < 400; i++ {
		e.MustSchedule(float64(i*i)/400, "junk", func(*Engine) {})
	}
	if err := e.Run(1.25); err != nil {
		t.Fatal(err)
	}
	if st := e.QueueStats(); st.FiledWheel == 0 || st.FiledCoarse == 0 || st.FiledFar == 0 || e.Pending() == 0 {
		t.Fatalf("the interrupted run did not use every stage: %+v, %d pending", st, e.Pending())
	}
	buckets := e.QueueStats().Buckets
	e.Reset()
	if st := e.QueueStats(); st != (QueueStats{Buckets: buckets}) {
		t.Fatalf("QueueStats after Reset = %+v, want zero counters and %d buckets kept", st, buckets)
	}
	if got := traceEvents(t, e); !slices.Equal(got, want) {
		t.Fatalf("trace: fresh %q, post-reset %q", want, got)
	}
	if st := e.QueueStats(); st.FiledWheel+st.FiledCoarse+st.FiledFar == 0 {
		t.Errorf("the replay never left the near heap: %+v", st)
	}
}

// TestQueueTickEdges: the time→tick map clamps products beyond the uint64
// range, takes −0.0 as 0 and survives a span so small that the scale
// overflows; validation errors are the ones an engine without a span gives.
func TestQueueTickEdges(t *testing.T) {
	for _, span := range []float64{1e-6, 5e-324, 1} {
		e := NewEngine()
		e.SetLookahead(span)
		var got []Time
		rec := func(e *Engine) { got = append(got, e.Now()) }
		times := []Time{1e300, 1e17, math.MaxFloat64, 5, math.Copysign(0, -1), 1e300, 0.25}
		for _, at := range times {
			e.MustSchedule(at, "edge", rec)
		}
		if err := e.Run(math.MaxFloat64); err != nil {
			t.Fatal(err)
		}
		if want := []Time{0, 0.25, 5, 1e17, 1e300, 1e300, math.MaxFloat64}; !slices.Equal(got, want) {
			t.Fatalf("span %v: fired %v, want %v", span, got, want)
		}
	}

	e := NewEngine()
	e.SetLookahead(1e-3)
	e.MustSchedule(5, "adv", func(*Engine) {})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	for _, at := range []Time{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := e.ScheduleData(at, "bad", tickData, Data{})
		if err == nil || errors.Is(err, ErrPast) || !strings.Contains(err.Error(), "(bad)") {
			t.Errorf("ScheduleData(%v) = %v, want the invalid-time error naming its label", at, err)
		}
	}
	_, err := e.ScheduleData(9, "past", tickData, Data{})
	if !errors.Is(err, ErrPast) || !strings.Contains(err.Error(), "(past)") {
		t.Errorf("ScheduleData in the past = %v, want ErrPast naming its label", err)
	}
	if e.Pending() != 0 {
		t.Errorf("rejected events were filed: Pending = %d", e.Pending())
	}
}

// TestQueueSetLookahead: the setter re-files a non-empty queue without
// changing what fires when, a repeated value, 0 on an engine without a span
// and junk values do nothing and allocate nothing, and 0 after a span
// switches the wheel off.
func TestQueueSetLookahead(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 500; i++ {
		e.MustSchedule(float64((i*37)%500)/100, "x", func(*Engine) { got = append(got, (i*37)%500) })
	}
	e.SetLookahead(1) // non-empty queue, first span
	if e.Pending() != 500 {
		t.Fatalf("Pending = %d after SetLookahead, want 500", e.Pending())
	}
	if st := e.QueueStats(); st.Buckets != minBuckets || st.FiledNear != 500 || st.FiledWheel != 0 {
		t.Fatalf("re-filing must not count as scheduling: %+v", st)
	}
	if err := e.Run(2.5); err != nil {
		t.Fatal(err)
	}
	e.SetLookahead(0.125) // mid-run, new span
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	e.SetLookahead(0) // off: everything pending moves to the near heap
	h := e.MustSchedule(4.5, "late", func(*Engine) {})
	if st := e.QueueStats(); e.wheelN != 0 || e.coarseN != 0 || len(e.far) != 0 || st.FiledNear != 501 {
		t.Fatalf("span 0 left the wheels on: wheel %d, coarse %d, far %d, %+v", e.wheelN, e.coarseN, len(e.far), st)
	}
	e.Cancel(h)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 || !sort.IntsAreSorted(got) {
		t.Fatalf("fired %d events, sorted = %v", len(got), sort.IntsAreSorted(got))
	}

	if RaceEnabled {
		return
	}
	for _, c := range []struct{ set, again float64 }{{0, 0}, {0, math.NaN()}, {0, -1}, {0, math.Inf(1)}, {3, 3}} {
		e := NewEngine()
		e.SetLookahead(c.set)
		e.MustScheduleData(1, "t", tickData, Data{Ctx: new(int), I1: -1})
		before := e.QueueStats()
		if avg := testing.AllocsPerRun(10, func() { e.SetLookahead(c.again) }); avg != 0 {
			t.Errorf("SetLookahead(%v) after %v allocates %.1f times, want 0", c.again, c.set, avg)
		}
		if after := e.QueueStats(); after != before || e.Pending() != 1 {
			t.Errorf("SetLookahead(%v) after %v is not a no-op: %+v → %+v", c.again, c.set, before, after)
		}
	}
}

// TestQueueGrowthIsBounded: 100 000 events inside one tick grow the wheel
// to its cap and no further, and the sparse tail that follows — inside the
// window and beyond it — costs a bounded bitmap scan per event, so the whole
// run stays linear in the event count.
func TestQueueGrowthIsBounded(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(1)
	count := 0
	start := time.Now()
	for i := 0; i < 100000; i++ {
		e.MustScheduleData(0.5+float64(i)*1e-12, "burst", tickData, Data{Ctx: &count, I1: -1})
	}
	if got := e.QueueStats().Buckets; got != maxBuckets {
		t.Fatalf("Buckets = %d after the burst, want the cap %d", got, maxBuckets)
	}
	for i := 0; i < 5000; i++ {
		e.MustScheduleData(1+float64(i)*0.9, "tail", tickData, Data{Ctx: &count, I1: -1})
	}
	if err := e.Run(1e4); err != nil {
		t.Fatal(err)
	}
	if count != 105000 || e.Pending() != 0 {
		t.Fatalf("fired %d of 105000, %d pending", count, e.Pending())
	}
	st := e.QueueStats()
	if st.Buckets != maxBuckets {
		t.Errorf("Buckets = %d, want %d", st.Buckets, maxBuckets)
	}
	if st.EntriesLoaded < 100000 {
		t.Errorf("EntriesLoaded = %d, want the burst to have gone through the wheel", st.EntriesLoaded)
	}
	// Expected: tens of milliseconds. A per-event cost that grows with the
	// burst (rescanning, re-filing) would take minutes.
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("105000 events took %v", took)
	}
}

// TestWheelZeroAllocSteadyState is TestRunZeroAllocSteadyState and
// TestCancelRescheduleZeroAlloc for an engine with a span: the wheel grows
// during the warm-up and the measured region — fine, coarse and far filings,
// cascades and cancels — allocates nothing.
func TestWheelZeroAllocSteadyState(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewEngine()
	e.SetLookahead(2)
	count := 0
	for i := 0; i < 300; i++ {
		e.MustScheduleData(float64(i)/300, "tick", tickData, Data{Ctx: &count, I1: 1 << 20})
	}
	far := e.MustScheduleData(1<<19, "timer", tickData, Data{Ctx: &count, I1: -1})
	if err := e.Run(64); err != nil {
		t.Fatal(err)
	}
	if st := e.QueueStats(); st.Buckets < 2*minBuckets || st.FiledWheel < 300*60 {
		t.Fatalf("warm-up did not grow or use the wheel: %+v", st)
	}
	// Round timers: one fires every simulated second and one is armed 20 s
	// (10 spans) ahead, so the coarse wheel files and cascades.
	for k := 1; k <= 20; k++ {
		e.MustScheduleData(65+float64(k), "round", tickData, Data{Ctx: &count, I1: -1})
	}
	coarse := e.QueueStats().FiledCoarse
	next := 65.0
	avg := testing.AllocsPerRun(100, func() {
		if err := e.Run(next); err != nil {
			t.Fatal(err)
		}
		next++
		e.Cancel(far)
		far = e.MustScheduleData(1<<19, "timer", tickData, Data{Ctx: &count, I1: -1})
		h := e.MustScheduleData(next+0.5, "timer", tickData, Data{Ctx: &count, I1: -1})
		e.Cancel(h)
		e.MustScheduleData(next+20, "round", tickData, Data{Ctx: &count, I1: -1})
	})
	if avg != 0 {
		t.Errorf("steady state with a span allocates %.2f times per simulated second, want 0", avg)
	}
	if filed := e.QueueStats().FiledCoarse - coarse; filed != 101 {
		t.Errorf("%d round timers filed coarse in the measured region, want 101", filed)
	}
}
