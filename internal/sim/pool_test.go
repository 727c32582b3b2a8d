package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// tickData is a self-rescheduling DataFunc: it re-arms itself one second
// later until the time in I1 is reached (I1 < 0: never re-arms). Top-level
// so scheduling it is allocation-free.
func tickData(e *Engine, d Data) {
	c := d.Ctx.(*int)
	*c++
	if e.Now()+1 <= float64(d.I1) {
		e.MustScheduleData(e.Now()+1, "tick", tickData, d)
	}
}

// TestPoolReuseCycle drives one slot through the full
// scheduled→fired→rescheduled→canceled→rescheduled life cycle and checks
// Handle semantics at every step.
func TestPoolReuseCycle(t *testing.T) {
	e := NewEngine()
	fired := 0
	h1 := e.MustSchedule(1, "a", func(*Engine) { fired++ })
	if h1.Canceled() {
		t.Fatal("pending handle reports Canceled")
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !h1.Canceled() {
		t.Error("fired handle must report Canceled")
	}
	if e.Cancel(h1) {
		t.Error("Cancel after fire must return false")
	}

	// The freed slot is recycled by the next schedule; the stale handle
	// must not be able to touch the new event.
	h2 := e.MustSchedule(11, "b", func(*Engine) { fired++ })
	if h2.Canceled() {
		t.Fatal("fresh handle reports Canceled")
	}
	if e.Cancel(h1) {
		t.Error("stale handle canceled a recycled slot")
	}
	if h2.Canceled() {
		t.Error("recycled event was disturbed by a stale handle")
	}

	// Cancel the live event, then reuse the slot again.
	if !e.Cancel(h2) {
		t.Fatal("Cancel of a pending event must return true")
	}
	if !h2.Canceled() {
		t.Error("canceled handle must report Canceled")
	}
	if e.Cancel(h2) {
		t.Error("double Cancel must return false")
	}
	h3 := e.MustSchedule(12, "c", func(*Engine) { fired++ })
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (canceled event must not fire, rescheduled one must)", fired)
	}
	if !h3.Canceled() {
		t.Error("fired handle must report Canceled")
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0", got)
	}
}

// TestPoolNoDoubleFree checks that canceling the handle of an event that
// already fired — after its slot was recycled and fired again — is a no-op
// at every generation.
func TestPoolNoDoubleFree(t *testing.T) {
	e := NewEngine()
	var handles []Handle
	fired := 0
	for round := 0; round < 5; round++ {
		h := e.MustSchedule(float64(round+1), "cycle", func(*Engine) { fired++ })
		handles = append(handles, h)
		if err := e.Run(float64(round + 1)); err != nil {
			t.Fatal(err)
		}
		// Every retained handle from every earlier generation is stale.
		for i, old := range handles {
			if !old.Canceled() {
				t.Fatalf("round %d: handle %d not Canceled", round, i)
			}
			if e.Cancel(old) {
				t.Fatalf("round %d: stale handle %d canceled something", round, i)
			}
		}
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if free, slab := len(e.free), len(e.events); free != slab {
		t.Errorf("after drain: %d free slots of %d — a slot leaked", free, slab)
	}
}

// TestPoolCancelDuringCallback cancels a sibling event from inside a
// callback and checks the sibling never fires and its slot is recycled
// cleanly.
func TestPoolCancelDuringCallback(t *testing.T) {
	e := NewEngine()
	var victim Handle
	victimFired := false
	victim = e.MustSchedule(2, "victim", func(*Engine) { victimFired = true })
	e.MustSchedule(1, "killer", func(e *Engine) {
		if !e.Cancel(victim) {
			t.Error("killer could not cancel pending victim")
		}
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if victimFired {
		t.Error("canceled event fired")
	}
	if !victim.Canceled() {
		t.Error("victim handle must report Canceled")
	}
}

// TestCancelForeignHandle checks that a handle from one engine cannot
// cancel an event on another engine, even though slab ids and generations
// are dense and near-identical across engines running similar schedules.
func TestCancelForeignHandle(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	ha := a.MustSchedule(1, "a", func(*Engine) {})
	fired := false
	hb := b.MustSchedule(1, "b", func(*Engine) { fired = true })
	if b.Cancel(ha) {
		t.Error("engine B canceled a handle owned by engine A")
	}
	if hb.Canceled() {
		t.Error("foreign cancel disturbed engine B's own event")
	}
	if err := b.Run(10); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("engine B's event was lost to a foreign handle cancel")
	}
	if !a.Cancel(ha) {
		t.Error("owning engine failed to cancel its own pending event")
	}
}

// TestPoolStressAgainstModel runs a randomized schedule/cancel workload and
// checks the engine fires exactly the non-canceled events in (At, seq)
// order — i.e. pooling never reorders, drops, duplicates or resurrects an
// event.
func TestPoolStressAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()

	type modelEvent struct {
		at       float64
		id       int
		canceled bool
	}
	var model []modelEvent
	var handles []Handle
	var firedOrder []int

	nextID := 0
	scheduleOne := func() {
		at := e.Now() + rng.Float64()*10
		id := nextID
		nextID++
		h := e.MustSchedule(at, "stress", func(*Engine) { firedOrder = append(firedOrder, id) })
		model = append(model, modelEvent{at: at, id: id})
		handles = append(handles, h)
	}

	for round := 0; round < 200; round++ {
		for i := 0; i < rng.Intn(8); i++ {
			scheduleOne()
		}
		// Cancel a few random events (mirroring successful cancels in the
		// model; canceling fired or already-canceled events is a no-op).
		for i := 0; i < rng.Intn(3) && len(model) > 0; i++ {
			j := rng.Intn(len(model))
			if e.Cancel(handles[j]) {
				model[j].canceled = true
			}
		}
		if err := e.Run(e.Now() + rng.Float64()*5); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(1e9); err != nil { // drain
		t.Fatal(err)
	}

	// Expected firing order: surviving events sorted by (at, insertion id)
	// — seq increases with id since each schedule takes the next seq.
	var want []int
	var alive []modelEvent
	for _, m := range model {
		if !m.canceled {
			alive = append(alive, m)
		}
	}
	sort.SliceStable(alive, func(i, j int) bool {
		if alive[i].at != alive[j].at {
			return alive[i].at < alive[j].at
		}
		return alive[i].id < alive[j].id
	})
	for _, m := range alive {
		want = append(want, m.id)
	}
	if len(firedOrder) != len(want) {
		t.Fatalf("fired %d events, want %d", len(firedOrder), len(want))
	}
	for i := range want {
		if firedOrder[i] != want[i] {
			t.Fatalf("position %d: fired id %d, want %d", i, firedOrder[i], want[i])
		}
	}
	if free, slab := len(e.free), len(e.events); free != slab {
		t.Errorf("after drain: %d free slots of %d — a slot leaked", free, slab)
	}
}

// TestRunZeroAllocSteadyState pins the tentpole invariant: once the pool is
// warm, the schedule→fire cycle performs zero heap allocations per event —
// for data-scheduled events and for closures, which ride in Data.Ctx.
func TestRunZeroAllocSteadyState(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	count := 0
	var tick func(*Engine)
	tick = func(e *Engine) {
		count++
		e.MustSchedule(e.Now()+1, "tick", tick)
	}
	arms := map[string]func(e *Engine, at Time){
		"data": func(e *Engine, at Time) {
			e.MustScheduleData(at, "tick", tickData, Data{Ctx: &count, I1: 1 << 20})
		},
		"closure": func(e *Engine, at Time) { e.MustSchedule(at, "tick", tick) },
	}
	for name, arm := range arms {
		e := NewEngine()
		count = 0
		for i := 0; i < 8; i++ {
			arm(e, float64(i)/8)
		}
		if err := e.Run(64); err != nil { // warm the slab, heap and free list
			t.Fatal(err)
		}
		next := 65.0
		avg := testing.AllocsPerRun(100, func() {
			if err := e.Run(next); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if avg != 0 {
			t.Errorf("%s: steady-state Run allocates %.2f times per simulated second (8 events), want 0", name, avg)
		}
		if count == 0 {
			t.Fatalf("%s: ticker never ran", name)
		}
	}
}

// TestCancelRescheduleZeroAlloc pins the same invariant for the
// cancel/reschedule path used by globalskew's level timer.
func TestCancelRescheduleZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewEngine()
	count := 0
	h := e.MustScheduleData(1, "timer", tickData, Data{Ctx: &count, I1: -1})
	avg := testing.AllocsPerRun(100, func() {
		e.Cancel(h)
		h = e.MustScheduleData(e.Now()+1, "timer", tickData, Data{Ctx: &count, I1: -1})
	})
	if avg != 0 {
		t.Errorf("cancel+reschedule allocates %.2f per cycle, want 0", avg)
	}
}

// TestEngineFillsCacheLines pins the Engine's size to five cache lines: two
// engines run by different sweep workers must never share one (see the
// padding field). It also pins the slab layout, so a field added to the
// hottest structs is a visible decision: an event is one cache line and its
// payload half of one.
func TestEngineFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size != 320 {
		t.Errorf("Engine is %d bytes, want 320 (five cache lines)", size)
	}
	if size := unsafe.Sizeof(event{}); size != 64 {
		t.Errorf("event is %d bytes, want 64", size)
	}
	if size := unsafe.Sizeof(Data{}); size != 32 {
		t.Errorf("Data is %d bytes, want 32", size)
	}
}
