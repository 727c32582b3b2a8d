package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		if _, err := e.Schedule(at, "t", func(e *Engine) {
			got = append(got, e.Now())
		}); err != nil {
			t.Fatalf("Schedule(%v): %v", at, err)
		}
	}
	if err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Errorf("ran %d events, want %d", len(got), len(times))
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v, want horizon 10", e.Now())
	}
}

func TestEngineTieBreaksByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.MustSchedule(1.0, "tie", func(*Engine) { got = append(got, i) })
	}
	if err := e.Run(2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order violated at %d: got %v", i, got)
		}
	}
}

func TestEngineHorizonLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.MustSchedule(1, "a", func(*Engine) { ran++ })
	e.MustSchedule(5, "b", func(*Engine) { ran++ })
	if err := e.Run(2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	if err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 2 {
		t.Errorf("after second Run ran = %d, want 2", ran)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.MustSchedule(5, "adv", func(*Engine) {})
	if err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := e.Schedule(1, "past", func(*Engine) {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
}

func TestScheduleInvalidInputs(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(1, "nil", nil); err == nil {
		t.Error("nil fn should fail")
	}
	if _, err := e.Schedule(math.NaN(), "nan", func(*Engine) {}); err == nil {
		t.Error("NaN time should fail")
	}
	if _, err := e.Schedule(math.Inf(1), "inf", func(*Engine) {}); err == nil {
		t.Error("Inf time should fail")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.MustSchedule(1, "c", func(*Engine) { ran = true })
	if !e.Cancel(h) {
		t.Error("first Cancel should return true")
	}
	if e.Cancel(h) {
		t.Error("second Cancel should return false")
	}
	if err := e.Run(2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("canceled event ran")
	}
	if !h.Canceled() {
		t.Error("handle should report canceled")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []string
	ha := e.MustSchedule(1, "a", func(*Engine) { got = append(got, "a") })
	e.MustSchedule(2, "b", func(*Engine) { got = append(got, "b") })
	hc := e.MustSchedule(3, "c", func(*Engine) { got = append(got, "c") })
	e.MustSchedule(4, "d", func(*Engine) { got = append(got, "d") })
	e.Cancel(hc)
	e.Cancel(ha)
	if err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != "b" || got[1] != "d" {
		t.Errorf("got %v, want [b d]", got)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func(*Engine)
	recurse = func(e *Engine) {
		depth++
		if depth < 10 {
			if _, err := e.Schedule(e.Now()+1, "rec", recurse); err != nil {
				t.Errorf("Schedule: %v", err)
			}
		}
	}
	e.MustSchedule(0, "start", recurse)
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
}

func TestSameTimeScheduleRunsInSameInstant(t *testing.T) {
	e := NewEngine()
	var got []string
	e.MustSchedule(1, "outer", func(e *Engine) {
		got = append(got, "outer")
		// Scheduling at exactly Now is legal and runs this instant.
		e.MustSchedule(e.Now(), "inner", func(*Engine) { got = append(got, "inner") })
	})
	if err := e.Run(1); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[1] != "inner" {
		t.Errorf("got %v, want [outer inner]", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 7)
	b := NewRNG(42, 7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+stream must produce identical sequences")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := NewRNG(42, 1)
	b := NewRNG(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams look identical: %d/100 equal draws", same)
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for s := uint64(0); s < 1000; s++ {
		seed := DeriveSeed(1, s)
		if seen[seed] {
			t.Fatalf("seed collision at stream %d", s)
		}
		seen[seed] = true
	}
}

func TestUniformIn(t *testing.T) {
	r := NewRNG(1, 1)
	for i := 0; i < 1000; i++ {
		v := r.UniformIn(2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("UniformIn out of range: %v", v)
		}
	}
	if got := r.UniformIn(3, 3); got != 3 {
		t.Errorf("degenerate interval: got %v, want 3", got)
	}
	if got := r.UniformIn(5, 2); got != 5 {
		t.Errorf("inverted interval should return lo: got %v", got)
	}
}

func TestQuickHeapOrdering(t *testing.T) {
	// Property: for any multiset of event times, execution order is
	// non-decreasing in time.
	f := func(raw []uint16) bool {
		e := NewEngine()
		ordered, prev := true, -1.0
		for _, r := range raw {
			at := float64(r) / 16.0
			e.MustSchedule(at, "q", func(e *Engine) {
				ordered = ordered && e.Now() >= prev
				prev = e.Now()
			})
		}
		return e.Run(1<<16) == nil && ordered && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := NewRNG(int64(i), 0)
		for j := 0; j < 1000; j++ {
			e.MustSchedule(r.Float64()*1000, "bench", func(*Engine) {})
		}
		if err := e.Run(1001); err != nil {
			b.Fatal(err)
		}
	}
}
