package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// selfFeeding schedules an event chain that never drains: each firing
// schedules the next, dt apart. Returns the counter of fired events.
func selfFeeding(e *Engine, dt float64) *int {
	fired := new(int)
	var tick func(e *Engine)
	tick = func(e *Engine) {
		*fired++
		e.MustSchedule(e.Now()+dt, "tick", tick)
	}
	e.MustSchedule(dt, "tick", tick)
	return fired
}

// TestRunContextCancelFromAnotherGoroutine cancels a running engine via
// context and checks the run aborts with ctx.Err(), leaving time where
// the run stopped rather than at the horizon.
func TestRunContextCancelFromAnotherGoroutine(t *testing.T) {
	e := NewEngine()
	selfFeeding(e, 1e-6)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.RunContext(ctx, 1e18) }()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancel")
	}
	if e.Now() >= 1e18 {
		t.Fatalf("engine time jumped to the horizon (%g) on cancellation", e.Now())
	}
	if e.Pending() == 0 {
		t.Fatal("cancellation drained the queue; pending events must survive")
	}
}

// TestRunContextPreCanceled: an already-done context aborts before any
// event fires.
func TestRunContextPreCanceled(t *testing.T) {
	e := NewEngine()
	fired := selfFeeding(e, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if *fired != 0 {
		t.Fatalf("fired %d events under a pre-canceled context, want 0", *fired)
	}
}

// TestRunContextResumesDeterministically: canceling a run and resuming it
// fires exactly the events an uninterrupted run fires, in the same order
// at the same times.
func TestRunContextResumesDeterministically(t *testing.T) {
	trace := func(interrupt bool) []Time {
		e := NewEngine()
		var times []Time
		var tick func(e *Engine)
		tick = func(e *Engine) {
			times = append(times, e.Now())
			if len(times) < 5000 {
				e.MustSchedule(e.Now()+1e-3, "tick", tick)
			}
		}
		e.MustSchedule(1e-3, "tick", tick)
		if interrupt {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(time.Millisecond)
				cancel()
			}()
			err := e.RunContext(ctx, 100)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v", err)
			}
		}
		if err := e.Run(100); err != nil {
			t.Fatalf("Run = %v", err)
		}
		return times
	}
	full, resumed := trace(false), trace(true)
	if len(full) != len(resumed) {
		t.Fatalf("event counts differ: %d vs %d", len(full), len(resumed))
	}
	for i := range full {
		if full[i] != resumed[i] {
			t.Fatalf("event %d fired at %g resumed vs %g uninterrupted", i, resumed[i], full[i])
		}
	}
}

// TestProgressConcurrentMonotone polls Progress from another goroutine
// while the engine runs; every sample must be monotone and the final
// snapshot must match the terminal engine state.
func TestProgressConcurrentMonotone(t *testing.T) {
	e := NewEngine()
	var count int
	var tick func(e *Engine)
	tick = func(e *Engine) {
		count++
		if count < 200000 {
			e.MustSchedule(e.Now()+1e-6, "tick", tick)
		}
	}
	e.MustSchedule(1e-6, "tick", tick)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Progress
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := e.Progress()
			if p.Events < last.Events || p.Now < last.Now {
				t.Errorf("progress went backwards: %+v after %+v", p, last)
				return
			}
			last = p
		}
	}()
	if err := e.Run(100); err != nil {
		t.Fatalf("Run = %v", err)
	}
	close(stop)
	wg.Wait()
	p := e.Progress()
	if p.Events != e.Processed() {
		t.Fatalf("final Progress.Events = %d, Processed = %d", p.Events, e.Processed())
	}
	if p.Now != e.Now() {
		t.Fatalf("final Progress.Now = %g, Now = %g", p.Now, e.Now())
	}
}
