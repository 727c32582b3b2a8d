package telemetry

import (
	"sync"
	"testing"
	"time"
)

// fakeClock steps a Trace's clock deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newFakeTrace() (*Trace, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr := NewTrace()
	tr.now = clk.now
	return tr, clk
}

// TestTraceLifecycle walks the full job phase chain and checks order,
// durations, and that the terminal marker plus the overlapping storing
// span come out right.
func TestTraceLifecycle(t *testing.T) {
	tr, clk := newFakeTrace()
	tr.Phase("submitted")
	clk.advance(10 * time.Millisecond)
	tr.Phase("queued")
	clk.advance(20 * time.Millisecond)
	tr.Phase("building")
	clk.advance(5 * time.Millisecond)
	tr.Phase("running[replicate 1/2]")
	clk.advance(100 * time.Millisecond)
	tr.Phase("running[replicate 2/2]")
	clk.advance(200 * time.Millisecond)
	tr.Phase("aggregating")
	clk.advance(1 * time.Millisecond)
	endStore := tr.StartSpan("storing")
	tr.Finish("done")
	clk.advance(7 * time.Millisecond)
	endStore()

	spans := tr.Snapshot()
	wantNames := []string{
		"submitted", "queued", "building",
		"running[replicate 1/2]", "running[replicate 2/2]",
		"aggregating", "storing", "done",
	}
	if len(spans) != len(wantNames) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(wantNames), spans)
	}
	wantDur := []float64{0.010, 0.020, 0.005, 0.100, 0.200, 0.001, 0.007, 0}
	for i, s := range spans {
		if s.Name != wantNames[i] {
			t.Errorf("span %d name %q, want %q", i, s.Name, wantNames[i])
		}
		if s.Open {
			t.Errorf("span %d (%s) still open", i, s.Name)
		}
		if diff := s.Duration - wantDur[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("span %d (%s) duration %v, want %v", i, s.Name, s.Duration, wantDur[i])
		}
	}
	// Start order is monotone.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Errorf("span %d starts before span %d", i, i-1)
		}
	}
}

// TestTraceOpenSpanSnapshot: snapshotting mid-phase reports the open
// span with its elapsed-so-far duration.
func TestTraceOpenSpanSnapshot(t *testing.T) {
	tr, clk := newFakeTrace()
	tr.Phase("running")
	clk.advance(50 * time.Millisecond)
	spans := tr.Snapshot()
	if len(spans) != 1 || !spans[0].Open {
		t.Fatalf("want one open span, got %+v", spans)
	}
	if spans[0].Duration != 0.05 {
		t.Errorf("open span duration %v, want 0.05", spans[0].Duration)
	}
	// A later snapshot of the still-open span shows more elapsed time.
	clk.advance(50 * time.Millisecond)
	if d := tr.Snapshot()[0].Duration; d != 0.1 {
		t.Errorf("open span duration %v, want 0.1", d)
	}
}

// TestTraceStartSpanIdempotentEnd: the closer returned by StartSpan is
// safe to call twice (the storer retries shouldn't corrupt the span).
func TestTraceStartSpanIdempotentEnd(t *testing.T) {
	tr, clk := newFakeTrace()
	end := tr.StartSpan("storing")
	clk.advance(time.Millisecond)
	end()
	clk.advance(time.Hour)
	end()
	if d := tr.Snapshot()[0].Duration; d != 0.001 {
		t.Errorf("duration %v, want 0.001 (second end call must be a no-op)", d)
	}
}

// TestTraceConcurrent hammers a trace from several goroutines under the
// race detector: phases, independent spans and snapshots must serialize
// cleanly.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Phase("p")
				end := tr.StartSpan("s")
				tr.Snapshot()
				end()
			}
		}()
	}
	wg.Wait()
	spans := tr.Snapshot()
	if len(spans) != 4*100*2 {
		t.Fatalf("got %d spans, want %d", len(spans), 4*100*2)
	}
}
