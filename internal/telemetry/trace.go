package telemetry

import (
	"sync"
	"time"
)

// Trace is an ordered record of one job's lifecycle: a chain of named
// phases (submitted → queued → building → running[replicate i/n] →
// aggregating → …), each spanning the wall-clock interval from its
// start to the start of the next, plus independent overlapping spans
// (a write-behind disk store runs concurrently with the terminal
// marker) and zero-duration markers for terminal states.
//
// Writers are the job pipeline's own goroutines; readers snapshot
// concurrently. All methods are safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	spans []traceSpan
	// chain is the index of the currently open chained phase, -1 when
	// none is open.
	chain int
	// now stamps spans; tests override it for deterministic durations.
	now func() time.Time
}

type traceSpan struct {
	name  string
	start time.Time
	end   time.Time
	open  bool
}

// Span is one snapshot entry: the phase name, when it started, and how
// long it lasted. Open spans (still in progress at snapshot time)
// report the elapsed duration so far.
type Span struct {
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"durationSeconds"`
	Open     bool      `json:"open,omitempty"`
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{chain: -1, now: time.Now}
}

// Phase closes the currently open chained phase (if any) and opens a
// new one: the standard lifecycle transition.
func (t *Trace) Phase(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.closeChainLocked(now)
	t.chain = len(t.spans)
	t.spans = append(t.spans, traceSpan{name: name, start: now, open: true})
}

// Finish closes the open chained phase and appends the terminal marker.
func (t *Trace) Finish(terminal string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.closeChainLocked(now)
	t.spans = append(t.spans, traceSpan{name: terminal, start: now, end: now})
}

// StartSpan opens an independent span that overlaps whatever else the
// trace records, and returns the function that closes it. Used for
// work that escapes the phase chain, like the asynchronous disk-store
// write that completes after the job is already terminal.
func (t *Trace) StartSpan(name string) (end func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := len(t.spans)
	t.spans = append(t.spans, traceSpan{name: name, start: t.now(), open: true})
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			defer t.mu.Unlock()
			t.spans[idx].end = t.now()
			t.spans[idx].open = false
		})
	}
}

func (t *Trace) closeChainLocked(now time.Time) {
	if t.chain >= 0 {
		t.spans[t.chain].end = now
		t.spans[t.chain].open = false
		t.chain = -1
	}
}

// Snapshot returns the spans in start order. Still-open spans report
// their elapsed duration and Open=true.
func (t *Trace) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make([]Span, len(t.spans))
	for i, s := range t.spans {
		end := s.end
		if s.open {
			end = now
		}
		out[i] = Span{
			Name:     s.name,
			Start:    s.start,
			Duration: end.Sub(s.start).Seconds(),
			Open:     s.open,
		}
	}
	return out
}
