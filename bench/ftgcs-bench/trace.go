package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// harness around a call into the program under test (or, for the server's
// job phases, copied from the program's own public job trace). Times are
// nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int    `json:"op"`     // the operation this span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced runs share the workload code without paying
// for the spans.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (the handle for end and the
// parent for children); -1 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval given in wall-clock time (the
// server's job phases arrive this way).
func (t *tracer) add(name string, start time.Time, d time.Duration, parent, op int) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Op: op})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// checkNesting verifies the structural claims the per-layer numbers rest
// on: every span is closed, every child lies inside its parent (slack
// absorbs the clock difference between the harness and spans copied from
// the server's trace), a child carries its parent's op id, and each op id
// has exactly one root.
func checkNesting(spans []span, slack time.Duration) error {
	roots := map[int]int{}
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) is not closed", i, s.Name)
		}
		if s.Parent < 0 {
			roots[s.Op]++
			continue
		}
		if s.Parent >= len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Op != s.Op {
			return fmt.Errorf("span %d (%s) op %d differs from its parent's op %d", i, s.Name, s.Op, p.Op)
		}
		if s.Start < p.Start-slack.Nanoseconds() || s.End > p.End+slack.Nanoseconds() {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for op, n := range roots {
		if n != 1 {
			return fmt.Errorf("op %d has %d root spans", op, n)
		}
	}
	return nil
}

// spanTotals sums durations by span name (seconds).
func spanTotals(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// writeSpans writes the span list to <dir>/<workload>.trace.json.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
