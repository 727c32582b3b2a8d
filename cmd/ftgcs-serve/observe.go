package main

// observe.go is the server's observability surface: the Prometheus
// /metrics endpoint, per-job lifecycle traces, the ?watch=true SSE
// stream, the request-latency middleware, and the single stats
// snapshot both JSON endpoints serve from.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ftgcs/internal/cas"
	"ftgcs/internal/jobs"
	"ftgcs/internal/telemetry"
)

// statsSnapshot is what /v1/healthz serves, built in a single pass from
// the same telemetry-backed counters GET /metrics scrapes — so the two
// views of the service can never disagree about a number mid-scrape.
type statsSnapshot struct {
	// Status is "ok", or "degraded" while the disk-store breaker is open
	// and the manager is running memory-only (jobs still complete; results
	// are served from the LRU but not persisted). See jobs.Stats.StoreDegraded.
	Status string     `json:"status"`
	Stats  jobs.Stats `json:"stats"`
	Store  *cas.Stats `json:"store,omitempty"`
}

func (s *server) snapshotStats() statsSnapshot {
	snap := statsSnapshot{Status: "ok", Stats: s.mgr.Stats()}
	if snap.Stats.StoreDegraded {
		snap.Status = "degraded"
	}
	if s.store != nil {
		st := s.store.Stats()
		snap.Store = &st
	}
	return snap
}

// handleMetrics is GET /metrics: the Prometheus text exposition of
// every registered instrument — job lifecycle, cache tiers, store IO,
// HTTP latency.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.WritePrometheus(w)
}

// handleTrace is GET /v1/experiments/{id}/trace: the ordered span list
// of the job's lifecycle (submitted → queued → building →
// running[replicate i/n] → aggregating → storing → terminal), retained
// for completed jobs alongside their cached result. Jobs rehydrated
// from the disk store executed in another process life and carry no
// trace; canceled jobs are dropped entirely — both are 404s.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.mgr.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for experiment %q (traces cover jobs executed by this process and live alongside the cached result)", id))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleWatch is GET /v1/experiments/{id}?watch=true: a Server-Sent
// Events stream replacing poll loops. The stream opens with a "state"
// event (the current snapshot), emits "progress" events as the running
// job advances and "state" events on lifecycle transitions, and always
// terminates with a "done" event carrying the terminal snapshot — for
// already-completed (cached) jobs that is the only event. Progress is
// sampled server-side at a fixed cadence; the manager's completion
// channel ends the stream the instant the job turns terminal.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	done, snap, ok := s.mgr.Done(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q (completed results are cached with bounded capacity; resubmit to recompute)", id))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) {
		writeSSE(w, event, v)
		flusher.Flush()
	}

	last := snap()
	if last.State.Terminal() {
		emit("done", last)
		return
	}
	emit("state", last)

	tick := time.NewTicker(s.watchPoll)
	defer tick.Stop()
	// A job that sits queued behind a deep backlog emits no state or
	// progress events for arbitrarily long; periodic SSE comments keep
	// proxies and client read-timeouts from killing the stream while it
	// waits. Comments are invisible to EventSource consumers.
	keep := time.NewTicker(s.watchKeepalive)
	defer keep.Stop()
	for {
		select {
		case <-r.Context().Done():
			return // client went away
		case <-done:
			emit("done", snap())
			return
		case <-keep.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-tick.C:
			st := snap()
			if st.State.Terminal() {
				// The done channel closes under the manager's lock just
				// after the state flips; either select arm may win the
				// race, both end the stream with the terminal snapshot.
				emit("done", st)
				return
			}
			switch {
			case st.State != last.State:
				emit("state", st)
			case st.Progress != nil && (last.Progress == nil || *st.Progress != *last.Progress):
				emit("progress", st.Progress)
			}
			last = st
		}
	}
}

// writeSSE frames one Server-Sent Event. Data is a single JSON line,
// so the value never needs multi-line "data:" continuation.
func writeSSE(w http.ResponseWriter, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

// instrumented wraps the route table with the request-latency
// histogram: every request is timed and labeled with the route pattern
// it matched (the pattern, not the raw URL — content-addressed IDs
// must not explode the label space) and its status class.
func (s *server) instrumented(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		_, pattern := mux.Handler(r)
		if pattern == "" {
			pattern = "unmatched"
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(rec, r)
		s.httpDur.With(pattern, statusClass(rec.code)).Observe(time.Since(start).Seconds())
	})
}

// statusRecorder captures the response status and forwards Flush so
// the SSE stream keeps working through the middleware.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// registerStoreMetrics exports the disk store's counters and gauges at
// scrape time — the store keeps its own stats (it predates and does
// not depend on the telemetry registry), so func collectors bridge
// them without double bookkeeping.
func registerStoreMetrics(reg *telemetry.Registry, store *cas.Store) {
	stat := func(f func(cas.Stats) float64) func() float64 {
		return func() float64 { return f(store.Stats()) }
	}
	reg.GaugeFunc("ftgcs_store_objects",
		"Objects resident in the on-disk result store.",
		stat(func(s cas.Stats) float64 { return float64(s.Objects) }))
	reg.GaugeFunc("ftgcs_store_bytes",
		"Payload bytes resident in the on-disk result store.",
		stat(func(s cas.Stats) float64 { return float64(s.Bytes) }))
	reg.CounterFunc("ftgcs_store_hits_total",
		"Store reads that returned a valid object.",
		stat(func(s cas.Stats) float64 { return float64(s.Hits) }))
	reg.CounterFunc("ftgcs_store_misses_total",
		"Store reads that found no (valid) object.",
		stat(func(s cas.Stats) float64 { return float64(s.Misses) }))
	reg.CounterFunc("ftgcs_store_puts_total",
		"Objects durably written to the store.",
		stat(func(s cas.Stats) float64 { return float64(s.Puts) }))
	reg.CounterFunc("ftgcs_store_evicted_total",
		"Objects evicted by the size/age GC policy.",
		stat(func(s cas.Stats) float64 { return float64(s.Evicted) }))
	reg.CounterFunc("ftgcs_store_corrupt_total",
		"Objects that failed the checksum and were removed.",
		stat(func(s cas.Stats) float64 { return float64(s.Corrupt) }))
	reg.CounterFunc("ftgcs_store_read_bytes_total",
		"Payload bytes served by store hits.",
		stat(func(s cas.Stats) float64 { return float64(s.BytesRead) }))
	reg.CounterFunc("ftgcs_store_written_bytes_total",
		"Payload bytes persisted by store writes.",
		stat(func(s cas.Stats) float64 { return float64(s.BytesWritten) }))
}
