package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ftgcs"
	"ftgcs/internal/jobs"
	"ftgcs/internal/manifest"
)

// newObserveServer is newTestServer with a fast watch poll so SSE tests
// do not sleep through 100ms sampling ticks.
func newObserveServer(t *testing.T, o jobs.Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	if o.Workers == 0 {
		o.Workers = 2
	}
	mgr := jobs.NewManager(o)
	t.Cleanup(mgr.Close)
	sched := manifest.NewScheduler(mgr, ftgcs.DefaultRegistry)
	t.Cleanup(sched.Close)
	srv := &server{mgr: mgr, sched: sched, store: o.Store, reg: ftgcs.DefaultRegistry,
		workers: o.Workers, waitLimit: time.Minute, watchPoll: 2 * time.Millisecond}
	ts := httptest.NewServer(newHandler(srv))
	t.Cleanup(ts.Close)
	return ts, mgr
}

// TestMetricsEndpoint: after one full job, GET /metrics exposes the job
// lifecycle counters, the queue-wait histogram and the HTTP latency
// histogram labeled by route pattern — in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newObserveServer(t, jobs.Options{})
	if code, body := post(t, ts, "/v1/experiments?wait=true", lineSpec); code != http.StatusOK {
		t.Fatalf("POST: %d %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := readAll(t, resp)

	for _, want := range []string{
		"# TYPE ftgcs_jobs_submitted_total counter",
		"ftgcs_jobs_submitted_total 1",
		"ftgcs_jobs_runs_total 1",
		`ftgcs_jobs_terminal_total{state="done"} 1`,
		"# TYPE ftgcs_jobs_queue_wait_seconds histogram",
		"ftgcs_jobs_queue_wait_seconds_count 1",
		`ftgcs_jobs_run_duration_seconds_count{outcome="done"} 1`,
		"# TYPE ftgcs_jobs_queue_depth gauge",
		"# TYPE ftgcs_http_request_duration_seconds histogram",
		`route="POST /v1/experiments"`,
		`status="2xx"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestMetricsCapacityGauges: /metrics exposes the worker capacity and
// GOMAXPROCS, so a slow hit can be told apart from a front end that had
// no processor to run on.
func TestMetricsCapacityGauges(t *testing.T) {
	ts, _ := newObserveServer(t, jobs.Options{Workers: 3})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, want := range []string{
		"# TYPE ftgcs_jobs_workers gauge",
		"\nftgcs_jobs_workers 3\n",
		"# TYPE ftgcs_go_maxprocs gauge",
		fmt.Sprintf("\nftgcs_go_maxprocs %d\n", runtime.GOMAXPROCS(0)),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", strings.TrimSpace(want))
		}
	}
}

// TestTraceEndpoint: a replicated job's trace walks the whole lifecycle
// in order — submitted → queued → building → running[replicate i/n] →
// aggregating → done — with every span closed; unknown IDs are 404.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := newObserveServer(t, jobs.Options{})
	spec := `{"spec": {"topology": {"name": "line", "size": 2}, "seed": 1, "horizon": {"seconds": 3}}, "replicate": 2}`
	code, body := post(t, ts, "/v1/experiments?wait=true", spec)
	if code != http.StatusOK {
		t.Fatalf("POST: %d %s", code, body)
	}
	var st statusView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	code, body = get(t, ts, "/v1/experiments/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: %d %s", code, body)
	}
	var info struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Spans []struct {
			Name     string  `json:"name"`
			Duration float64 `json:"durationSeconds"`
			Open     bool    `json:"open"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != st.ID || info.State != "done" {
		t.Fatalf("trace envelope: %s", body)
	}
	var names []string
	for _, sp := range info.Spans {
		if sp.Open {
			t.Errorf("span %q still open in a terminal trace", sp.Name)
		}
		if sp.Duration < 0 {
			t.Errorf("span %q has negative duration %v", sp.Name, sp.Duration)
		}
		names = append(names, sp.Name)
	}
	want := []string{"submitted", "queued", "building",
		"running[replicate 1/2]", "running[replicate 2/2]", "aggregating", "done"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("span names = %v, want %v", names, want)
	}

	if code, _ := get(t, ts, "/v1/experiments/sha256:nope/trace"); code != http.StatusNotFound {
		t.Errorf("unknown trace: %d, want 404", code)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes a stream until EOF, returning the events in order.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

// TestWatchTerminalJob: watching an already-completed job yields exactly
// one "done" event carrying the terminal snapshot, then the stream ends.
func TestWatchTerminalJob(t *testing.T) {
	ts, _ := newObserveServer(t, jobs.Options{})
	code, body := post(t, ts, "/v1/experiments?wait=true", lineSpec)
	if code != http.StatusOK {
		t.Fatalf("POST: %d %s", code, body)
	}
	var st statusView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/experiments/" + st.ID + "?watch=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, resp)
	if len(events) != 1 || events[0].event != "done" {
		t.Fatalf("want single done event, got %+v", events)
	}
	var final statusView
	if err := json.Unmarshal([]byte(events[0].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.ID != st.ID {
		t.Errorf("terminal snapshot = %s", events[0].data)
	}
}

// TestWatchStreamsUntilTerminal: watching a live job opens with a
// "state" event, streams ordered events while the job runs, and always
// terminates with a "done" event carrying the terminal state — here
// "canceled", exercising the done-channel wakeup rather than a poll.
func TestWatchStreamsUntilTerminal(t *testing.T) {
	ts, _ := newObserveServer(t, jobs.Options{Workers: 1})
	// A horizon long enough that the job is still running when the DELETE
	// lands; cancellation is bounded by a handful of simulation events.
	long := `{"spec": {"topology": {"name": "line", "size": 2}, "seed": 9, "horizon": {"seconds": 100000}}}`
	code, body := post(t, ts, "/v1/experiments", long)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %s", code, body)
	}
	var st statusView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/experiments/" + st.ID + "?watch=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Parse the stream incrementally: after the first event arrives,
	// cancel the job so the stream must terminate with "done".
	sc := bufio.NewScanner(resp.Body)
	var events []sseEvent
	var cur sseEvent
	canceled := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			events = append(events, cur)
			cur = sseEvent{}
			if !canceled {
				canceled = true
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/experiments/"+st.ID, nil)
				if _, err := http.DefaultClient.Do(req); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}

	if len(events) < 2 {
		t.Fatalf("want at least state+done events, got %+v", events)
	}
	if events[0].event != "state" {
		t.Errorf("first event = %q, want state", events[0].event)
	}
	last := events[len(events)-1]
	if last.event != "done" {
		t.Fatalf("last event = %q, want done (events: %+v)", last.event, events)
	}
	for _, e := range events[:len(events)-1] {
		if e.event == "done" {
			t.Errorf("done event before end of stream: %+v", events)
		}
	}
	var final statusView
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "canceled" {
		t.Errorf("terminal state = %q, want canceled", final.State)
	}
}

// TestWatchUnknownJob: watch on an unknown ID is a plain JSON 404, not a
// stream.
func TestWatchUnknownJob(t *testing.T) {
	ts, _ := newObserveServer(t, jobs.Options{})
	code, body := get(t, ts, "/v1/experiments/sha256:nope?watch=true")
	if code != http.StatusNotFound {
		t.Fatalf("watch unknown: %d %s", code, body)
	}
}

// TestStatsHealthzShareSnapshot: the stats /v1/healthz embeds come from
// the manager's telemetry-backed counters, and healthz is the one JSON
// stats view — there is no separate /v1/stats route.
func TestStatsHealthzShareSnapshot(t *testing.T) {
	ts, mgr := newObserveServer(t, jobs.Options{})
	if code, body := post(t, ts, "/v1/experiments?wait=true", lineSpec); code != http.StatusOK {
		t.Fatalf("POST: %d %s", code, body)
	}

	var health struct {
		Status string     `json:"status"`
		Stats  jobs.Stats `json:"stats"`
	}
	if code, body := get(t, ts, "/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	} else if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status = %q", health.Status)
	}
	// The cumulative counters agree between healthz and the manager
	// (gauges can legitimately differ between two instants).
	for _, s := range []jobs.Stats{health.Stats, mgr.Stats()} {
		if s.Submitted != 1 || s.Runs != 1 || s.Completed != 1 {
			t.Errorf("counters disagree: %+v", s)
		}
	}
	if code, _ := get(t, ts, "/v1/stats"); code != http.StatusNotFound {
		t.Errorf("GET /v1/stats = %d, want 404", code)
	}
}

// TestPprofGated: /debug/pprof/ is 404 without -pprof and serves the
// index with it.
func TestPprofGated(t *testing.T) {
	ts, _ := newObserveServer(t, jobs.Options{})
	if code, _ := get(t, ts, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof without flag: %d, want 404", code)
	}

	mgr := jobs.NewManager(jobs.Options{Workers: 1})
	t.Cleanup(mgr.Close)
	sched := manifest.NewScheduler(mgr, ftgcs.DefaultRegistry)
	t.Cleanup(sched.Close)
	on := httptest.NewServer(newHandler(&server{mgr: mgr, sched: sched, reg: ftgcs.DefaultRegistry,
		waitLimit: time.Minute, enablePprof: true}))
	t.Cleanup(on.Close)
	if code, body := get(t, on, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof with flag: %d %s", code, body)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
