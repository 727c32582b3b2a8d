package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"ftgcs"
	"ftgcs/internal/admission"
	"ftgcs/internal/cas"
	"ftgcs/internal/jobs"
	"ftgcs/internal/manifest"
)

// newCustomServer is newTestServer for tests that need to pre-configure
// the server struct (admission policy, watch cadences).
func newCustomServer(t *testing.T, o jobs.Options, srv *server) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	if o.Workers == 0 {
		o.Workers = 2
	}
	mgr := jobs.NewManager(o)
	t.Cleanup(mgr.Close)
	sched := manifest.NewScheduler(mgr, ftgcs.DefaultRegistry)
	t.Cleanup(sched.Close)
	srv.mgr, srv.sched, srv.store, srv.reg, srv.workers = mgr, sched, o.Store, ftgcs.DefaultRegistry, o.Workers
	if srv.waitLimit == 0 {
		srv.waitLimit = time.Minute
	}
	ts := httptest.NewServer(newHandler(srv))
	t.Cleanup(ts.Close)
	return ts, mgr
}

// postAs POSTs a body under a client identity (X-Client-ID) and returns
// the status code, the Retry-After header, and the response body.
func postAs(t *testing.T, ts *httptest.Server, path, body, client string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), b
}

func seedSpec(seed int) string {
	return fmt.Sprintf(`{"spec": {"topology": {"name": "line", "size": 2}, "seed": %d, "horizon": {"seconds": 3}}}`, seed)
}

// rejection is the 429/503 response body shape the contract promises.
type rejection struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable"`
	Scope     string `json:"scope"`
}

// TestAdmissionPerClientFairness is the fairness acceptance proof at the
// HTTP layer: client A saturating its own share is rejected with a 429
// naming scope "client" and a Retry-After window, while client B — first
// seen after A is already cut off — submits unimpeded.
func TestAdmissionPerClientFairness(t *testing.T) {
	frozen := time.Unix(1000, 0)
	tb := admission.NewTokenBucket(admission.TokenBucketOptions{
		Rate: 100, Burst: 100,
		PerClientRate: 1, PerClientBurst: 2,
		Now: func() time.Time { return frozen },
	})
	ts, _ := newCustomServer(t, jobs.Options{}, &server{admit: tb})

	for i := 0; i < 2; i++ {
		if code, _, body := postAs(t, ts, "/v1/experiments", seedSpec(i+1), "client-a"); code != http.StatusAccepted {
			t.Fatalf("A's submission %d within its share: %d %s", i, code, body)
		}
	}
	code, retryAfter, body := postAs(t, ts, "/v1/experiments", seedSpec(3), "client-a")
	if code != http.StatusTooManyRequests {
		t.Fatalf("A's third submission should be 429, got %d %s", code, body)
	}
	if retryAfter != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (1 token deficit at 1/s, ceiled)", retryAfter)
	}
	var rej rejection
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatal(err)
	}
	if !rej.Retryable || rej.Scope != "client" {
		t.Fatalf("429 body must say retryable with scope client: %s", body)
	}

	// B is untouched by A's saturation: full fair share available.
	for i := 0; i < 2; i++ {
		if code, _, body := postAs(t, ts, "/v1/experiments", seedSpec(10+i), "client-b"); code != http.StatusAccepted {
			t.Fatalf("B starved by A (submission %d): %d %s", i, code, body)
		}
	}

	// The rejection is visible, attributed, on /metrics.
	if _, metrics := get(t, ts, "/metrics"); !strings.Contains(string(metrics),
		`ftgcs_admission_rejected_total{scope="client"} 1`) {
		t.Error("client-scoped rejection not counted on /metrics")
	}
}

// TestAdmissionGlobalExhaustion: with only the service-wide bucket
// configured, overflow is a 429 with scope "global"; a batch charges one
// token per item so it cannot slip past the accounting.
func TestAdmissionGlobalExhaustion(t *testing.T) {
	frozen := time.Unix(1000, 0)
	tb := admission.NewTokenBucket(admission.TokenBucketOptions{
		Rate: 1, Burst: 3,
		Now: func() time.Time { return frozen },
	})
	ts, _ := newCustomServer(t, jobs.Options{}, &server{admit: tb})

	// A 2-item batch costs 2 of the 3 tokens.
	batch := `{"experiments": [
		{"spec": {"topology": {"name": "line", "size": 2}, "seed": 1, "horizon": {"seconds": 3}}},
		{"spec": {"topology": {"name": "line", "size": 2}, "seed": 2, "horizon": {"seconds": 3}}}]}`
	if code, _, body := postAs(t, ts, "/v1/experiments", batch, ""); code != http.StatusOK {
		t.Fatalf("batch within budget: %d %s", code, body)
	}
	if code, _, body := postAs(t, ts, "/v1/experiments", seedSpec(3), ""); code != http.StatusAccepted {
		t.Fatalf("third token should admit a single: %d %s", code, body)
	}
	code, retryAfter, body := postAs(t, ts, "/v1/experiments", seedSpec(4), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("exhausted bucket should 429, got %d %s", code, body)
	}
	if retryAfter == "" {
		t.Fatal("429 missing Retry-After")
	}
	var rej rejection
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatal(err)
	}
	if !rej.Retryable || rej.Scope != "global" {
		t.Fatalf("429 body must say retryable with scope global: %s", body)
	}
}

// TestQueueFull503CarriesRetryAfter: the pre-existing backpressure path
// (bounded queue at capacity) now advertises when to come back.
func TestQueueFull503CarriesRetryAfter(t *testing.T) {
	release := make(chan struct{})
	ts, mgr := newCustomServer(t, jobs.Options{Workers: 1, QueueDepth: 1}, &server{})
	mgr.TestHookBeforeRun = func() { <-release }
	defer close(release)

	// One job occupies the worker (held in the hook), one fills the queue;
	// the third hits the wall.
	deadline := time.Now().Add(5 * time.Second)
	seed, got503 := 1, false
	for !got503 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		code, retryAfter, body := postAs(t, ts, "/v1/experiments", seedSpec(seed), "")
		seed++
		if code == http.StatusServiceUnavailable {
			got503 = true
			if retryAfter == "" {
				t.Fatalf("503 missing Retry-After: %s", body)
			}
			var rej rejection
			if err := json.Unmarshal(body, &rej); err != nil {
				t.Fatal(err)
			}
			if !rej.Retryable {
				t.Fatalf("queue-full 503 must be marked retryable: %s", body)
			}
		}
	}
}

// TestDegradationLadderOverHTTP walks the whole ladder through the API:
// healthy → disk failure flips /v1/healthz to "degraded" while jobs keep
// completing and serving from memory → disk heals → a cooldown probe
// write flips healthz back to "ok".
func TestDegradationLadderOverHTTP(t *testing.T) {
	ffs := &cas.FaultFS{}
	store, err := cas.Open(t.TempDir(), cas.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ts, mgr := newCustomServer(t, jobs.Options{
		Workers: 1, Store: store,
		StoreRetries: 1, StoreRetryBackoff: time.Millisecond,
		StoreFailureThreshold: 1, StoreCooldown: 20 * time.Millisecond,
	}, &server{})

	healthStatus := func() string {
		t.Helper()
		_, body := get(t, ts, "/v1/healthz")
		var snap struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Status
	}
	waitStatus := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for healthStatus() != want {
			if time.Now().After(deadline) {
				t.Fatalf("healthz never reported %q", want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if got := healthStatus(); got != "ok" {
		t.Fatalf("healthy service reports %q", got)
	}

	// Rung 1: the disk dies; the breaker opens; healthz says so.
	ffs.FailWrites(syscall.ENOSPC)
	if code, body := post(t, ts, "/v1/experiments?wait=true", seedSpec(1)); code != http.StatusOK {
		t.Fatalf("job under disk failure: %d %s", code, body)
	}
	waitStatus("degraded")

	// Rung 2: degraded ≠ down. Fresh work completes; completed work
	// serves as a memory-tier hit.
	if code, body := post(t, ts, "/v1/experiments?wait=true", seedSpec(2)); code != http.StatusOK {
		t.Fatalf("job while degraded: %d %s", code, body)
	}
	var hit statusView
	_, body := post(t, ts, "/v1/experiments?wait=true", seedSpec(1))
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.Cached != "memory" || hit.State != "done" {
		t.Fatalf("degraded manager should serve from memory: %s", body)
	}
	if s := mgr.Stats(); s.StoreErrors == 0 || s.DiskStored != 0 {
		t.Fatalf("degraded stats inconsistent: %+v", s)
	}

	// Rung 3: the disk heals; after the cooldown the next result probes,
	// succeeds, and the breaker closes.
	ffs.Heal()
	time.Sleep(30 * time.Millisecond)
	if code, body := post(t, ts, "/v1/experiments?wait=true", seedSpec(3)); code != http.StatusOK {
		t.Fatalf("job after heal: %d %s", code, body)
	}
	waitStatus("ok")
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Stats().DiskStored == 0 {
		if time.Now().After(deadline) {
			t.Fatal("durability did not resume after recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// jobID extracts the "id" field of a response body.
func jobID(t *testing.T, body []byte) string {
	t.Helper()
	var st statusView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestWatchKeepaliveWhileQueued: a ?watch=true stream on a job stuck in
// the queue emits periodic SSE keepalive comments (so proxies and client
// read-timeouts do not kill an idle stream), then the normal done event
// once the job runs.
func TestWatchKeepaliveWhileQueued(t *testing.T) {
	release := make(chan struct{})
	ts, mgr := newCustomServer(t, jobs.Options{Workers: 1}, &server{
		watchPoll:      time.Hour, // no progress sampling: keepalives are all the idle stream has
		watchKeepalive: 5 * time.Millisecond,
	})
	mgr.TestHookBeforeRun = func() { <-release }

	code, _, body := postAs(t, ts, "/v1/experiments", seedSpec(1), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	id := jobID(t, body)

	resp, err := http.Get(ts.URL + "/v1/experiments/" + id + "?watch=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// The job is parked (worker held, or queued behind the held worker):
	// the stream must still carry keepalive comments.
	sc := bufio.NewScanner(resp.Body)
	keepalives, released := 0, false
	var sawDone bool
	for sc.Scan() {
		line := sc.Text()
		if line == ": keepalive" {
			keepalives++
		}
		if keepalives >= 2 && !released {
			close(release) // let the job run; the stream should now finish
			released = true
		}
		if strings.HasPrefix(line, "event: done") {
			sawDone = true
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if keepalives < 2 {
		t.Fatalf("saw %d keepalive comments, want ≥ 2", keepalives)
	}
	if !sawDone {
		t.Fatal("stream ended without the done event")
	}
}
