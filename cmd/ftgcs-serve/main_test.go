package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftgcs"
	"ftgcs/internal/jobs"
	"ftgcs/internal/manifest"
)

func newTestServer(t *testing.T, o jobs.Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	if o.Workers == 0 {
		o.Workers = 2
	}
	mgr := jobs.NewManager(o)
	t.Cleanup(mgr.Close)
	sched := manifest.NewScheduler(mgr, ftgcs.DefaultRegistry)
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(newHandler(&server{mgr: mgr, sched: sched, store: o.Store, reg: ftgcs.DefaultRegistry, workers: o.Workers, waitLimit: time.Minute}))
	t.Cleanup(ts.Close)
	return ts, mgr
}

const lineSpec = `{"spec": {"topology": {"name": "line", "size": 2}, "seed": 1, "horizon": {"seconds": 3}}}`

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// statusView decodes only the envelope fields; result stays raw so byte
// identity can be asserted exactly.
type statusView struct {
	ID       string          `json:"id"`
	SpecHash string          `json:"specHash"`
	State    string          `json:"state"`
	Cached   string          `json:"cached"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// TestSubmitTwiceIsCacheHitByteIdentical is the acceptance test:
// submitting the same spec twice runs the simulation once — the second
// POST returns a cache-hit marker and byte-identical result JSON.
func TestSubmitTwiceIsCacheHitByteIdentical(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Options{})

	code1, body1 := post(t, ts, "/v1/experiments?wait=true", lineSpec)
	if code1 != http.StatusOK {
		t.Fatalf("first POST: %d %s", code1, body1)
	}
	var st1 statusView
	if err := json.Unmarshal(body1, &st1); err != nil {
		t.Fatal(err)
	}
	if st1.State != "done" || st1.Cached != "" || len(st1.Result) == 0 {
		t.Fatalf("first POST should complete fresh: %+v", st1)
	}

	code2, body2 := post(t, ts, "/v1/experiments?wait=true", lineSpec)
	if code2 != http.StatusOK {
		t.Fatalf("second POST: %d %s", code2, body2)
	}
	var st2 statusView
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Cached != "memory" {
		t.Fatalf("second POST must be a cache hit: %s", body2)
	}
	if st2.ID != st1.ID {
		t.Fatalf("content-addressed IDs differ: %s vs %s", st2.ID, st1.ID)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Fatalf("cache hit result not byte-identical:\n%s\n%s", st1.Result, st2.Result)
	}
	// The full responses differ only in the cache-hit marker.
	norm := bytes.Replace(body2, []byte(`,"cached":"memory"`), nil, 1)
	if !bytes.Equal(body1, norm) {
		t.Fatalf("responses differ beyond the cached marker:\n%s\n%s", body1, body2)
	}
	if s := mgr.Stats(); s.Runs != 1 {
		t.Fatalf("simulation must run exactly once, ran %d times", s.Runs)
	}
}

// TestConcurrentSubmissionsRunOnce: many clients POST the same spec at
// once; the work coalesces onto one run and everyone gets identical
// result bytes.
func TestConcurrentSubmissionsRunOnce(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Options{Workers: 4})

	const clients = 12
	results := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/experiments?wait=true", "application/json", strings.NewReader(lineSpec))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			var st statusView
			if err := json.Unmarshal(body, &st); err != nil {
				errs[i] = fmt.Errorf("%w: %s", err, body)
				return
			}
			if st.State != "done" {
				errs[i] = fmt.Errorf("state %q", st.State)
				return
			}
			results[i] = st.Result
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("client %d saw different result bytes", i)
		}
	}
	if s := mgr.Stats(); s.Runs != 1 {
		t.Fatalf("concurrent identical submissions must run once, ran %d times", s.Runs)
	}
}

// TestCoalescedWaitCarriesCallerName: a ?wait=true submission that
// coalesces onto another submitter's in-flight job must get its own
// display name back, not the first submitter's.
func TestCoalescedWaitCarriesCallerName(t *testing.T) {
	mgr := jobs.NewManager(jobs.Options{Workers: 1})
	defer mgr.Close()
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()
	mgr.TestHookBeforeRun = func() { <-gate }
	ts := httptest.NewServer(newHandler(&server{mgr: mgr, reg: ftgcs.DefaultRegistry, waitLimit: time.Minute}))
	defer ts.Close()

	// Submitter "alpha" goes first, async; the gated worker holds its job
	// in flight.
	code, _ := post(t, ts, "/v1/experiments",
		`{"spec":{"name":"alpha","topology":{"name":"line","size":2},"seed":77,"horizon":{"seconds":3}}}`)
	if code != http.StatusAccepted {
		t.Fatalf("async POST should 202: %d", code)
	}

	// Submitter "beta" coalesces and blocks for the result.
	type reply struct {
		code int
		body []byte
		err  error
	}
	ch := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/experiments?wait=true", "application/json",
			strings.NewReader(`{"spec":{"name":"beta","topology":{"name":"line","size":2},"seed":77,"horizon":{"seconds":3}}}`))
		if err != nil {
			ch <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		ch <- reply{code: resp.StatusCode, body: b, err: err}
	}()
	// Release the worker only once beta has attached to alpha's job.
	for mgr.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	openGate()

	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	var st struct {
		State  string `json:"state"`
		Result struct {
			Name string `json:"name"`
		} `json:"result"`
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		t.Fatal(err)
	}
	if r.code != http.StatusOK || st.State != "done" {
		t.Fatalf("coalesced wait: %d %s", r.code, r.body)
	}
	if st.Result.Name != "beta" {
		t.Fatalf("coalesced waiter got result named %q, want its own \"beta\":\n%s", st.Result.Name, r.body)
	}
}

// TestBatchMarksRetryableBackpressure: batch items rejected by the full
// queue are transient failures and must be marked retryable, unlike
// deterministic spec failures.
func TestBatchMarksRetryableBackpressure(t *testing.T) {
	mgr := jobs.NewManager(jobs.Options{Workers: 1, QueueDepth: 1})
	defer mgr.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()
	mgr.TestHookBeforeRun = func() {
		entered <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(newHandler(&server{mgr: mgr, reg: ftgcs.DefaultRegistry, waitLimit: time.Minute}))
	defer ts.Close()

	// Occupy the single worker first — once it is gated inside the hook
	// the queue can no longer drain — then fill the one-slot queue until
	// the single-spec path reports backpressure (503).
	if code, body := post(t, ts, "/v1/experiments",
		`{"spec":{"topology":{"name":"line","size":2},"seed":60,"horizon":{"seconds":3}}}`); code != http.StatusAccepted {
		t.Fatalf("occupying submit: %d %s", code, body)
	}
	<-entered
	for seed := int64(61); ; seed++ {
		code, _ := post(t, ts, "/v1/experiments",
			fmt.Sprintf(`{"spec":{"topology":{"name":"line","size":2},"seed":%d,"horizon":{"seconds":3}}}`, seed))
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("filler submit: %d", code)
		}
	}

	type item struct {
		State     string `json:"state"`
		Error     string `json:"error"`
		Retryable bool   `json:"retryable"`
	}
	postBatch := func(payload string) []item {
		t.Helper()
		code, body := post(t, ts, "/v1/experiments", payload)
		if code != http.StatusOK {
			t.Fatalf("batch POST: %d %s", code, body)
		}
		var out struct {
			Jobs []item `json:"jobs"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.Jobs
	}

	// Under backpressure every non-cached item sheds as retryable (load
	// shedding fast-fails before validation).
	jobsOut := postBatch(`{"experiments":[{"spec":{"topology":{"name":"line","size":2},"seed":90,"horizon":{"seconds":3}}}]}`)
	if len(jobsOut) != 1 || jobsOut[0].State != "failed" || !jobsOut[0].Retryable || !strings.Contains(jobsOut[0].Error, "queue full") {
		t.Fatalf("backpressured item must be failed+retryable: %+v", jobsOut)
	}

	// Once the queue drains, a deterministic spec failure is final — not
	// retryable.
	openGate()
	for {
		if s := mgr.Stats(); s.Queued == 0 && s.Running == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	jobsOut = postBatch(`{"experiments":[{"spec":{"topology":{"name":"moebius","size":3}}}]}`)
	if len(jobsOut) != 1 || jobsOut[0].State != "failed" || jobsOut[0].Retryable || !strings.Contains(jobsOut[0].Error, "unknown topology") {
		t.Fatalf("deterministic failure must not be retryable: %+v", jobsOut)
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	code, body := post(t, ts, "/v1/experiments", lineSpec)
	if code != http.StatusAccepted {
		t.Fatalf("async POST should 202: %d %s", code, body)
	}
	var st statusView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "queued" && st.State != "running" {
		t.Fatalf("async submission state: %+v", st)
	}

	code, body = get(t, ts, "/v1/experiments/"+st.ID+"?wait=true")
	if code != http.StatusOK {
		t.Fatalf("poll: %d %s", code, body)
	}
	var final statusView
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || len(final.Result) == 0 {
		t.Fatalf("poll result: %+v", final)
	}
}

func TestBatchSubmit(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Options{})

	batch := `{"experiments": [
		{"spec": {"topology": {"name": "line", "size": 2}, "seed": 11, "horizon": {"seconds": 3}}},
		{"spec": {"topology": {"name": "ring", "size": 3}, "seed": 12, "horizon": {"seconds": 3}}},
		{"spec": {"topology": {"name": "moebius", "size": 3}}}
	]}`
	code, body := post(t, ts, "/v1/experiments?wait=true", batch)
	if code != http.StatusOK {
		t.Fatalf("batch POST: %d %s", code, body)
	}
	var out struct {
		Jobs []statusView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("want 3 batch entries, got %d", len(out.Jobs))
	}
	if out.Jobs[0].State != "done" || out.Jobs[1].State != "done" {
		t.Fatalf("valid batch entries should complete: %+v", out.Jobs[:2])
	}
	if out.Jobs[2].State != "failed" || !strings.Contains(out.Jobs[2].Error, "unknown topology") {
		t.Fatalf("invalid batch entry should fail in place: %+v", out.Jobs[2])
	}
	if s := mgr.Stats(); s.Runs != 2 {
		t.Fatalf("want 2 runs, got %+v", s)
	}
}

func TestReplicatedSubmit(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	body := `{"spec": {"topology": {"name": "line", "size": 2}, "seed": 21, "horizon": {"seconds": 3}}, "replicate": 3}`
	code, resp := post(t, ts, "/v1/experiments?wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("replicated POST: %d %s", code, resp)
	}
	var st struct {
		State  string `json:"state"`
		Result struct {
			Replicates struct {
				N         int     `json:"n"`
				Seeds     []int64 `json:"seeds"`
				Aggregate struct {
					LocalSkew struct {
						N    int     `json:"n"`
						Mean float64 `json:"mean"`
					} `json:"localSkew"`
				} `json:"aggregate"`
			} `json:"replicates"`
		} `json:"result"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}
	r := st.Result.Replicates
	if st.State != "done" || r.N != 3 || len(r.Seeds) != 3 || r.Aggregate.LocalSkew.N != 3 {
		t.Fatalf("replicated result wrong: %s", resp)
	}
	if r.Aggregate.LocalSkew.Mean <= 0 {
		t.Fatalf("aggregate mean should be positive: %s", resp)
	}
}

func TestRegistryAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	code, body := get(t, ts, "/v1/registry")
	if code != http.StatusOK {
		t.Fatalf("registry: %d", code)
	}
	var reg struct {
		Topologies []string `json:"topologies"`
		Drifts     []string `json:"drifts"`
		Delays     []string `json:"delays"`
		Attacks    []string `json:"attacks"`
		Presets    []string `json:"presets"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	has := func(xs []string, want string) bool {
		for _, x := range xs {
			if x == want {
				return true
			}
		}
		return false
	}
	if !has(reg.Topologies, "torus") || !has(reg.Drifts, "sine") || !has(reg.Delays, "uniform") || len(reg.Attacks) == 0 {
		t.Fatalf("registry listing incomplete: %s", body)
	}

	code, body = get(t, ts, "/v1/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"status":"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	// Unknown registry name → 400 with the registry's error.
	code, body := post(t, ts, "/v1/experiments", `{"spec": {"topology": {"name": "moebius", "size": 3}}}`)
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("unknown topology")) {
		t.Fatalf("unknown name: %d %s", code, body)
	}
	// Schema typo → 400 (unknown fields rejected).
	code, body = post(t, ts, "/v1/experiments", `{"spec": {"topology": {"name": "line", "size": 3}, "sede": 1}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("typo field: %d %s", code, body)
	}
	// Malformed JSON → 400.
	code, _ = post(t, ts, "/v1/experiments", `{`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", code)
	}
	// Neither spec nor experiments → 400; so is an empty batch.
	code, _ = post(t, ts, "/v1/experiments", `{}`)
	if code != http.StatusBadRequest {
		t.Fatalf("empty envelope: %d", code)
	}
	code, _ = post(t, ts, "/v1/experiments", `{"experiments":[]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	// Oversized topology → 400 via the spec resource bounds.
	code, body = post(t, ts, "/v1/experiments", `{"spec": {"topology": {"name": "clique", "size": 1000000}}}`)
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("exceeds limit")) {
		t.Fatalf("oversized topology: %d %s", code, body)
	}
	// Unknown job → 404.
	code, _ = get(t, ts, "/v1/experiments/sha256:deadbeef")
	if code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}
}

// TestUnbuildableSpecIs400: a spec the model cannot build is a 400 at
// POST on both submission routes — never an accepted job that fails on a
// worker and is then served as a cached failure. No job is created and
// no run is spent.
func TestUnbuildableSpecIs400(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Options{})

	const line = `"topology": {"name": "line", "size": 2}, "horizon": {"seconds": 3}`
	for _, tc := range []struct{ name, fields, want string }{
		{"eps", `"constants": {"eps": 0.7}`, "must be in (0, 1/2)"},
		{"c2 infeasible", `"constants": {"c2": 1e6}`, "infeasible"},
		{"c2 negative", `"constants": {"c2": -1}`, "c2=-1"},
		{"rho infeasible", `"physical": {"rho": 0.2}`, "infeasible"},
		{"k < 3f+1", `"clusters": {"k": 4, "f": 2}`, "3f+1"},
		{"two faults on one node", `"faults": [{"node": 0, "attack": "silent"}, {"node": 0, "crashAt": 1}]`, "duplicate fault"},
		{"attack plant on a faulty node", `"attack": {"name": "silent"}, "faults": [{"node": 3, "crashAt": 1}]`, "duplicate fault"},
	} {
		spec := `{` + line + `, ` + tc.fields + `}`
		for _, route := range []struct{ path, body string }{
			{"/v1/experiments", `{"spec": ` + spec + `}`},
			{"/v1/manifests", `{"base": ` + spec + `, "arms": [{"name": "a"}]}`},
		} {
			code, body := post(t, ts, route.path, route.body)
			if code != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.want)) {
				t.Errorf("%s on %s: %d %s, want 400 containing %q", tc.name, route.path, code, body, tc.want)
			}
			if bytes.Contains(body, []byte("retryable")) {
				t.Errorf("%s on %s: a spec error must not be retryable: %s", tc.name, route.path, body)
			}
		}
	}
	if s := mgr.Stats(); s.Submitted != 0 || s.Runs != 0 {
		t.Fatalf("unbuildable specs reached the manager: %+v", s)
	}
	if _, metrics := get(t, ts, "/metrics"); !bytes.Contains(metrics, []byte("ftgcs_jobs_runs_total 0")) {
		t.Fatalf("unbuildable specs consumed a run:\n%s", metrics)
	}
}

// TestOversizedBodyIs413: both submission routes stop reading at
// maxBodyBytes and answer 413 with the usual error JSON, however
// well-formed the oversized document is.
func TestOversizedBodyIs413(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Options{})

	pad := strings.Repeat("a", maxBodyBytes)
	for _, tc := range []struct{ path, body string }{
		{"/v1/experiments", `{"spec": {"name": "` + pad + `", "topology": {"name": "line", "size": 2}}}`},
		{"/v1/manifests", `{"name": "` + pad + `", "arms": [{"name": "a"}]}`},
	} {
		code, body := post(t, ts, tc.path, tc.body)
		var e struct {
			Error string `json:"error"`
		}
		if code != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &e) != nil || e.Error == "" {
			t.Errorf("POST %s with a %d-byte body: %d %.200s, want 413 with an error message", tc.path, len(tc.body), code, body)
		}
	}
	if s := mgr.Stats(); s.Submitted != 0 {
		t.Errorf("oversized bodies must not create work: %+v", s)
	}
}

// longLineSpec is validation-legal but heavy enough to still be running
// when tests cancel it.
const longLineSpec = `{"spec": {"topology": {"name": "line", "size": 2}, "seed": 99, "horizon": {"seconds": 50000}}}`

// TestCancelEndpoint is the service-level acceptance criterion: DELETE on
// a running long-horizon job returns within 250ms with state canceled,
// the worker slot is freed (a subsequent submit runs), the canceled spec
// is absent from the result cache, and a running job's GET payload shows
// monotonically advancing progress.
func TestCancelEndpoint(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Options{Workers: 1})

	code, body := post(t, ts, "/v1/experiments", longLineSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit long job: %d %s", code, body)
	}
	var st statusView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Poll GET until the job runs and shows progress; samples must be
	// monotone.
	type progView struct {
		State    string `json:"state"`
		Progress *struct {
			Events      uint64  `json:"events"`
			SimFraction float64 `json:"simFraction"`
		} `json:"progress"`
	}
	var lastEvents uint64
	var lastFraction float64
	samples := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && samples < 5 {
		_, b := get(t, ts, "/v1/experiments/"+st.ID)
		var pv progView
		if err := json.Unmarshal(b, &pv); err != nil {
			t.Fatal(err)
		}
		if pv.State != "running" || pv.Progress == nil || pv.Progress.Events == 0 {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if pv.Progress.Events < lastEvents || pv.Progress.SimFraction < lastFraction {
			t.Fatalf("progress regressed: %+v after events=%d fraction=%g", pv.Progress, lastEvents, lastFraction)
		}
		lastEvents, lastFraction = pv.Progress.Events, pv.Progress.SimFraction
		samples++
	}
	if samples == 0 {
		t.Fatal("never observed running progress in GET payloads")
	}

	// DELETE: prompt, terminal, retryable.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/experiments/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, b)
	}
	var canceled struct {
		State     string `json:"state"`
		Retryable bool   `json:"retryable"`
	}
	if err := json.Unmarshal(b, &canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.State != "canceled" || !canceled.Retryable {
		t.Fatalf("DELETE should report canceled+retryable: %s", b)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("DELETE of a running job took %v, want < 250ms", elapsed)
	}

	// Absent from the cache: GET is now a 404, and resubmitting the same
	// spec runs it again instead of hitting the cache.
	if code, _ := get(t, ts, "/v1/experiments/"+st.ID); code != http.StatusNotFound {
		t.Fatalf("GET after cancel: %d, want 404", code)
	}
	code, body = post(t, ts, "/v1/experiments", longLineSpec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after cancel should be accepted fresh: %d %s", code, body)
	}
	var re statusView
	if err := json.Unmarshal(body, &re); err != nil {
		t.Fatal(err)
	}
	if re.Cached != "" {
		t.Fatalf("resubmission of canceled spec served from cache: %s", body)
	}
	if _, err := mgr.Cancel(re.ID); err != nil {
		t.Fatal(err)
	}

	// The worker slot is free: an unrelated quick job completes.
	code, body = post(t, ts, "/v1/experiments?wait=true", lineSpec)
	if code != http.StatusOK {
		t.Fatalf("post-cancel submit: %d %s", code, body)
	}
	var done statusView
	if err := json.Unmarshal(body, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != "done" {
		t.Fatalf("worker slot not freed after DELETE: %s", body)
	}

	// Canceling terminal work: 409, cached result intact. Unknown: 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/experiments/"+done.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE of done job: %d, want 409", resp2.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/experiments/sha256:deadbeef", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE of unknown job: %d, want 404", resp3.StatusCode)
	}
}

// TestWaiterGetsCanceledSnapshot: a client blocked on ?wait=true whose
// job is canceled out from under it (DELETE, budget, shutdown) gets the
// canceled snapshot — state canceled, retryable — not an eviction error
// or a 404.
func TestWaiterGetsCanceledSnapshot(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Options{Workers: 1})

	code, body := post(t, ts, "/v1/experiments", longLineSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit long job: %d %s", code, body)
	}
	var st statusView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	type waitOut struct {
		code int
		body []byte
		err  error
	}
	done := make(chan waitOut, 1)
	go func() {
		// Plain HTTP here: t.Fatal must not run off the test goroutine.
		resp, err := http.Get(ts.URL + "/v1/experiments/" + st.ID + "?wait=true")
		if err != nil {
			done <- waitOut{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- waitOut{code: resp.StatusCode, body: b, err: err}
	}()

	// Cancel once the job is actually running, with a grace period for
	// the waiter's request to reach the blocked Wait (a waiter arriving
	// after the cancel would correctly see a 404 — canceled jobs are
	// dropped — which is not the path under test).
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if got, ok := mgr.Get(st.ID); ok && got.State == jobs.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	if _, err := mgr.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("waiter request: %v", out.err)
	}
	if out.code != http.StatusOK {
		t.Fatalf("waiter response: %d %s", out.code, out.body)
	}
	var view struct {
		State     string `json:"state"`
		Retryable bool   `json:"retryable"`
		Error     string `json:"error"`
	}
	if err := json.Unmarshal(out.body, &view); err != nil {
		t.Fatalf("%v: %s", err, out.body)
	}
	if view.State != "canceled" || !view.Retryable {
		t.Fatalf("waiter should get the canceled, retryable snapshot: %s", out.body)
	}
}

// TestStatsEndpoint: /v1/healthz serves the manager's counters under
// "stats" — queue depth, jobs by state, cache hits/misses/evictions and
// the coalesce count.
func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{})

	if code, body := post(t, ts, "/v1/experiments?wait=true", lineSpec); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	// Same spec again: a cache hit.
	if code, body := post(t, ts, "/v1/experiments?wait=true", lineSpec); code != http.StatusOK {
		t.Fatalf("resubmit: %d %s", code, body)
	}

	code, body := get(t, ts, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var health struct {
		Status string          `json:"status"`
		Stats  json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status = %q", health.Status)
	}
	var stats struct {
		Submitted   uint64 `json:"submitted"`
		Completed   uint64 `json:"completed"`
		Failed      uint64 `json:"failed"`
		Canceled    uint64 `json:"canceled"`
		Runs        uint64 `json:"runs"`
		CacheHits   uint64 `json:"cacheHits"`
		CacheMisses uint64 `json:"cacheMisses"`
		Evicted     *int   `json:"evicted"`
		Queued      *int   `json:"queued"`
		Running     *int   `json:"running"`
		CacheLen    *int   `json:"cacheLen"`
	}
	if err := json.Unmarshal(health.Stats, &stats); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if stats.Submitted != 1 || stats.Runs != 1 || stats.Completed != 1 {
		t.Fatalf("counters wrong: %s", body)
	}
	if stats.CacheHits == 0 {
		t.Fatalf("cache hit not counted: %s", body)
	}
	if stats.CacheMisses != 1 {
		t.Fatalf("cacheMisses = %d, want exactly 1 (the first submission): %s", stats.CacheMisses, body)
	}
	if stats.Evicted == nil {
		t.Fatalf("evicted counter missing from payload: %s", body)
	}
	if stats.Queued == nil || stats.Running == nil || stats.CacheLen == nil {
		t.Fatalf("gauges missing from payload: %s", body)
	}
	if *stats.CacheLen != 1 {
		t.Fatalf("cacheLen = %d, want 1: %s", *stats.CacheLen, body)
	}
}

// TestServingProcs pins the reservation rule: one P more than there are
// workers, and never fewer Ps than the host offers.
func TestServingProcs(t *testing.T) {
	for _, c := range []struct{ procs, workers, want int }{
		{2, 2, 3},
		{8, 2, 8},
		{2, 1, 2},
		{1, 1, 2},
		{2, 4, 5},
	} {
		if got := servingProcs(c.procs, c.workers); got != c.want {
			t.Errorf("servingProcs(%d, %d) = %d, want %d", c.procs, c.workers, got, c.want)
		}
	}
}

// TestReserveServingPIdempotent: on a 2-P host with the default two
// workers the reservation adds one P, resolves the sweep fan-out to the
// host's two, and a second application changes neither.
func TestReserveServingPIdempotent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var o jobs.Options
	for i := 0; i < 2; i++ {
		reserveServingP(&o)
		if got := runtime.GOMAXPROCS(0); got != 3 {
			t.Errorf("application %d: GOMAXPROCS = %d, want 3", i+1, got)
		}
		if o.Workers != 2 || o.SweepWorkers != 2 {
			t.Errorf("application %d: Workers, SweepWorkers = %d, %d, want 2, 2", i+1, o.Workers, o.SweepWorkers)
		}
	}
}

// TestRunReservesServingP boots the real serving path at default flags
// on a 2-P host and reads the reservation back from /metrics.
func TestRunReservesServingP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, w := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0"}, w)
		w.Close()
	}()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("no address line: %v", err)
	}
	addr := strings.TrimPrefix(strings.TrimSpace(line), "ftgcs-serve listening on ")
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{"\nftgcs_go_maxprocs 3\n", "\nftgcs_jobs_workers 2\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", strings.TrimSpace(want))
		}
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
}
