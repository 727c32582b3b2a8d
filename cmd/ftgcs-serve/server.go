package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ftgcs"
	"ftgcs/internal/admission"
	"ftgcs/internal/cas"
	"ftgcs/internal/jobs"
	"ftgcs/internal/manifest"
	"ftgcs/internal/spec"
	"ftgcs/internal/telemetry"
)

// # Retryable vs deterministic errors — the service's rejection contract
//
// Every error response classifies into exactly one of two kinds, and the
// classification tells the client what to do next:
//
//   - Retryable (429, 503): the request itself is fine; the service
//     cannot take it right now. 429 means an admission budget is
//     exhausted (the service-wide rate, or — scope "client" — the
//     caller's own fair share); 503 means internal backpressure (the
//     jobs queue is full, the scheduler is shutting down, or a result
//     was evicted in the instant between completing and being read).
//     Both carry a Retry-After header with the whole-seconds wait after
//     which the same request is expected to succeed, and a JSON body
//     with "retryable": true. Resubmit the identical payload after the
//     window; nothing about it needs to change.
//
//   - Deterministic (400, 404, 409): replaying the same request will
//     fail the same way — the spec does not validate, the ID is unknown,
//     the job already completed. No Retry-After is sent; the client must
//     change something (the payload, the ID, the expectation), not wait.
//
// Batch submissions (the "experiments" array) apply the same contract
// per item: each item's JobStatus carries "retryable" so one transient
// rejection does not poison the batch, and the enclosing 200 response
// carries a Retry-After header whenever at least one item is worth
// resubmitting. The boundary between the kinds is jobs.Retryable plus
// the admission verdict — server code never invents its own
// classification.

// server wires the job manager, manifest scheduler and registry behind
// the JSON API.
type server struct {
	mgr   *jobs.Manager
	sched *manifest.Scheduler
	// store is the optional durable result store (nil without -store);
	// surfaced here only for stats.
	store *cas.Store
	reg   *ftgcs.Registry
	// workers is the manager's worker count, exported as the
	// ftgcs_jobs_workers capacity gauge.
	workers int
	// waitLimit bounds how long a ?wait=true request may block.
	waitLimit time.Duration
	// tel is the telemetry registry scraped by GET /metrics; derived from
	// the manager's registry in newHandler when left nil.
	tel *telemetry.Registry
	// httpDur is the request-latency histogram, labeled by matched route
	// pattern and status class; populated by newHandler.
	httpDur *telemetry.HistogramVec
	// enablePprof mounts net/http/pprof under /debug/pprof/ (-pprof flag).
	enablePprof bool
	// watchPoll is the ?watch=true progress sampling cadence; newHandler
	// defaults it to 100ms when zero (tests shorten it).
	watchPoll time.Duration
	// watchKeepalive is how often an idle ?watch=true stream emits an SSE
	// comment so proxies and clients do not time out a job that sits
	// queued without progress; newHandler defaults it to 15s.
	watchKeepalive time.Duration
	// admit gates submissions before they reach the jobs queue (the
	// -admit-rate/-admit-burst/-admit-per-client flags); nil means
	// admission.AlwaysAdmit (newHandler defaults it).
	admit admission.Policy
	// retryAfter is the Retry-After hint attached to 503 backpressure
	// responses, where no admission deficit supplies an exact wait;
	// newHandler defaults it to 1s.
	retryAfter time.Duration
	// Admission telemetry, populated by newHandler.
	admitted *telemetry.Counter
	rejected *telemetry.CounterVec
}

// newHandler builds the route table.
//
//	POST   /v1/experiments         submit one spec or a batch
//	GET    /v1/experiments/{id}    poll a job by content-addressed ID
//	DELETE /v1/experiments/{id}    cancel a queued or running job
//	POST   /v1/manifests           submit an experiment grid manifest
//	GET    /v1/manifests           list manifest runs
//	GET    /v1/manifests/{id}      poll a manifest run
//	DELETE /v1/manifests/{id}      cancel a manifest run's remaining arms
//	GET    /v1/registry            enumerate registered names
//	GET    /v1/healthz             liveness + job/cache/queue/store counters
//	GET    /v1/experiments/{id}/trace  lifecycle span list for a job
//	GET    /metrics                Prometheus text exposition
//
// GET /v1/experiments/{id}?watch=true upgrades the poll into an SSE
// stream; -pprof additionally mounts /debug/pprof/.
func newHandler(s *server) http.Handler {
	if s.tel == nil {
		s.tel = s.mgr.Telemetry()
	}
	if s.watchPoll <= 0 {
		s.watchPoll = 100 * time.Millisecond
	}
	if s.watchKeepalive <= 0 {
		s.watchKeepalive = 15 * time.Second
	}
	if s.admit == nil {
		s.admit = admission.AlwaysAdmit{}
	}
	if s.retryAfter <= 0 {
		s.retryAfter = time.Second
	}
	s.httpDur = s.tel.HistogramVec("ftgcs_http_request_duration_seconds",
		"HTTP request latency by route pattern and status class.",
		telemetry.DurationBuckets, "route", "status")
	s.admitted = s.tel.Counter("ftgcs_admission_admitted_total",
		"Submissions admitted past the admission policy.")
	s.rejected = s.tel.CounterVec("ftgcs_admission_rejected_total",
		"Submissions rejected by the admission policy, by exhausted scope.", "scope")
	s.tel.GaugeFunc("ftgcs_jobs_workers",
		"Job workers, the capacity beside ftgcs_jobs_workers_busy.",
		func() float64 { return float64(s.workers) })
	s.tel.GaugeFunc("ftgcs_go_maxprocs",
		"GOMAXPROCS: the scheduler Ps the job workers and the HTTP front end share.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	if s.store != nil {
		registerStoreMetrics(s.tel, s.store)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/experiments/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/experiments/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/manifests", s.handleManifestSubmit)
	mux.HandleFunc("GET /v1/manifests", s.handleManifestList)
	mux.HandleFunc("GET /v1/manifests/{id}", s.handleManifestGet)
	mux.HandleFunc("DELETE /v1/manifests/{id}", s.handleManifestCancel)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.enablePprof {
		// Explicit wiring instead of the package's init-time registration
		// on DefaultServeMux: profiling stays opt-in per process.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.instrumented(mux)
}

// postBody is the POST /v1/experiments envelope: either a single spec
// (with optional replication/series flags) or a batch under
// "experiments". Unknown fields are rejected so schema typos fail loudly.
type postBody struct {
	Spec          *spec.ScenarioSpec `json:"spec,omitempty"`
	Replicate     int                `json:"replicate,omitempty"`
	IncludeSeries bool               `json:"includeSeries,omitempty"`
	Experiments   []jobs.Request     `json:"experiments,omitempty"`
}

// maxBodyBytes caps the POST body on both submission routes, so no
// client can make the server buffer more than this. A spec names its
// topology rather than listing edges, so a full spec is a few hundred
// bytes: 1 MiB holds a batch of thousands, or any manifest
// (manifest.MaxJobs bounds the expansion, not the text).
const maxBodyBytes = 1 << 20

// writeDecodeError answers a body that failed to decode: 413 when it hit
// the maxBodyBytes cap, else 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var body postBody
	if err := dec.Decode(&body); err != nil {
		writeDecodeError(w, fmt.Errorf("invalid request body: %w", err))
		return
	}
	wait := boolParam(r, "wait")
	if (body.Spec == nil) == (len(body.Experiments) == 0) {
		writeError(w, http.StatusBadRequest, errors.New(`provide exactly one of "spec" or a non-empty "experiments"`))
		return
	}
	// Admission runs before any validation or topology work: a batch
	// costs one token per item, so batching cannot launder a burst past
	// the accounting.
	cost := 1
	if body.Spec == nil {
		cost = len(body.Experiments)
	}
	if !s.admitRequest(w, r, cost) {
		return
	}

	if body.Spec != nil {
		p, err := jobs.PrepareRequest(jobs.Request{Spec: *body.Spec, Replicate: body.Replicate, IncludeSeries: body.IncludeSeries})
		if err != nil {
			s.writeSubmitError(w, err)
			return
		}
		st, err := s.submitPrepared(r.Context(), p, wait)
		if err != nil {
			s.writeSubmitError(w, err)
			return
		}
		writeJSON(w, statusCode(st), st)
		return
	}

	// Submit the whole batch before waiting on any of it, so the jobs
	// pipeline through the worker pool instead of running one at a time.
	// Per-item failures are reported in place so one bad spec does not
	// void the rest of the batch; transient failures (backpressure,
	// shutdown) are marked retryable to distinguish them from
	// deterministic spec failures.
	out := make([]jobs.JobStatus, len(body.Experiments))
	for i, req := range body.Experiments {
		st, err := s.mgr.Submit(req)
		if err != nil {
			st = jobs.JobStatus{State: jobs.StateFailed, Error: err.Error(), Retryable: jobs.Retryable(err)}
		}
		out[i] = st
	}
	if wait {
		// One deadline covers the whole batch: -wait-limit is the
		// request's maximum blocking time, not a per-item allowance.
		wctx, cancel := context.WithTimeout(r.Context(), s.waitLimit)
		defer cancel()
		for i := range out {
			if out[i].ID == "" {
				continue // submission failed; nothing to wait on
			}
			st, err := s.await(wctx, out[i])
			if err != nil {
				st = jobs.JobStatus{ID: out[i].ID, SpecHash: out[i].SpecHash, State: jobs.StateFailed, Error: err.Error(), Retryable: jobs.Retryable(err)}
			}
			// Wait serves the stored result, possibly computed under
			// another submitter's name; relabel with this item's own.
			out[i] = st.WithName(body.Experiments[i].Spec.DisplayName())
		}
	}
	// Per the contract above: a batch with at least one retryable item is
	// worth resubmitting, so the enclosing response advertises when.
	for i := range out {
		if out[i].Retryable {
			setRetryAfter(w, s.retryAfter)
			break
		}
	}
	writeJSON(w, http.StatusOK, map[string][]jobs.JobStatus{"jobs": out})
}

// clientKey is the admission identity of a request: the X-Client-ID
// header when the caller names itself, else the remote host (without
// the ephemeral port, so one client is one bucket across connections).
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admitRequest consults the admission policy; on rejection it writes the
// 429 (Retry-After from the exact token deficit, "retryable": true,
// scope naming the exhausted budget) and returns false.
func (s *server) admitRequest(w http.ResponseWriter, r *http.Request, cost int) bool {
	d := s.admit.Admit(clientKey(r), cost)
	if d.OK {
		s.admitted.Inc()
		return true
	}
	s.rejected.With(string(d.Scope)).Inc()
	setRetryAfter(w, d.RetryAfter)
	what := "service-wide admission rate exhausted"
	if d.Scope == admission.ScopeClient {
		what = "per-client fair share exhausted"
	}
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":     fmt.Sprintf("%s; retry after the Retry-After window", what),
		"retryable": true,
		"scope":     d.Scope,
	})
	return false
}

// writeSubmitError writes a submission failure per the contract above:
// transient errors are 503 with a Retry-After hint and "retryable":
// true; deterministic ones are 400 with neither.
func (s *server) writeSubmitError(w http.ResponseWriter, err error) {
	code := submitCode(err)
	if code != http.StatusServiceUnavailable {
		writeError(w, code, err)
		return
	}
	setRetryAfter(w, s.retryAfter)
	writeJSON(w, code, map[string]any{"error": err.Error(), "retryable": true})
}

// setRetryAfter advertises the wait as a whole-seconds Retry-After
// header (ceiling, minimum 1 — zero would invite an instant retry).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// submitPrepared enqueues one prepared request, optionally blocking for
// the result.
func (s *server) submitPrepared(ctx context.Context, p jobs.PreparedRequest, wait bool) (jobs.JobStatus, error) {
	st, err := s.mgr.SubmitPrepared(p)
	if err != nil {
		return jobs.JobStatus{}, err
	}
	if !wait {
		return st, nil
	}
	wctx, cancel := context.WithTimeout(ctx, s.waitLimit)
	defer cancel()
	st, err = s.await(wctx, st)
	if err != nil {
		return st, err
	}
	// Wait serves the stored result, possibly computed under another
	// submitter's name (the submission coalesced onto an in-flight job);
	// relabel with this request's own display name.
	return st.WithName(p.Name()), nil
}

// await blocks until a pending job completes or ctx — which the caller
// has already bounded by -wait-limit — is done. A timeout (or the client
// going away) degrades to the current async snapshot; a result evicted
// before it could be read is surfaced as a retryable error rather than a
// stale pending state.
func (s *server) await(ctx context.Context, st jobs.JobStatus) (jobs.JobStatus, error) {
	if st.State == jobs.StateDone || st.State == jobs.StateFailed {
		return st, nil
	}
	final, err := s.mgr.Wait(ctx, st.ID)
	if err == nil {
		return final, nil
	}
	if errors.Is(err, jobs.ErrCanceled) {
		// The job was canceled while the waiter blocked (DELETE, run
		// budget, shutdown): the canceled snapshot IS the answer — state
		// canceled, retryable — not an eviction and not a failure.
		return final, nil
	}
	if ctx.Err() != nil {
		if cur, ok := s.mgr.Get(st.ID); ok {
			return cur, nil
		}
		return st, nil
	}
	// st.ID came from a successful Submit, so a lookup miss here is the
	// eviction race, not an unknown job — classify it as ErrEvicted so
	// submitCode/Retryable report it as transient (503), whichever shape
	// Wait's miss took.
	return jobs.JobStatus{}, fmt.Errorf("experiment %s completed but its result was evicted; resubmit to recompute: %w", st.ID, jobs.ErrEvicted)
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if boolParam(r, "watch") {
		s.handleWatch(w, r)
		return
	}
	if boolParam(r, "wait") {
		wctx, cancel := context.WithTimeout(r.Context(), s.waitLimit)
		defer cancel()
		// A job canceled while the waiter blocked still answers with its
		// canceled snapshot (the ID itself is gone afterwards).
		if st, err := s.mgr.Wait(wctx, id); err == nil || errors.Is(err, jobs.ErrCanceled) {
			writeJSON(w, statusCode(st), st)
			return
		}
		// Unknown job or timeout: fall through to the plain lookup.
	}
	st, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q (completed results are cached with bounded capacity; resubmit to recompute)", id))
		return
	}
	writeJSON(w, statusCode(st), st)
}

// handleCancel is DELETE /v1/experiments/{id}: cancel a queued or
// running job. The response carries the final snapshot — state canceled,
// retryable — and returns only once the worker slot is actually free
// (the job manager blocks the handful of simulation events cancellation
// takes to land). Canceled work is never cached, so a subsequent GET of
// the ID is a 404 and resubmitting the spec runs it afresh. Canceling a
// completed job is a 409 (its cached result stays valid); unknown IDs
// are 404.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, jobs.ErrCompleted):
		writeJSON(w, http.StatusConflict, st)
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q (canceled and evicted jobs are dropped; resubmit to recompute)", r.PathValue("id")))
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// handleManifestSubmit is POST /v1/manifests: submit a whole experiment
// grid. The manifest is validated, expanded (axes × seeds, deduplicated
// by job identity) and its arms scheduled respecting the After DAG.
// Submission is idempotent on the manifest's content hash: re-posting a
// known grid re-joins the existing run (200) instead of starting a new
// one (201). ?wait=true blocks — bounded by -wait-limit — until every
// job is terminal.
func (s *server) handleManifestSubmit(w http.ResponseWriter, r *http.Request) {
	m, err := manifest.Decode(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	// A manifest costs one admission token: its arms trickle through the
	// scheduler's own pacing, so the submission — not the expansion — is
	// the unit of client demand.
	if !s.admitRequest(w, r, 1) {
		return
	}
	st, created, err := s.sched.Submit(m)
	switch {
	case err == nil:
	case errors.Is(err, manifest.ErrSchedulerClosed):
		setRetryAfter(w, s.retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error(), "retryable": true})
		return
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if boolParam(r, "wait") {
		wctx, cancel := context.WithTimeout(r.Context(), s.waitLimit)
		defer cancel()
		if settled, err := s.sched.Wait(wctx, st.ID); err == nil {
			st = settled
		} else if cur, ok := s.sched.Get(st.ID); ok {
			st = cur // timeout: degrade to the async snapshot
		}
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	if st.State == manifest.ManifestRunning {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

func (s *server) handleManifestList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]manifest.Status{"manifests": s.sched.List()})
}

func (s *server) handleManifestGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if boolParam(r, "wait") {
		wctx, cancel := context.WithTimeout(r.Context(), s.waitLimit)
		defer cancel()
		if st, err := s.sched.Wait(wctx, id); err == nil {
			writeJSON(w, http.StatusOK, st)
			return
		}
		// Unknown manifest or timeout: fall through to the plain lookup.
	}
	st, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown manifest %q", id))
		return
	}
	code := http.StatusOK
	if st.State == manifest.ManifestRunning {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

// handleManifestCancel is DELETE /v1/manifests/{id}: arms not yet
// started never start and this run's in-flight jobs are canceled. The
// run's record stays queryable; re-posting the manifest afterwards
// starts a fresh run.
func (s *server) handleManifestCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, manifest.ErrUnknownManifest):
		writeError(w, http.StatusNotFound, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"topologies": s.reg.TopologyNames(),
		"drifts":     s.reg.DriftNames(),
		"delays":     s.reg.DelayNames(),
		"attacks":    s.reg.AttackNames(),
		"presets":    []string{ftgcs.PresetPractical.String(), ftgcs.PresetPaperStrict.String()},
	})
}

// handleHealthz is GET /v1/healthz: liveness ("ok", or "degraded" while
// the store breaker is open) plus the manager's cumulative counters and
// instantaneous gauges under "stats", and the store's when one is
// attached — one snapshot, the numbers GET /metrics scrapes.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotStats())
}

// statusCode maps a job snapshot to its HTTP status: terminal work
// (done, failed, canceled) is 200, accepted-but-pending work is 202.
func statusCode(st jobs.JobStatus) int {
	switch st.State {
	case jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
		return http.StatusOK
	default:
		return http.StatusAccepted
	}
}

// submitCode maps submission errors: transient failures (backpressure,
// shutdown, eviction races) are 503 — retry later — everything else is a
// bad request.
func submitCode(err error) int {
	if jobs.Retryable(err) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func boolParam(r *http.Request, name string) bool {
	v := strings.ToLower(r.URL.Query().Get(name))
	return v == "1" || v == "true" || v == "yes"
}

// jsonAppender is the zero-copy response fast path: values that append
// their own canonical JSON (jobs.JobStatus) skip json.Marshal's
// reflective walk and its intermediate allocation. The bytes written are
// identical either way — JobStatus.MarshalJSON routes through the same
// AppendJSON — so this changes cost, never content.
type jsonAppender interface {
	AppendJSON([]byte) ([]byte, error)
}

// respBufs recycles response buffers across requests for the appender
// fast path.
var respBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func writeJSON(w http.ResponseWriter, code int, v any) {
	if a, ok := v.(jsonAppender); ok {
		bp := respBufs.Get().(*[]byte)
		b, err := a.AppendJSON((*bp)[:0])
		if err == nil {
			b = append(b, '\n')
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			w.Write(b)
			*bp = b
			respBufs.Put(bp)
			return
		}
		respBufs.Put(bp)
		// Encoding failure: fall through so the error path below reports
		// it exactly as the marshal path always has.
	}
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
