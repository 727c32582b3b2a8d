package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"ftgcs"
	"ftgcs/internal/metrics"
	"ftgcs/internal/spec"
	"ftgcs/internal/telemetry"
)

// MaxReplicate bounds the replication fan-out of a single request.
const MaxReplicate = 4096

// resultEpoch is the generation of result bytes this binary computes, and
// part of every job ID. The ID is the disk tier's only key, yet a Result
// holds more than the spec fixes on paper (Report.Events is the simulator's
// own event count), so a release that changes any byte of any result bumps
// it: objects stored under an older epoch then miss instead of being served
// as bytes a fresh computation no longer produces. TestResultEpochPin fails
// when the bytes move and the epoch does not.
//
//	1  through PR 20 (IDs carried no epoch)
//	2  handlerless receivers are never scheduled: Events fell
const resultEpoch = 2

// Request is one unit of submittable work: a spec, optionally fanned out
// across consecutive seeds.
type Request struct {
	Spec spec.ScenarioSpec `json:"spec"`
	// Replicate ≥ 2 runs the spec at seeds Seed, Seed+1, …, Seed+N−1 and
	// aggregates; 0 and 1 both mean a single run.
	Replicate int `json:"replicate,omitempty"`
	// IncludeSeries attaches the recorded skew time series to the result
	// (single runs only; ignored when replicating).
	IncludeSeries bool `json:"includeSeries,omitempty"`
}

// normalized canonicalizes the request so that equivalent requests hash
// identically: the spec is normalized, replicate 0 collapses to 1, and
// the series flag is dropped where it has no effect.
func (r Request) normalized() Request {
	r.Spec = r.Spec.Normalize()
	if r.Replicate < 1 {
		r.Replicate = 1
	}
	if r.Replicate > 1 {
		r.IncludeSeries = false
	}
	return r
}

// ID returns the request's content hash — the job ID. Requests that mean
// the same work (same canonical spec, same replication, same series
// flag) get the same ID regardless of JSON spelling, for as long as the
// binary computes the same result bytes for it (resultEpoch).
func (r Request) ID() (string, error) {
	id, _, err := r.normalized().identity()
	return id, err
}

// identity derives the job ID and the spec's content hash from one
// canonical encoding pass. r must already be normalized.
func (r Request) identity() (id, specHash string, err error) {
	c, err := r.Spec.Canonical()
	if err != nil {
		return "", "", err
	}
	sum := sha256.Sum256(c)
	h := sha256.New()
	h.Write(c)
	fmt.Fprintf(h, "|replicate=%d|series=%t|epoch=%d", r.Replicate, r.IncludeSeries, resultEpoch)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), "sha256:" + hex.EncodeToString(sum[:]), nil
}

// State is a job's lifecycle position. Done, failed and canceled are
// terminal; done and failed results are cached (both are deterministic in
// the request), canceled jobs are dropped entirely — a canceled run is
// partial work, so resubmitting the same spec must run it again.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final (done, failed, canceled).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Stat is a Welford mean/std aggregate with a 95% normal confidence
// half-width. Std and CI95 are NaN (JSON null) below 2 samples.
type Stat struct {
	N    int
	Mean float64
	Std  float64
	CI95 float64
}

// UnmarshalJSON is MarshalJSON's inverse (null → NaN), so a Result that
// round-trips through the disk store re-encodes byte-identically.
func (s *Stat) UnmarshalJSON(b []byte) error {
	var aux struct {
		N    int      `json:"n"`
		Mean *float64 `json:"mean"`
		Std  *float64 `json:"std"`
		CI95 *float64 `json:"ci95"`
	}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	f := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	*s = Stat{N: aux.N, Mean: f(aux.Mean), Std: f(aux.Std), CI95: f(aux.CI95)}
	return nil
}

// MarshalJSON uses the canonical float encoding (non-finite → null) with
// fixed key order, keeping aggregate payloads byte-stable.
func (s Stat) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 96)
	b = append(b, `{"n":`...)
	b = fmt.Appendf(b, "%d", s.N)
	b = append(b, `,"mean":`...)
	b = metrics.AppendJSONFloat(b, s.Mean)
	b = append(b, `,"std":`...)
	b = metrics.AppendJSONFloat(b, s.Std)
	b = append(b, `,"ci95":`...)
	b = metrics.AppendJSONFloat(b, s.CI95)
	b = append(b, '}')
	return b, nil
}

// newStat converts a Welford accumulator into a Stat.
func newStat(w *metrics.Welford) Stat {
	std := w.Std()
	ci := 1.96 * std / math.Sqrt(float64(w.N()))
	return Stat{N: w.N(), Mean: w.Mean(), Std: std, CI95: ci}
}

// Aggregate summarizes the replicated runs' headline maxima.
type Aggregate struct {
	IntraClusterSkew Stat `json:"intraClusterSkew"`
	LocalSkew        Stat `json:"localSkew"`
	GlobalSkew       Stat `json:"globalSkew"`
}

// Replicates carries the per-seed reports and their aggregate.
type Replicates struct {
	N         int            `json:"n"`
	Seeds     []int64        `json:"seeds"`
	Reports   []ftgcs.Report `json:"reports"`
	Aggregate Aggregate      `json:"aggregate"`
}

// Result is a completed experiment's payload. For replicated requests the
// top-level report/summary are the base seed's run and Replicates holds
// the fan-out. Marshalling a Result is deterministic (every component
// uses canonical encoders), which is what makes "cache hit ⇒
// byte-identical response" a guarantee rather than an accident.
type Result struct {
	SpecHash string `json:"specHash"`
	// Name is the spec's display name. Names are excluded from job
	// identity (the content hash), so coalesced and cached submissions
	// share one stored result: Submit overlays the submitter's own
	// display name onto the snapshot it returns, while Get/Wait — which
	// carry only an ID — report the name of the submission that actually
	// ran.
	Name       string            `json:"name,omitempty"`
	Report     ftgcs.Report      `json:"report"`
	Summary    ftgcs.Summary     `json:"summary"`
	Series     []*metrics.Series `json:"series,omitempty"`
	Replicates *Replicates       `json:"replicates,omitempty"`
}

// CacheTier identifies which cache layer served a response. The empty
// tier means the work was (or is being) freshly executed.
type CacheTier string

const (
	// TierMemory: served from the in-process LRU.
	TierMemory CacheTier = "memory"
	// TierDisk: rehydrated from the on-disk content-addressed store — a
	// different process (or an earlier life of this one) did the work.
	TierDisk CacheTier = "disk"
)

// JobStatus is an external snapshot of a job, shaped for the HTTP API.
type JobStatus struct {
	ID       string `json:"id"`
	SpecHash string `json:"specHash"`
	State    State  `json:"state"`
	// Cached names the cache tier that served this response ("memory" or
	// "disk"); absent when the work was not served from a cache (it was,
	// or is being, executed for this submission).
	Cached CacheTier `json:"cached,omitempty"`
	// Coalesced is true when the submission attached to an identical
	// in-flight job instead of enqueuing new work.
	Coalesced bool    `json:"coalesced,omitempty"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Retryable marks a failed batch item whose error was transient
	// (backpressure, shutdown) rather than a deterministic spec failure:
	// resubmitting the same item may succeed. See Retryable.
	Retryable bool `json:"retryable,omitempty"`
	// Progress reports a running job's live execution progress; nil in
	// every other state.
	Progress *Progress `json:"progress,omitempty"`

	// payload, when non-nil, carries Result's pre-marshaled canonical
	// body: AppendJSON serves the result by splicing Result.Name into
	// these bytes instead of re-marshaling the struct. Invariant: it is
	// always the encoding of *Result modulo the name field (WithName
	// clones Result but keeps the payload — the overlay name is read
	// from the clone at append time).
	payload *resultPayload
}

// Progress is a live snapshot of a running job. Every field advances
// monotonically over the job's lifetime.
type Progress struct {
	// Events is the number of simulation events executed so far, summed
	// across the job's completed and in-flight runs.
	Events uint64 `json:"events"`
	// SimFraction is the fraction (0..1) of the job's total simulated
	// time already covered: each run contributes its sim-time/horizon
	// ratio, averaged over the replicate count.
	SimFraction float64 `json:"simFraction"`
	// Replicate of Replicates runs have fully finished (1/1 single runs;
	// i/n while a replication job fans out).
	Replicate  int `json:"replicate"`
	Replicates int `json:"replicates"`
}

// Stats are the manager's cumulative counters plus instantaneous
// gauges. Every counter is read from the telemetry registry's
// instruments — the same ones GET /metrics scrapes — so the JSON and
// Prometheus views of the service can never disagree about a count.
type Stats struct {
	Submitted uint64 `json:"submitted"` // new jobs accepted onto the queue
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"` // via Cancel, run budget, or Close
	Runs      uint64 `json:"runs"`     // simulations actually executed
	CacheHits uint64 `json:"cacheHits"`
	// CacheMisses counts lookups the result cache could not answer:
	// submissions that had to enqueue fresh work, and Get calls for IDs
	// that are neither in flight nor cached. CacheHits/(CacheHits+
	// CacheMisses) is the cache hit ratio.
	CacheMisses uint64 `json:"cacheMisses"`
	Coalesced   uint64 `json:"coalesced"`
	Evicted     uint64 `json:"evicted"`
	// DiskHits counts the subset of CacheHits answered by rehydrating a
	// result from the on-disk store (zero without a store).
	DiskHits uint64 `json:"diskHits"`
	// DiskStored counts results durably written to the disk store.
	DiskStored uint64 `json:"diskStored"`
	// StoreErrors counts failed attempts to persist a result (each retry
	// of each item counts; recovered panics count too).
	StoreErrors uint64 `json:"storeErrors"`
	// StoreDegraded is true while the disk-store breaker is open and the
	// manager is running memory-only: results are still served from the
	// LRU, and durability resumes once a cooldown probe write succeeds.
	// Always false without a store.
	StoreDegraded bool `json:"storeDegraded"`
	Queued        int  `json:"queued"`
	Running       int  `json:"running"`
	CacheLen      int  `json:"cacheLen"`
}

// PreparedRequest is a request whose identity has already been derived:
// normalized, content-hashed, display-named. Preparing is the pure (and
// comparatively expensive) prefix of Submit — canonical encoding plus
// two SHA-256 passes — so a caller that submits the same request
// repeatedly can prepare once and submit the prepared value each time.
type PreparedRequest struct {
	req      Request // normalized
	id       string
	specHash string
	name     string
}

// ID returns the content-addressed job ID the request will run (or hit)
// under.
func (p PreparedRequest) ID() string { return p.id }

// Name returns the request's display name (overlayed onto served
// snapshots).
func (p PreparedRequest) Name() string { return p.name }

// PrepareRequest normalizes and content-hashes a request. The returned
// value is immutable and safe to reuse across any number of
// SubmitPrepared calls on any manager.
func PrepareRequest(req Request) (PreparedRequest, error) {
	req = req.normalized()
	if req.Replicate > MaxReplicate {
		return PreparedRequest{}, fmt.Errorf("jobs: replicate %d exceeds limit %d", req.Replicate, MaxReplicate)
	}
	id, specHash, err := req.identity()
	if err != nil {
		return PreparedRequest{}, err
	}
	return PreparedRequest{req: req, id: id, specHash: specHash, name: req.Spec.DisplayName()}, nil
}

// TraceInfo is the trace endpoint's payload: the job's lifecycle spans
// plus enough envelope to orient the reader.
type TraceInfo struct {
	ID       string           `json:"id"`
	SpecHash string           `json:"specHash"`
	State    State            `json:"state"`
	Spans    []telemetry.Span `json:"spans"`
}

// snapshotLocked builds an external view; callers hold the manager's index
// mutex (or exclusively own a not-yet-indexed job).
func snapshotLocked(j *job, tier CacheTier) JobStatus {
	st := JobStatus{ID: j.id, SpecHash: j.specHash, State: j.state, Cached: tier, Result: j.result, payload: j.payload}
	if j.err != nil {
		st.Error = j.err.Error()
		// A canceled job is always retryable: whatever interrupted it
		// (Cancel, budget, shutdown), the spec itself never failed.
		st.Retryable = Retryable(j.err) || j.state == StateCanceled
	}
	if j.state == StateRunning && j.prog != nil {
		p := j.prog.snapshot()
		st.Progress = &p
	}
	return st
}

// WithName overlays a submitter's display name onto a snapshot served
// from shared state (dedup or cache), copying the Result so the stored
// payload — possibly computed under a different submitter's name — is
// never mutated. Submit applies it itself; callers that obtain the
// final snapshot through Wait or Get on behalf of a known submission
// (the server's ?wait=true paths) apply it to honor that submission's
// own name.
func (st JobStatus) WithName(name string) JobStatus {
	if st.Result == nil || st.Result.Name == name {
		return st
	}
	r := *st.Result
	r.Name = name
	st.Result = &r
	return st
}
