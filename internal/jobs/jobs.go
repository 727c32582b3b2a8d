// Package jobs is the experiment service's content-addressed job and
// cache manager. It runs declarative scenario specs (internal/spec)
// through the ftgcs.Sweep worker pool on a bounded queue, and exploits
// the simulator's determinism — same spec + seed ⇒ byte-identical result
// — to never do the same work twice:
//
//   - every request is identified by the SHA-256 content hash of its
//     canonical encoding, so the job ID *is* the work's identity;
//   - concurrent identical submissions coalesce onto one in-flight run;
//   - completed results live in an LRU cache and are served back as
//     cache hits with byte-identical payloads;
//   - a replication mode fans one spec across N consecutive seeds and
//     aggregates Welford mean/std/CI95 summaries.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftgcs"
	"ftgcs/internal/cas"
	"ftgcs/internal/metrics"
	"ftgcs/internal/telemetry"
)

// job is the internal lifecycle record.
type job struct {
	id       string
	specHash string
	req      Request // normalized
	// sc is the spec's scenario, compiled (and so validated) once by
	// Submit: every replicate is this scenario with its own seed, on its
	// one topology draw (a replication sweep measures seed variance on
	// ONE experiment, so randomized families must not redraw per seed).
	// Cleared by finish so cached jobs do not pin graphs in memory.
	sc   *ftgcs.Scenario
	done chan struct{}

	// trace is the job's lifecycle record (submitted → queued → building
	// → running[replicate i/n] → aggregating → storing → terminal). Set
	// at Submit, never reassigned, internally synchronized — safe to
	// read without the manager's mutex. It survives into the result
	// cache alongside the job, so /trace works for completed work; jobs
	// rehydrated from disk carry none (their execution happened in a
	// different process life).
	trace *telemetry.Trace
	// enqueuedAt/startedAt feed the queue-wait and run-duration
	// histograms; written under the manager's mutex.
	enqueuedAt time.Time
	startedAt  time.Time

	// ctx governs the job's execution; cancel aborts it (Cancel, Close).
	// Both are set at Submit and never change, so they may be used
	// without the manager's mutex.
	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by the manager's index mutex.
	state  State
	result *Result
	// payload is result's canonical marshaled body with the name field
	// blanked plus the splice offset — the zero-copy serving bytes. Set
	// exactly when the job reaches StateDone (nil on the rare marshal
	// failure, which falls back to per-response marshaling).
	payload *resultPayload
	err     error
	// prog tracks live execution progress; set when the job starts
	// running, cleared at finish (it pins in-flight systems).
	prog *progressTracker
}

// Options configures a Manager.
type Options struct {
	// Registry resolves spec names; nil means ftgcs.DefaultRegistry.
	Registry *ftgcs.Registry
	// Workers is the number of job-executing goroutines (≤0: 2).
	Workers int
	// QueueDepth bounds the pending-job queue (≤0: 64). A full queue
	// rejects submissions with ErrQueueFull instead of blocking.
	QueueDepth int
	// CacheSize is the capacity of the completed-result cache (≤0: 128):
	// one strict LRU holding exactly that many entries, so the least
	// recently used result is the one evicted.
	CacheSize int
	// PoolSize bounds the cross-job arena pool: completed sweeps park
	// their built Systems here and later jobs with an equal build key
	// (see ftgcs.SystemPool) reset one in place instead of rebuilding
	// (≤0: 8 idle systems). NoReuse disables the pool entirely.
	PoolSize int
	// SweepWorkers bounds each job's internal ftgcs.Sweep pool
	// (≤0: GOMAXPROCS). Only replicated jobs fan out.
	SweepWorkers int
	// NoReuse disables system reuse: no cross-job arena pool, and every
	// sweep rebuilds the system for each run instead of resetting one in
	// place. Results are identical either way (the reset contract). It
	// stays because it selects the reference arm that
	// TestReplicatedJobReuseDifferential, TestPoolDifferentialAcrossJobs
	// and the recorded ReplicatedJob/rebuild and SubmitFreshPooled/rebuild
	// benchmark rows compare reuse against.
	NoReuse bool
	// RunLimit is a per-job wall-clock budget: a job still executing
	// after this long is canceled (state canceled, never cached). Zero
	// means no budget. The clock starts when the job starts running, not
	// while it waits in the queue.
	RunLimit time.Duration
	// Store, when non-nil, adds a durable tier under the in-memory LRU:
	// lookups go memory → disk → compute, and completed results are
	// written through to disk asynchronously (Close drains the backlog,
	// so a graceful shutdown never loses completed work). The caller owns
	// the store's lifetime; the manager never closes it.
	Store *cas.Store
	// StoreRetries is how many attempts the write-behind storer makes per
	// result before counting the item as failed (≤0: 3). Retries back off
	// exponentially from StoreRetryBackoff, capped at 1s.
	StoreRetries int
	// StoreRetryBackoff is the first retry's delay (≤0: 50ms).
	StoreRetryBackoff time.Duration
	// StoreFailureThreshold is how many consecutive results must fail all
	// their attempts before the breaker opens and the manager degrades to
	// memory-only operation (≤0: 3). See Stats.StoreDegraded.
	StoreFailureThreshold int
	// StoreCooldown is how long an open breaker waits before probing the
	// store with one write again (≤0: 5s).
	StoreCooldown time.Duration
}

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; clients should retry later (HTTP 503).
var ErrQueueFull = fmt.Errorf("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = fmt.Errorf("jobs: manager closed")

// ErrEvicted is returned by Wait when the job completed but its result
// was evicted from the cache before the waiter could read it (possible
// only under heavy churn with a small cache). Resubmitting recomputes.
var ErrEvicted = fmt.Errorf("jobs: result evicted before it could be read")

// ErrCanceled is returned by Wait (and carried by job snapshots) when the
// job was canceled — by Cancel, by the run budget, or by Close — before
// it could complete. Canceled work is never cached, so resubmitting the
// same request runs it afresh.
var ErrCanceled = fmt.Errorf("jobs: job canceled")

// ErrUnknownJob is returned by Cancel and Wait for IDs that are neither
// in flight nor cached.
var ErrUnknownJob = fmt.Errorf("jobs: unknown job")

// ErrCompleted is returned by Cancel when the job already reached a
// terminal state: there is nothing left to cancel, and the cached result
// stays valid.
var ErrCompleted = fmt.Errorf("jobs: job already completed")

// ErrRunLimit wraps the cancellation of a job that exhausted its
// wall-clock budget (Options.RunLimit).
var ErrRunLimit = fmt.Errorf("jobs: run limit exceeded")

// Retryable reports whether a submission error is transient — the same
// request may succeed if resubmitted later (backpressure, shutdown,
// eviction races, cancellation) — as opposed to a deterministic spec
// failure that will fail identically every time.
func Retryable(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrEvicted) || errors.Is(err, ErrCanceled)
}

// isCancellation classifies a job error as a cancellation (job ends in
// StateCanceled, result never cached) rather than a deterministic
// failure. Context errors surface when Cancel, the run budget, or Close
// interrupt the in-flight sweep.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrCanceled) || errors.Is(err, ErrClosed) || errors.Is(err, ErrRunLimit)
}

// Manager owns the queue, the workers, the in-flight dedup index and
// result cache, and the cross-job arena pool. All methods are safe for
// concurrent use.
type Manager struct {
	reg          *ftgcs.Registry
	sweepWorkers int
	noReuse      bool
	runLimit     time.Duration
	queue        chan *job
	quit         chan struct{}
	wg           sync.WaitGroup

	// tel is the registry every counter below lives on; met caches the
	// resolved instruments so the job path never does a name lookup.
	tel *telemetry.Registry
	met *managerMetrics

	// mu guards the job index — active and cache — and every indexed
	// job's mutable fields (state, result, err, prog, payload) for the
	// job's whole life. closed is the lifecycle latch: Submit holds
	// closeMu for reading across its closed-check → enqueue window, Close
	// holds it for writing while flipping the latch — so no submission
	// can slip a job into the queue after Close started draining it.
	// running is the busy-worker gauge.
	mu      sync.Mutex
	active  map[string]*job // queued or running
	cache   *lruCache       // completed (done or failed: failures are deterministic too)
	closeMu sync.RWMutex
	closed  atomic.Bool
	running atomic.Int64

	// pool shares built Systems across jobs (nil when NoReuse): sweeps
	// draw systems with an equal build key from it and return them when
	// done. The key holds the topology's structural digest, so
	// independently submitted specs of the same family/size match.
	pool *ftgcs.SystemPool

	// Disk tier (nil store disables it). Completed results are appended
	// to pendingStore under storeMu and written to disk by a dedicated
	// storer goroutine, so finish never does IO while blocking lookups.
	// storeCond (on storeMu) wakes the storer; storeClosing tells it to
	// drain and exit; closing storerInterrupt cuts any backoff sleep
	// short so Close never waits out a retry schedule.
	store           *cas.Store
	storeMu         sync.Mutex
	pendingStore    []storeItem
	storeCond       *sync.Cond
	storeClosing    bool
	storeWg         sync.WaitGroup
	storerInterrupt chan struct{}

	// Store breaker configuration (fixed at NewManager) and state.
	// degraded is the breaker: true means the disk tier is considered down
	// and the manager serves memory-only until a cooldown probe succeeds.
	// It is read by Stats and healthz concurrently; the remaining
	// breaker state (storeFails, storeDownSince) belongs to the storer
	// goroutine alone.
	storeRetries   int
	storeBackoff   time.Duration
	storeThreshold int
	storeCooldown  time.Duration
	degraded       atomic.Bool
	storeFails     int       // consecutive items that failed every attempt
	storeDownSince time.Time // when the breaker opened (or last failed probe)

	// TestHookBeforeRun, when set, runs in each worker before a job
	// executes — tests use it to hold workers and fill the queue.
	TestHookBeforeRun func()
}

// NewManager starts the workers and returns the manager.
func NewManager(o Options) *Manager {
	if o.Registry == nil {
		o.Registry = ftgcs.DefaultRegistry
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 128
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	if o.StoreRetries <= 0 {
		o.StoreRetries = 3
	}
	if o.StoreRetryBackoff <= 0 {
		o.StoreRetryBackoff = 50 * time.Millisecond
	}
	if o.StoreFailureThreshold <= 0 {
		o.StoreFailureThreshold = 3
	}
	if o.StoreCooldown <= 0 {
		o.StoreCooldown = 5 * time.Second
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 8
	}
	tel := telemetry.NewRegistry()
	m := &Manager{
		reg:             o.Registry,
		sweepWorkers:    o.SweepWorkers,
		noReuse:         o.NoReuse,
		runLimit:        o.RunLimit,
		queue:           make(chan *job, o.QueueDepth),
		quit:            make(chan struct{}),
		active:          make(map[string]*job),
		cache:           newLRUCache(o.CacheSize),
		store:           o.Store,
		storeRetries:    o.StoreRetries,
		storeBackoff:    o.StoreRetryBackoff,
		storeThreshold:  o.StoreFailureThreshold,
		storeCooldown:   o.StoreCooldown,
		storerInterrupt: make(chan struct{}),
		tel:             tel,
		met:             newManagerMetrics(tel),
	}
	if !o.NoReuse {
		m.pool = ftgcs.NewSystemPool(o.PoolSize)
		m.tel.CounterFunc("ftgcs_pool_hits_total",
			"Sweep system acquisitions served by the cross-job arena pool (Reset, not Build).",
			func() float64 { return float64(m.pool.Stats().Hits) })
		m.tel.CounterFunc("ftgcs_pool_misses_total",
			"Sweep system acquisitions the pool could not serve (fresh Build).",
			func() float64 { return float64(m.pool.Stats().Misses) })
		m.tel.GaugeFunc("ftgcs_pool_entries",
			"Idle built systems currently parked in the cross-job arena pool.",
			func() float64 { return float64(m.pool.Stats().Entries) })
	}
	m.tel.GaugeFunc("ftgcs_jobs_queue_depth",
		"Jobs waiting in the bounded queue.",
		func() float64 { return float64(len(m.queue)) })
	m.tel.GaugeFunc("ftgcs_jobs_workers_busy",
		"Workers currently executing a job.",
		func() float64 { return float64(m.running.Load()) })
	m.tel.GaugeFunc("ftgcs_jobs_cache_entries",
		"Completed results held in the in-memory LRU.",
		func() float64 { return float64(m.cacheLen()) })
	m.tel.GaugeFunc("ftgcs_store_degraded",
		"1 while the disk-store breaker is open and the manager serves memory-only.",
		func() float64 {
			if m.degraded.Load() {
				return 1
			}
			return 0
		})
	if m.store != nil {
		m.storeCond = sync.NewCond(&m.storeMu)
		m.storeWg.Add(1)
		go m.storer()
	}
	for i := 0; i < o.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Telemetry returns the registry the manager's instruments live on —
// the one GET /metrics should scrape.
func (m *Manager) Telemetry() *telemetry.Registry { return m.tel }

// Submit validates, dedupes and enqueues a request. The returned status
// reflects the submission outcome: a cache hit carries the full result
// immediately (Cached), an identical in-flight job is joined (Coalesced),
// otherwise a new job is queued. Validation errors and a full queue are
// reported synchronously and never create a job.
func (m *Manager) Submit(req Request) (JobStatus, error) {
	p, err := PrepareRequest(req)
	if err != nil {
		return JobStatus{}, err
	}
	return m.SubmitPrepared(p)
}

// SubmitPrepared is Submit for a request whose identity was already
// derived by PrepareRequest — the hashing fast path: a cache hit costs
// one lock, one lookup and zero canonicalization work.
func (m *Manager) SubmitPrepared(p PreparedRequest) (JobStatus, error) {
	if p.id == "" {
		return JobStatus{}, fmt.Errorf("jobs: unprepared request")
	}
	if m.closed.Load() {
		return JobStatus{}, ErrClosed
	}

	// Fast path: identical work in flight or cached answers the
	// submission without validating — a hit's spec already validated when
	// its job was created, and validation resolves the topology graph,
	// which is exactly the work dedup exists to avoid repeating.
	m.mu.Lock()
	st, ok := m.serveLocked(p.id, p.name)
	m.mu.Unlock()
	if ok {
		return st, nil
	}

	// Shed load before the expensive graph build: a full queue would
	// reject this submission after validation anyway (the enqueue below
	// re-checks under the lock). Cache hits are still served above even
	// under backpressure.
	if len(m.queue) == cap(m.queue) {
		return JobStatus{}, ErrQueueFull
	}

	// The trace starts here so the "submitted" span covers validation
	// and the topology build — the submission cost dedup exists to
	// avoid. Discarded if a racing identical submission wins below.
	trace := telemetry.NewTrace()
	trace.Phase("submitted")

	sc, err := p.req.Spec.Compile(m.reg)
	if err != nil {
		return JobStatus{}, err
	}

	// Enqueue critical section. closeMu held for reading makes the
	// closed-check → queue-send window atomic with respect to Close: a
	// submission that passes the check enqueues (and indexes) its job
	// before Close can flip the latch and start draining.
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	if m.closed.Load() {
		return JobStatus{}, ErrClosed
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// An identical submission may have landed while validation ran.
	if st, ok := m.serveLocked(p.id, p.name); ok {
		return st, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{id: p.id, specHash: p.specHash, req: p.req, sc: sc, trace: trace, state: StateQueued, done: make(chan struct{}), ctx: ctx, cancel: cancel}
	select {
	case m.queue <- j:
	default:
		cancel()
		return JobStatus{}, ErrQueueFull
	}
	j.enqueuedAt = time.Now()
	trace.Phase("queued")
	m.active[p.id] = j
	m.met.submitted.Inc()
	m.met.misses.Inc() // neither coalesced nor cached: fresh work
	return snapshotLocked(j, ""), nil
}

// serveLocked answers a submission from the index, overlaying the
// submitter's display name; an in-flight job coalesces the submission
// onto its run. Callers hold m.mu.
func (m *Manager) serveLocked(id, name string) (JobStatus, bool) {
	j, tier, ok := m.findLocked(id)
	if !ok {
		return JobStatus{}, false
	}
	st := snapshotLocked(j, tier).WithName(name)
	if tier == "" {
		m.met.coalesced.Inc()
		st.Coalesced = true
	}
	return st, true
}

// findLocked is the index's one lookup: the in-flight jobs first (tier
// ""), then the result caches, memory before disk. A memory hit
// refreshes LRU recency; a disk hit rehydrates the stored result into a
// completed job record and promotes it into the memory LRU, so repeat
// lookups hit memory. Callers hold m.mu.
func (m *Manager) findLocked(id string) (*job, CacheTier, bool) {
	if j, ok := m.active[id]; ok {
		return j, "", true
	}
	if j, ok := m.cache.get(id); ok {
		m.met.hitsMemory.Inc()
		return j, TierMemory, true
	}
	if m.store == nil {
		return nil, "", false
	}
	payload, ok := m.store.Get(id)
	if !ok {
		return nil, "", false
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		// A valid envelope holding bytes we cannot decode (e.g. written
		// by a future schema): treat as a miss and drop it.
		m.store.Delete(id)
		return nil, "", false
	}
	// Rebuild the canonical serving payload once at promotion; every
	// subsequent hit splices instead of marshaling.
	j := &job{id: id, specHash: res.SpecHash, state: StateDone, result: &res, payload: newResultPayload(&res), done: closedChan}
	m.met.hitsDisk.Inc()
	m.met.evicted.Add(uint64(m.cache.add(id, j)))
	return j, TierDisk, true
}

// closedChan is the pre-closed done channel shared by jobs rehydrated
// from disk (their work finished in some earlier process life).
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Get returns a snapshot of the job with the given ID, looking through
// the in-flight index, the result cache, and the disk store (a cache
// lookup counts as a hit and refreshes recency).
func (m *Manager) Get(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, tier, ok := m.findLocked(id)
	if !ok {
		m.met.misses.Inc()
		return JobStatus{}, false
	}
	return snapshotLocked(j, tier), true
}

// Wait blocks until the job completes (or ctx is done) and returns its
// final snapshot. Unknown IDs — including results evicted from the cache
// — return an error; resubmit to recompute. A job canceled while the
// waiter blocked returns its canceled snapshot alongside a retryable
// ErrCanceled: the waiter's work was never completed, resubmitting runs
// it afresh.
func (m *Manager) Wait(ctx context.Context, id string) (JobStatus, error) {
	m.mu.Lock()
	j, tier, ok := m.findLocked(id)
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if tier != "" {
		st := snapshotLocked(j, tier)
		m.mu.Unlock()
		return st, nil
	}
	m.mu.Unlock()

	// j.done is set at Submit and never reassigned.
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state == StateCanceled {
		return snapshotLocked(j, ""), fmt.Errorf("jobs: job %s: %w", id, ErrCanceled)
	}
	// The job just finished; it is in the cache unless a flood of newer
	// results already evicted it.
	if cached, ok := m.cache.get(id); ok {
		return snapshotLocked(cached, ""), nil
	}
	return JobStatus{}, fmt.Errorf("jobs: job %s: %w", id, ErrEvicted)
}

// Cancel aborts the job with the given ID. A queued job is finished on
// the spot (the worker that eventually dequeues it skips it); a running
// job has its context canceled, and Cancel blocks the few events it
// takes the simulation loop to notice before returning the final
// snapshot — so the returned state is always terminal (canceled) and the
// worker slot is free once Cancel returns. Canceled jobs are never
// cached: a subsequent submission of the same spec runs it again.
// Completed jobs return ErrCompleted (their cached result stays valid);
// IDs that are neither active nor cached return ErrUnknownJob.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	j, tier, ok := m.findLocked(id)
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if tier != "" {
		st := snapshotLocked(j, tier)
		m.mu.Unlock()
		return st, ErrCompleted
	}
	j.cancel()
	if j.state == StateQueued {
		// Never picked up: finish it here. The job object stays in the
		// channel until a worker (or Close) drains and skips it.
		m.finishLocked(j, nil, nil, ErrCanceled)
		st := snapshotLocked(j, "")
		m.mu.Unlock()
		return st, nil
	}
	m.mu.Unlock()
	// Running: the sweep aborts at its next context poll (a few hundred
	// simulation events, microseconds of wall clock).
	<-j.done
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state == StateCanceled {
		return snapshotLocked(j, ""), nil
	}
	// The run won the race and completed before noticing the cancel; its
	// result is valid and cached.
	return snapshotLocked(j, ""), ErrCompleted
}

// Done exposes a job's completion signal for streaming observers
// (the server's ?watch=true SSE handler): the channel is closed once
// the job reaches a terminal state — immediately for cached results —
// and the snapshot function stays valid even after a canceled job is
// dropped from every index, so a watcher can always render the
// terminal state it was waiting for.
func (m *Manager) Done(id string) (<-chan struct{}, func() JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, tier, ok := m.findLocked(id)
	if !ok {
		return nil, nil, false
	}
	snap := func() JobStatus {
		m.mu.Lock()
		defer m.mu.Unlock()
		return snapshotLocked(j, tier)
	}
	return j.done, snap, true
}

// Trace returns the lifecycle trace of an active or completed job.
// Traces are retained alongside cached results; jobs rehydrated from
// the disk store carry none (their execution happened in a different
// process life), and canceled jobs are dropped entirely — both report
// ok=false, like an unknown ID.
func (m *Manager) Trace(id string) (TraceInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Not findLocked: a trace lives only in memory, so a disk lookup (and
	// the promotion it causes) could never produce one.
	j, ok := m.active[id]
	if !ok {
		j, ok = m.cache.get(id)
	}
	if !ok || j.trace == nil {
		return TraceInfo{}, false
	}
	return TraceInfo{ID: j.id, SpecHash: j.specHash, State: j.state, Spans: j.trace.Snapshot()}, true
}

// Stats assembles the snapshot from the telemetry instruments (the
// counters) and the manager's live state (the gauges) in one pass.
func (m *Manager) Stats() Stats {
	mem, disk := m.met.hitsMemory.Value(), m.met.hitsDisk.Value()
	return Stats{
		Submitted:     m.met.submitted.Value(),
		Completed:     m.met.done.Value(),
		Failed:        m.met.failed.Value(),
		Canceled:      m.met.canceled.Value(),
		Runs:          m.met.runs.Value(),
		CacheHits:     mem + disk,
		CacheMisses:   m.met.misses.Value(),
		Coalesced:     m.met.coalesced.Value(),
		Evicted:       m.met.evicted.Value(),
		DiskHits:      disk,
		DiskStored:    m.met.diskStored.Value(),
		StoreErrors:   m.met.storeErrors.Value(),
		StoreDegraded: m.degraded.Load(),
		Queued:        len(m.queue),
		Running:       int(m.running.Load()),
		CacheLen:      m.cacheLen(),
	}
}

// cacheLen is the result cache's occupancy (Stats and the
// ftgcs_jobs_cache_entries gauge both read it).
func (m *Manager) cacheLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.len()
}

// Pool exposes the cross-job arena pool's statistics (zero-valued when
// NoReuse disabled the pool).
func (m *Manager) Pool() ftgcs.PoolStats { return m.pool.Stats() }

// Close cancels in-flight runs instead of waiting them out: every active
// job's context is canceled, the workers drain within a few simulation
// events, whatever is still queued is canceled too, and further
// submissions are rejected. Interrupted and queued jobs end in
// StateCanceled (never cached); their waiters get a retryable error.
func (m *Manager) Close() {
	// The write lock excludes every Submit critical section: once the
	// latch flips under it, no submission can add to the queue or the
	// in-flight index, so the cancel/drain below sees all of them.
	m.closeMu.Lock()
	if m.closed.Swap(true) {
		m.closeMu.Unlock()
		return
	}
	m.closeMu.Unlock()
	m.mu.Lock()
	for _, j := range m.active {
		j.cancel()
	}
	m.mu.Unlock()
	close(m.quit)
	m.wg.Wait()
	for {
		select {
		case j := <-m.queue:
			m.finish(j, nil, nil, ErrClosed)
		default:
			m.flushStore()
			return
		}
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case j := <-m.queue:
			// Re-check quit: when both channels are ready the select
			// above picks at random, and a closing manager must fail
			// queued work instead of starting fresh simulations —
			// otherwise Close can block on arbitrarily long runs it was
			// supposed to cancel.
			select {
			case <-m.quit:
				m.finish(j, nil, nil, ErrClosed)
				return
			default:
			}
			if m.TestHookBeforeRun != nil {
				m.TestHookBeforeRun()
			}
			m.mu.Lock()
			if j.state != StateQueued {
				// Canceled while queued: Cancel already finished it; the
				// stale channel entry is skipped.
				m.mu.Unlock()
				continue
			}
			j.state = StateRunning
			j.startedAt = time.Now()
			j.prog = newProgressTracker(j.req.Replicate)
			m.running.Add(1)
			m.met.runs.Inc()
			m.met.queueWait.Observe(j.startedAt.Sub(j.enqueuedAt).Seconds())
			j.trace.Phase("building")
			m.mu.Unlock()
			res, err := m.execute(j)
			// The canonical payload is marshaled here, off every lock:
			// it is both the bytes the zero-copy serving path splices
			// per hit and the body the storer persists.
			var payload *resultPayload
			if err == nil {
				payload = newResultPayload(res)
			}
			m.finish(j, res, payload, err)
		}
	}
}

// finish records the outcome, moves the job from the in-flight index to
// the result cache (done and failed only — canceled work is partial and
// must never be served back), and wakes waiters.
func (m *Manager) finish(j *job, res *Result, payload *resultPayload, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishLocked(j, res, payload, err)
}

// finishLocked is finish for callers already holding m.mu. A job already
// in a terminal state is left untouched: a queued job canceled by Cancel
// is finished there and its stale queue entry drained later.
func (m *Manager) finishLocked(j *job, res *Result, payload *resultPayload, err error) {
	ran := false
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return
	case StateRunning:
		m.running.Add(-1)
		ran = true
	}
	j.cancel() // release the context (and its budget timer, if any)
	var runDur *telemetry.Histogram
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.payload = payload
		m.met.done.Inc()
		runDur = m.met.runDone
	case isCancellation(err):
		j.state = StateCanceled
		j.err = err
		m.met.canceled.Inc()
		runDur = m.met.runCanceld
	default:
		j.state = StateFailed
		j.err = err
		m.met.failed.Inc()
		runDur = m.met.runFailed
	}
	if ran {
		// Jobs canceled while still queued never ran; only executions
		// feed the run-duration histogram.
		runDur.Observe(time.Since(j.startedAt).Seconds())
	}
	j.sc = nil   // the cache keeps jobs around; don't pin their graphs too
	j.prog = nil // nor their in-flight systems (the trace stays: it is
	// the job's durable lifecycle record, served by /trace)
	delete(m.active, j.id)
	if j.state != StateCanceled {
		m.met.evicted.Add(uint64(m.cache.add(j.id, j)))
	}
	if j.state == StateDone && m.store != nil {
		// Write-behind to the disk tier; the storer goroutine picks it
		// up, and Close drains the backlog before returning. Failures
		// stay memory-only: they are cheap to reproduce and a failed
		// payload is not worth disk space across restarts. The trace's
		// "storing" span opens now and closes when the bytes are
		// durable, overlapping the terminal marker below.
		it := storeItem{id: j.id, res: j.result, payload: j.payload, endSpan: j.trace.StartSpan("storing")}
		m.storeMu.Lock()
		m.pendingStore = append(m.pendingStore, it)
		m.storeCond.Signal()
		m.storeMu.Unlock()
	}
	j.trace.Finish(string(j.state))
	close(j.done)
}

// execute runs the job's scenario once per replicate seed through
// ftgcs.Sweep; every replicate shares the one topology draw Submit
// compiled. Everything here is deterministic in the request, so two
// executions of the same request produce identical Results; cancellation
// and the run budget can only truncate a run, never perturb what
// completed.
func (m *Manager) execute(j *job) (*Result, error) {
	n := j.req.Replicate
	scenarios := make([]*ftgcs.Scenario, n)
	seeds := make([]int64, n)
	for i := range scenarios {
		seeds[i] = j.req.Spec.Seed + int64(i)
		opts := []ftgcs.Option{ftgcs.WithSeed(seeds[i])}
		if j.req.IncludeSeries {
			opts = append(opts, ftgcs.WithObserver(captureSeries))
		}
		scenarios[i] = j.sc.With(opts...)
	}
	runCtx := j.ctx
	if m.runLimit > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, m.runLimit)
		defer cancel()
	}
	// Trace the run as one phase per replicate completion, advanced in
	// completion order (the tracker serializes out-of-order sweep
	// workers); the last completion rolls the chain into "aggregating".
	j.prog.onDone = func(done, total int) {
		m.met.replicates.Inc()
		if done < total {
			j.trace.Phase(fmt.Sprintf("running[replicate %d/%d]", done+1, total))
		} else {
			j.trace.Phase("aggregating")
		}
	}
	j.trace.Phase(fmt.Sprintf("running[replicate 1/%d]", n))
	sw := ftgcs.Sweep{
		Workers:        m.sweepWorkers,
		NoReuse:        m.noReuse,
		Pool:           m.pool,
		OnSystemStart:  j.prog.start,
		OnScenarioDone: j.prog.done,
	}
	results := sw.RunContext(runCtx, scenarios)
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		// The budget deadline surfaces as context.DeadlineExceeded on the
		// job's otherwise-uncanceled context; label it so the status says
		// why the job was canceled.
		if errors.Is(r.Err, context.DeadlineExceeded) && j.ctx.Err() == nil {
			return nil, fmt.Errorf("%w (budget %s)", ErrRunLimit, m.runLimit)
		}
		// A canceled job context (Cancel, Close) interrupts the sweep with
		// context.Canceled; normalize to the uniform cancellation error
		// rather than leaking which seed happened to notice first.
		if errors.Is(r.Err, context.Canceled) {
			return nil, ErrCanceled
		}
		return nil, fmt.Errorf("jobs: seed %d: %w", seeds[r.Index], r.Err)
	}

	res := &Result{
		SpecHash: j.specHash,
		Name:     results[0].Name,
		Report:   results[0].Report,
		Summary:  results[0].Summary,
	}
	if series, ok := results[0].Value.([]*metrics.Series); ok {
		res.Series = series
	}
	if n > 1 {
		var intra, local, global metrics.Welford
		reports := make([]ftgcs.Report, n)
		for i, r := range results {
			reports[i] = r.Report
			intra.Add(r.Report.MaxIntraClusterSkew)
			local.Add(r.Report.MaxLocalSkew)
			global.Add(r.Report.MaxGlobalSkew)
		}
		res.Replicates = &Replicates{
			N:       n,
			Seeds:   seeds,
			Reports: reports,
			Aggregate: Aggregate{
				IntraClusterSkew: newStat(&intra),
				LocalSkew:        newStat(&local),
				GlobalSkew:       newStat(&global),
			},
		}
	}
	return res, nil
}

// captureSeries is the observer that snapshots the standard skew series
// for IncludeSeries requests, in a fixed order for byte-stable payloads.
// Series are deep-copied: the raw pointers alias live recorder state that
// a subsequent System.Reset truncates in place, and the captured payload
// outlives the run (it is stored on the job result).
func captureSeries(sys *ftgcs.System) (any, error) {
	names := []string{
		ftgcs.SeriesIntraSkew,
		ftgcs.SeriesLocalCluster,
		ftgcs.SeriesLocalNode,
		ftgcs.SeriesGlobal,
		ftgcs.SeriesFastFraction,
	}
	out := make([]*metrics.Series, 0, len(names))
	for _, name := range names {
		if s := sys.Series(name); s != nil {
			out = append(out, s.Clone())
		}
	}
	return out, nil
}
