package jobs

import "ftgcs/internal/telemetry"

// managerMetrics is the manager's instrument bundle. Children of the
// labeled families are resolved once here, so recording on the job path
// is a bare atomic op — no name or label lookups.
type managerMetrics struct {
	submitted  *telemetry.Counter
	runs       *telemetry.Counter
	coalesced  *telemetry.Counter
	misses     *telemetry.Counter
	evicted    *telemetry.Counter
	diskStored *telemetry.Counter
	replicates *telemetry.Counter

	storeErrors *telemetry.Counter

	hitsMemory, hitsDisk           *telemetry.Counter // ftgcs_jobs_cache_hits_total{tier}
	done, failed, canceled         *telemetry.Counter // ftgcs_jobs_terminal_total{state}
	runDone, runFailed, runCanceld *telemetry.Histogram

	queueWait *telemetry.Histogram
}

func newManagerMetrics(reg *telemetry.Registry) *managerMetrics {
	terminal := reg.CounterVec("ftgcs_jobs_terminal_total",
		"Jobs reaching a terminal state, by state.", "state")
	hits := reg.CounterVec("ftgcs_jobs_cache_hits_total",
		"Result-cache hits, by serving tier.", "tier")
	runDur := reg.HistogramVec("ftgcs_jobs_run_duration_seconds",
		"Wall-clock execution time from worker pickup to terminal state, by outcome.",
		nil, "outcome")
	return &managerMetrics{
		submitted: reg.Counter("ftgcs_jobs_submitted_total",
			"New jobs accepted onto the queue."),
		runs: reg.Counter("ftgcs_jobs_runs_total",
			"Job executions started (cache hits and coalesced submissions run nothing)."),
		coalesced: reg.Counter("ftgcs_jobs_coalesced_total",
			"Submissions coalesced onto an identical in-flight job."),
		misses: reg.Counter("ftgcs_jobs_cache_misses_total",
			"Result-cache lookups that enqueued fresh work or missed entirely."),
		evicted: reg.Counter("ftgcs_jobs_cache_evictions_total",
			"Results evicted from the in-memory LRU."),
		diskStored: reg.Counter("ftgcs_jobs_disk_stored_total",
			"Results durably written to the disk store."),
		replicates: reg.Counter("ftgcs_jobs_replicates_completed_total",
			"Individual replicate runs completed, across all jobs."),
		storeErrors: reg.Counter("ftgcs_store_errors_total",
			"Failed attempts to persist a result to the disk store (including recovered panics)."),
		hitsMemory: hits.With(string(TierMemory)),
		hitsDisk:   hits.With(string(TierDisk)),
		done:       terminal.With(string(StateDone)),
		failed:     terminal.With(string(StateFailed)),
		canceled:   terminal.With(string(StateCanceled)),
		runDone:    runDur.With(string(StateDone)),
		runFailed:  runDur.With(string(StateFailed)),
		runCanceld: runDur.With(string(StateCanceled)),
		queueWait: reg.Histogram("ftgcs_jobs_queue_wait_seconds",
			"Time jobs spend queued before a worker picks them up.", nil),
	}
}
