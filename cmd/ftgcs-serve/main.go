// ftgcs-serve fronts the FTGCS sweep engine with a JSON-over-HTTP
// experiment service. Scenarios arrive as declarative specs (the same
// codec as `ftgcs-sim -spec`), are content-addressed by the SHA-256 of
// their canonical encoding, and run through an async job manager that
// dedupes identical submissions, caches results in an LRU, and can fan a
// spec across N seeds with aggregated statistics.
//
//	ftgcs-serve -addr :8080
//
//	# submit, blocking until done
//	curl -X POST 'localhost:8080/v1/experiments?wait=true' \
//	     -d '{"spec": {"topology": {"name": "line", "size": 3}, "seed": 1}}'
//
//	# the same submission again: served from cache, byte-identical result
//	curl -X POST 'localhost:8080/v1/experiments?wait=true' -d @same.json
//
//	# poll by content-addressed job ID (running jobs carry progress)
//	curl localhost:8080/v1/experiments/sha256:...
//
//	# cancel a queued or running job (never cached; resubmit reruns)
//	curl -X DELETE localhost:8080/v1/experiments/sha256:...
//
//	# what the registry knows; how the service is doing
//	curl localhost:8080/v1/registry
//	curl localhost:8080/v1/healthz
//
//	# observability: Prometheus metrics, per-job lifecycle trace, live SSE watch
//	curl localhost:8080/metrics
//	curl localhost:8080/v1/experiments/sha256:.../trace
//	curl -N 'localhost:8080/v1/experiments/sha256:...?watch=true'
//
// With -store DIR, completed results also persist to an on-disk
// content-addressed store and survive restarts: resubmitting a spec (or
// a whole manifest) a process lifetime later serves the stored bytes
// ("cached":"disk") instead of recomputing.
//
//	# submit a whole experiment grid (arms × axes × seeds, dependency-ordered)
//	curl -X POST 'localhost:8080/v1/manifests?wait=true' -d @examples/manifests/e1-grid.json
//	curl localhost:8080/v1/manifests/sha256:...
//
// The server keeps one scheduler P (Go's processor) free of job
// workers: before serving it raises GOMAXPROCS to at least -workers + 1,
// so the HTTP front end answers a cache hit at once even while every
// worker is simulating. See reserveServingP.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ftgcs"
	"ftgcs/internal/admission"
	"ftgcs/internal/cas"
	"ftgcs/internal/jobs"
	"ftgcs/internal/manifest"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftgcs-serve:", err)
		os.Exit(1)
	}
}

// servingProcs is the GOMAXPROCS the server runs with on a host that
// offers procs: at least one P more than there are job workers.
func servingProcs(procs, workers int) int {
	return max(procs, workers+1)
}

// reserveServingP gives the HTTP front end a P the job workers cannot
// occupy. A worker simulates without blocking, so when there are as many
// workers as Ps no P is ever idle: the runtime then looks for ready
// connections only from sysmon's 10 ms network poll, and the handler it
// finds waits out a 10 ms preemption slice on top — on a 2-vCPU host
// with two workers, a 0.2 ms cache hit took ≈ 19 ms at p90. With a
// spare P, one P parks in the blocking network poll and runs a ready
// handler at once, while the OS time-slices the simulation threads as
// before.
//
// It first resolves o's defaults that depend on the host: Workers as
// jobs.NewManager does, and SweepWorkers to GOMAXPROCS from before the
// reservation, so a replicated job fans out over the host's CPUs and
// not one more. Applying it twice changes nothing.
func reserveServingP(o *jobs.Options) {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	procs := runtime.GOMAXPROCS(0)
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = procs
	}
	if n := servingProcs(procs, o.Workers); n != procs {
		runtime.GOMAXPROCS(n)
	}
}

// run serves until ctx is done or the listener fails; the resolved
// listen address is printed to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ftgcs-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 2, "concurrent job executors; GOMAXPROCS is raised to at least workers+1 so serving keeps a processor")
	queue := fs.Int("queue", 64, "pending-job queue depth (full queue → 503)")
	cache := fs.Int("cache", 128, "result LRU capacity (entries)")
	poolSize := fs.Int("pool-size", 0, "cross-job arena pool capacity in built systems (0 = default 8)")
	sweepWorkers := fs.Int("sweep-workers", 0, "per-job sweep pool size for replicated specs (0 = the host's GOMAXPROCS)")
	waitLimit := fs.Duration("wait-limit", 2*time.Minute, "maximum blocking time for ?wait=true requests")
	runLimit := fs.Duration("run-limit", 0, "per-job wall-clock budget; a job running longer is canceled (0 = unlimited)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown timeout: in-flight jobs are canceled, connections drained")
	storeDir := fs.String("store", "", "durable result store directory; completed results persist across restarts (empty = memory only)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "on-disk store size budget; least-recently-used results are evicted (0 = unbounded)")
	storeMaxAge := fs.Duration("store-max-age", 0, "evict stored results not accessed for this long (0 = keep forever)")
	admitRate := fs.Float64("admit-rate", 0, "service-wide admission rate in submissions/s; excess gets 429 + Retry-After (0 = no admission control)")
	admitBurst := fs.Float64("admit-burst", 0, "admission burst capacity in tokens (0 = max(admit-rate, 1))")
	admitPerClient := fs.Float64("admit-per-client", 0, "per-client fair-share rate in submissions/s, keyed by X-Client-ID or remote host (0 = global bucket only)")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var store *cas.Store
	if *storeDir != "" {
		var err error
		store, err = cas.Open(*storeDir, cas.Options{MaxBytes: *storeMaxBytes, MaxAge: *storeMaxAge})
		if err != nil {
			return fmt.Errorf("open result store: %w", err)
		}
	}

	opts := jobs.Options{
		Registry:     ftgcs.DefaultRegistry,
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheSize:    *cache,
		PoolSize:     *poolSize,
		SweepWorkers: *sweepWorkers,
		RunLimit:     *runLimit,
		Store:        store,
	}
	reserveServingP(&opts)
	mgr := jobs.NewManager(opts)
	defer mgr.Close()
	sched := manifest.NewScheduler(mgr, ftgcs.DefaultRegistry)
	defer sched.Close()

	var admit admission.Policy
	if *admitRate > 0 {
		admit = admission.NewTokenBucket(admission.TokenBucketOptions{
			Rate:          *admitRate,
			Burst:         *admitBurst,
			PerClientRate: *admitPerClient,
		})
	}

	handler := newHandler(&server{mgr: mgr, sched: sched, store: store, reg: ftgcs.DefaultRegistry, workers: opts.Workers, waitLimit: *waitLimit, enablePprof: *pprofFlag, admit: admit})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is machine-readable on purpose: the CI
	// smoke script boots on :0 and scrapes the port from here.
	fmt.Fprintf(stdout, "ftgcs-serve listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop manifest drivers, then close the manager: Close cancels
		// in-flight runs (workers drain within a few simulation events),
		// flushes completed results to the store, and releases every
		// blocked ?wait=true request, so Shutdown can finish inside the
		// drain timeout instead of stalling behind long simulations.
		sched.Close()
		mgr.Close()
		return srv.Shutdown(shutdownCtx)
	}
}
