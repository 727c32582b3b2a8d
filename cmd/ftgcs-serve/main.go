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
//	curl localhost:8080/v1/stats
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
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftgcs"
	"ftgcs/internal/admission"
	"ftgcs/internal/cas"
	"ftgcs/internal/jobs"
	"ftgcs/internal/manifest"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftgcs-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ftgcs-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 2, "concurrent job executors")
	queue := fs.Int("queue", 64, "pending-job queue depth (full queue → 503)")
	cache := fs.Int("cache", 128, "result LRU capacity (entries)")
	poolSize := fs.Int("pool-size", 0, "cross-job arena pool capacity in built systems (0 = default 8)")
	sweepWorkers := fs.Int("sweep-workers", 0, "per-job sweep pool size for replicated specs (0 = GOMAXPROCS)")
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

	mgr := jobs.NewManager(jobs.Options{
		Registry:     ftgcs.DefaultRegistry,
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheSize:    *cache,
		PoolSize:     *poolSize,
		SweepWorkers: *sweepWorkers,
		RunLimit:     *runLimit,
		Store:        store,
	})
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

	handler := newHandler(&server{mgr: mgr, sched: sched, store: store, reg: ftgcs.DefaultRegistry, waitLimit: *waitLimit, enablePprof: *pprofFlag, admit: admit})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is machine-readable on purpose: the CI
	// smoke script boots on :0 and scrapes the port from here.
	fmt.Printf("ftgcs-serve listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
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
