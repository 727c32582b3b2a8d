package ftgcs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// SweepResult is the outcome of one scenario within a sweep, in input
// order.
type SweepResult struct {
	// Index is the scenario's position in the input slice.
	Index int
	// Name is the scenario's display name.
	Name string
	// Report is the standard bound report (10% warmup).
	Report Report
	// Summary carries the raw skew maxima after the same warmup.
	Summary Summary
	// Value is whatever the scenario's WithObserver extracted, or nil.
	Value any
	// Err is non-nil when the scenario failed to build or run; the other
	// fields are then zero. When a RunContext sweep is canceled,
	// interrupted and undispatched scenarios carry the context's error
	// (errors.Is(Err, ctx.Err())).
	Err error
}

// Sweep executes a set of scenarios across a bounded worker pool of
// goroutines. Every scenario is a self-contained deterministic simulation
// (its own engine and RNG streams derived from its seed), so results are
// identical for any worker count — parallelism only changes wall-clock
// time. Scenarios without an explicit WithSeed get the deterministic seed
// BaseSeed+Index.
type Sweep struct {
	// Workers bounds the pool; ≤0 selects GOMAXPROCS.
	Workers int
	// BaseSeed seeds scenarios that did not set WithSeed.
	BaseSeed int64
	// NoReuse builds a fresh System for every scenario and never touches a
	// pool. Reuse is semantically invisible — Reset guarantees
	// byte-identical results — so this is the reference path the
	// differential tests and benchmarks compare reuse against.
	NoReuse bool
	// Pool, when non-nil, replaces the sweep's own per-call pool, sharing
	// built Systems with other sweeps: each scenario acquires a system
	// whose build key matches (building on a miss) and releases it when
	// done.
	Pool *SystemPool

	// OnSystemStart, when set, is called from a worker goroutine right
	// after a scenario's System is built, immediately before it runs. The
	// system's Progress method is the only one safe to call from other
	// goroutines while the run is in flight — this hook is how the jobs
	// manager tracks live progress of running experiments. horizon is the
	// scenario's resolved simulated duration (seconds).
	OnSystemStart func(index int, sys *System, horizon float64)
	// OnScenarioDone, when set, is called from a worker goroutine as each
	// scenario finishes (successfully, with an error, or interrupted),
	// before its slot in the result slice is visible to the caller.
	OnScenarioDone func(index int, res SweepResult)
}

// Run is RunContext without cancellation.
func (sw Sweep) Run(scenarios []*Scenario) []SweepResult {
	return sw.RunContext(context.Background(), scenarios)
}

// RunContext executes the scenarios and returns one result per scenario,
// in input order. Individual failures are reported per result, never
// panicking the pool. When ctx is done, the sweep stops dispatching queued
// scenarios and interrupts in-flight ones. Scenarios that completed before
// the cancellation carry results byte-identical to the same scenarios in
// an uncanceled sweep; interrupted and undispatched ones carry ctx.Err()
// in their Err field.
func (sw Sweep) RunContext(ctx context.Context, scenarios []*Scenario) []SweepResult {
	out := make([]SweepResult, len(scenarios))
	workers := sw.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	pool := sw.callPool(workers)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, key, sys := sw.runOne(ctx, scenarios[i], i, pool)
				if sw.OnScenarioDone != nil {
					sw.OnScenarioDone(i, res)
				}
				out[i] = res
				// Only now is the system idle: OnScenarioDone may still
				// read its progress.
				pool.release(key, sys)
			}
		}()
	}
	for i := range scenarios {
		select {
		case <-ctx.Done():
			// Cancellation: stop dispatching. Everything not yet handed to
			// a worker reports the context error; in-flight scenarios are
			// interrupted by their own RunContext polling.
			for j := i; j < len(scenarios); j++ {
				res := SweepResult{Index: j, Name: scenarios[j].Name(), Err: ctx.Err()}
				if sw.OnScenarioDone != nil {
					sw.OnScenarioDone(j, res)
				}
				out[j] = res
			}
			close(jobs)
			wg.Wait()
			return out
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	return out
}

// callPool returns the pool one call's scenarios run through: none under
// NoReuse, Sweep.Pool when set, else the call's own. A function so that
// RunContext assigns the result once and its worker closures capture it by
// value.
func (sw Sweep) callPool(workers int) *SystemPool {
	switch {
	case sw.NoReuse:
		return nil
	case sw.Pool != nil:
		return sw.Pool
	}
	return NewSystemPool(workers)
}

// runOne executes a single scenario, converting panics into errors so one
// bad scenario cannot take down the whole sweep. It returns the system it
// ran on and the scenario's build key for release to the pool — a nil
// system when none was built or after a panic, which leaves it in an
// unknown state that must never be reused.
func (sw Sweep) runOne(ctx context.Context, sc *Scenario, index int, pool *SystemPool) (res SweepResult, key buildKey, sys *System) {
	res = SweepResult{Index: index, Name: sc.Name()}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("ftgcs: scenario %d (%s) panicked: %v", index, sc.Name(), r)
			sys = nil
		}
	}()
	// A scenario dispatched in the same instant the sweep was canceled
	// skips even its build: promptness over starting doomed work.
	if err := ctx.Err(); err != nil {
		res.Err = err
		return
	}
	if _, ok := sc.Seeded(); !ok {
		sc = sc.With(WithSeed(sw.BaseSeed + int64(index)))
	}
	if pool != nil {
		key = sc.buildKey()
		sys = pool.acquire(key, sc.seed)
	}
	if sys == nil {
		var err error
		if sys, err = sc.build(); err != nil {
			res.Err = err
			return
		}
	}
	if sw.OnSystemStart != nil {
		sw.OnSystemStart(index, sys, sc.Horizon(sys.Params()))
	}
	rep, value, err := sc.executeOn(ctx, sys)
	if err != nil {
		res.Err = err
		return
	}
	res.Report = rep
	res.Summary = sys.Summary(rep.Warmup)
	res.Value = value
	return
}

// RunSweep executes the scenarios with default settings (GOMAXPROCS
// workers, base seed 0) and returns the first error encountered, if any,
// alongside the full result set.
func RunSweep(scenarios ...*Scenario) ([]SweepResult, error) {
	results := Sweep{}.Run(scenarios)
	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("sweep scenario %d (%s): %w", r.Index, r.Name, r.Err)
		}
	}
	return results, nil
}
