package main

import (
	"fmt"
	"time"

	"ftgcs"
)

const (
	sweepWorkers  = 2
	sweepPoolSize = 8
	// sweepWarmBase offsets the warm-up batches' indices so their seeds
	// never meet a measured batch's.
	sweepWarmBase = 900
	// sweepRecheck is how many pooled results are recomputed on freshly
	// built systems after the measured window.
	sweepRecheck = 16
)

// sweepTopologies are the graphs the build keys rotate over; each appears
// with the global-skew machinery on and off. The first three make the
// six keys of the measured workload, which fit the eight-slot pool; all
// six make the twelve keys of the overflow probe, which do not.
func sweepTopologies() []*ftgcs.Topology {
	return []*ftgcs.Topology{ftgcs.Line(3), ftgcs.Ring(4), ftgcs.Grid(2, 2), ftgcs.Line(4), ftgcs.Ring(5), ftgcs.Star(4)}
}

// sweepBatch generates batch b: scenario i uses build key i mod 2·|topos|
// and seed base·10⁶ + 1000·b + i.
func sweepBatch(cfg runConfig, topos []*ftgcs.Topology, b int) []*ftgcs.Scenario {
	scs := make([]*ftgcs.Scenario, cfg.z.batch)
	for i := range scs {
		key := i % (2 * len(topos))
		seed := cfg.seed*1_000_000 + 1000*int64(b) + int64(i)
		scs[i] = scenario(topos[key%len(topos)], 4, 1, key < len(topos), seed, cfg.z.opSim)
	}
	return scs
}

// sweepState is what a set-up hands to the measured window.
type sweepState struct {
	sw      ftgcs.Sweep
	pool    *ftgcs.SystemPool
	batches [][]*ftgcs.Scenario
}

// sweepSetup generates every measured batch, makes a fresh pool and runs
// the untimed warm-up batches through it, sampling the host gauge before
// each step.
func sweepSetup(cfg runConfig, n int) (*sweepState, error) {
	cfg.host.sample(nil)
	topos := sweepTopologies()[:3]
	st := &sweepState{pool: ftgcs.NewSystemPool(sweepPoolSize)}
	st.sw = ftgcs.Sweep{Workers: sweepWorkers, Pool: st.pool}
	st.batches = make([][]*ftgcs.Scenario, n)
	for b := range st.batches {
		st.batches[b] = sweepBatch(cfg, topos, b)
	}
	for w := 0; w < cfg.z.warm; w++ {
		cfg.host.sample(nil)
		for _, r := range st.sw.Run(sweepBatch(cfg, topos, sweepWarmBase+w)) {
			if r.Err != nil {
				return nil, fmt.Errorf("warm-up batch %d scenario %d: %w", w, r.Index, r.Err)
			}
		}
	}
	return st, nil
}

// sweepMeasure runs the batches in order; one batch is one op and every
// scenario result is one row. It returns the results for the re-check.
func sweepMeasure(cfg runConfig, st *sweepState, led *opLedger, chk *checker, out *outcome) [][]ftgcs.SweepResult {
	results := make([][]ftgcs.SweepResult, len(st.batches))
	scen := make([]int, cfg.z.batch) // span of each in-flight scenario, by index
	for b, scs := range st.batches {
		cfg.host.sample(nil)
		root := cfg.tr.begin("op", -1, b)
		sp := cfg.tr.begin("sweep.run", root, b)
		sw := st.sw
		if cfg.tr != nil {
			// Workers write distinct elements of scen, and Sweep.Run's
			// return orders them before the next batch reuses the slice.
			sw.OnSystemStart = func(i int, _ *ftgcs.System, _ float64) { scen[i] = cfg.tr.begin("scenario.run", sp, b) }
			sw.OnScenarioDone = func(i int, _ ftgcs.SweepResult) { cfg.tr.end(scen[i]) }
		}
		t0 := time.Now()
		res := sw.Run(scs)
		t1 := time.Now()
		cfg.tr.end(sp)
		cfg.tr.end(root)
		out.timed = append(out.timed, interval{t0, t1})
		out.window = append(out.window, interval{t0, t1})
		results[b] = res
		for _, r := range res {
			switch {
			case r.Err != nil:
				led.fail(b, b+1, "scenario %d: %v", r.Index, r.Err)
			case !r.Report.AllWithinBounds():
				led.fail(b, b+1, "scenario %d violates a skew bound:\n%s", r.Index, r.Report)
			}
			out.events += r.Report.Events
			chk.row(b+1, r.Report.MaxIntraClusterSkew, r.Report.MaxLocalSkew, r.Report.MaxGlobalSkew)
		}
	}
	cfg.host.sample(nil)
	chk.finish(len(st.batches))
	out.units = len(st.batches) * cfg.z.batch
	out.attempted = len(st.batches)
	return results
}

// sweepRecheck recomputes evenly spaced scenarios with a fresh Build each
// and requires the pooled result to be bit-identical: reuse must be
// invisible whatever the seed.
func sweepRecheckResults(cfg runConfig, st *sweepState, results [][]ftgcs.SweepResult, led *opLedger) {
	total := len(results) * cfg.z.batch
	for j := 0; j < sweepRecheck; j++ {
		at := (j*total/sweepRecheck + j) % total // +j so that the samples cover every build key
		b, i := at/cfg.z.batch, at%cfg.z.batch
		rep, err := st.batches[b][i].Run()
		if err != nil {
			led.fail(b, b+1, "fresh re-run of scenario %d: %v", i, err)
			continue
		}
		if rep != results[b][i].Report {
			led.fail(b, b+1, "pooled result of scenario %d differs from a fresh build:\npooled %+v\nfresh  %+v", i, results[b][i].Report, rep)
		}
	}
}

// runSweep is the end-to-end run of sweep_reuse.
func runSweep(cfg runConfig) (outcome, error) {
	n := cfg.z.ops(cfg.seconds)
	out := outcome{host: cfg.host}
	var st *sweepState
	for s := 0; s < cfg.z.setups; s++ {
		t0 := time.Now()
		var err error
		if st, err = sweepSetup(cfg, n); err != nil {
			return out, err
		}
		out.setups = append(out.setups, interval{t0, time.Now()})
	}
	led := newLedger(n, cfg.logf)
	chk := newChecker(cfg.want, cfg.z.pinRows, led)
	results := sweepMeasure(cfg, st, led, chk, &out)
	sweepRecheckResults(cfg, st, results, led)
	out.failed = led.failed()
	out.pins, out.pinned = chk.got, chk.checked
	out.peakRSSMB, out.cpuS = selfUsage()
	return out, nil
}

// runSweepTraced is the per-layer run: the first quarter of the batches
// untraced, then again with a span per batch, per Sweep.Run and per
// scenario, then the over-capacity probe.
func runSweepTraced(cfg runConfig) (outcome, error) {
	n := max(4, cfg.z.ops(cfg.seconds)/4)
	layer := map[string]float64{}

	plain := cfg
	plain.tr = nil
	st, err := sweepSetup(plain, n)
	if err != nil {
		return outcome{}, err
	}
	var ref outcome
	led := newLedger(n, cfg.logf)
	sweepMeasure(plain, st, led, newChecker(nil, cfg.z.pinRows, led), &ref)

	if st, err = sweepSetup(cfg, n); err != nil {
		return outcome{}, err
	}
	before := st.pool.Stats()
	var out outcome
	chk := newChecker(cfg.want, cfg.z.pinRows, led)
	results := sweepMeasure(cfg, st, led, chk, &out)
	after := st.pool.Stats()
	sweepRecheckResults(cfg, st, results, led)
	out.failed = led.failed()
	out.pins, out.pinned = chk.got, chk.checked

	tot := spanTotals(cfg.tr.snapshot())
	scenarios := float64(n * cfg.z.batch)
	layer["trace.overhead_ratio"] = ref.rate(nil) / out.rate(nil)
	layer["system.events"] = float64(out.events)
	layer["system.ns_per_event"] = tot["scenario.run"] * 1e9 / float64(out.events)
	layer["system.ms_per_sim_s"] = tot["scenario.run"] * 1e3 / (scenarios * cfg.z.opSim)
	layer["sweep.run_share"] = tot["scenario.run"] / (sweepWorkers * tot["sweep.run"])
	layer["sweep.overhead_us_per_scenario"] = (sweepWorkers*tot["sweep.run"] - tot["scenario.run"]) * 1e6 / scenarios
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	if hits+misses > 0 {
		layer["pool.hit_ratio"] = hits / (hits + misses)
	}
	layer["pool.evictions"] = float64(after.Evictions - before.Evictions)

	// Twelve build keys against the same eight slots, and the same batches
	// with reuse switched off.
	const overflowBatches = 10
	topos := sweepTopologies()
	pool := ftgcs.NewSystemPool(sweepPoolSize)
	run := func(sw ftgcs.Sweep) (float64, error) {
		t0 := time.Now()
		for b := 0; b < overflowBatches; b++ {
			for _, r := range sw.Run(sweepBatch(cfg, topos, sweepWarmBase+50+b)) {
				if r.Err != nil {
					return 0, r.Err
				}
			}
		}
		return float64(overflowBatches*cfg.z.batch) / time.Since(t0).Seconds(), nil
	}
	reuse, err := run(ftgcs.Sweep{Workers: sweepWorkers, Pool: pool})
	if err != nil {
		return outcome{}, err
	}
	rebuild, err := run(ftgcs.Sweep{Workers: sweepWorkers, NoReuse: true})
	if err != nil {
		return outcome{}, err
	}
	ps := pool.Stats()
	layer["pool.overflow_hit_ratio"] = float64(ps.Hits) / float64(ps.Hits+ps.Misses)
	layer["pool.overflow_rate_ratio"] = reuse / rebuild
	out.layer = layer
	return out, nil
}
