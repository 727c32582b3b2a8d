package main

import (
	"fmt"
	"time"

	"ftgcs"
	"ftgcs/internal/core"
	"ftgcs/internal/params"
)

// simSpec is the part of a simulation workload that is not a size.
type simSpec struct {
	topo       func() *ftgcs.Topology
	k, f       int
	globalSkew bool
}

func simSpecOf(workload string) simSpec {
	if workload == "flood_line" {
		return simSpec{topo: func() *ftgcs.Topology { return ftgcs.Line(16) }, k: 4, f: 1, globalSkew: true}
	}
	return simSpec{topo: func() *ftgcs.Topology { return ftgcs.Grid(4, 4) }, k: 7, f: 2, globalSkew: false}
}

// simUntil is the simulated time op i (0-based, after the warm-up) ends at.
func simUntil(z sizes, i int) float64 { return float64(z.warm+i+1) * z.opSim }

// simSetup builds the system through the public API and runs the untimed
// warm-up ops, sampling the host gauge before each.
func simSetup(sp simSpec, cfg runConfig, horizon float64) (*ftgcs.System, error) {
	cfg.host.sample(nil)
	sys, err := scenario(sp.topo(), sp.k, sp.f, sp.globalSkew, cfg.seed, horizon).Build()
	if err != nil {
		return nil, err
	}
	for i := -cfg.z.warm; i < 0; i++ {
		cfg.host.sample(nil)
		if err := sys.Run(simUntil(cfg.z, i)); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// simMeasure runs ops [0, n): op i advances the system to simUntil(i).
// Every rowEvery-th op and the last one end with row(i), timed as its own
// span but outside the op's latency.
func simMeasure(cfg runConfig, n int, run func(until float64) error, row func(i int), led *opLedger, out *outcome) {
	for i := 0; i < n; i++ {
		cfg.host.sample(nil)
		root := cfg.tr.begin("op", -1, i)
		sp := cfg.tr.begin("system.run", root, i)
		t0 := time.Now()
		err := run(simUntil(cfg.z, i))
		t1 := time.Now()
		cfg.tr.end(sp)
		if err != nil {
			led.fail(i, i+1, "run: %v", err)
		}
		out.timed = append(out.timed, interval{t0, t1})
		if (i+1)%cfg.z.rowEvery == 0 || i == n-1 {
			sp := cfg.tr.begin("system.report", root, i)
			row(i)
			cfg.tr.end(sp)
		}
		cfg.tr.end(root)
		out.window = append(out.window, interval{t0, time.Now()})
	}
	cfg.host.sample(nil)
	out.units = n
	out.attempted = n
}

// reportRow is the public-path row: the report must respect the paper's
// bounds and its skew columns join the pinned digest.
func reportRow(cfg runConfig, sys *ftgcs.System, chk *checker, led *opLedger) func(i int) {
	return func(i int) {
		rep := sys.Report()
		first := i / cfg.z.rowEvery * cfg.z.rowEvery // the op after the previous row
		if !rep.AllWithinBounds() {
			led.fail(first, i+1, "a skew bound is violated:\n%s", rep)
		}
		if rep.Horizon != simUntil(cfg.z, i) {
			led.fail(first, i+1, "report horizon %g, want %g", rep.Horizon, simUntil(cfg.z, i))
		}
		chk.row(i+1, rep.MaxIntraClusterSkew, rep.MaxLocalSkew, rep.MaxGlobalSkew)
	}
}

// runSim is the end-to-end run of flood_line and gradient_grid.
func runSim(cfg runConfig) (outcome, error) {
	sp := simSpecOf(cfg.workload)
	n := cfg.z.ops(cfg.seconds)
	horizon := simUntil(cfg.z, n-1)
	out := outcome{host: cfg.host}
	var sys *ftgcs.System
	var warmEvents uint64
	for s := 0; s < cfg.z.setups; s++ {
		t0 := time.Now()
		var err error
		if sys, err = simSetup(sp, cfg, horizon); err != nil {
			return out, err
		}
		out.setups = append(out.setups, interval{t0, time.Now()})
		// Each set-up is the same deterministic computation, so the
		// repeats double as a determinism check.
		ev := sys.Progress().Events
		if s > 0 && ev != warmEvents {
			return out, fmt.Errorf("set-up %d executed %d events, set-up 0 executed %d", s, ev, warmEvents)
		}
		warmEvents = ev
	}
	led := newLedger(n, cfg.logf)
	chk := newChecker(cfg.want, cfg.z.pinRows, led)
	simMeasure(cfg, n, sys.Run, reportRow(cfg, sys, chk, led), led, &out)
	chk.finish(n)
	out.failed = led.failed()
	out.events = sys.Progress().Events - warmEvents
	out.pins, out.pinned = chk.got, chk.checked
	out.peakRSSMB, out.cpuS = selfUsage()
	return out, nil
}

// buildCore wires the same system as scenario(...).Build() does, directly
// on internal/core, which is the only way to reach the per-layer counters
// (transport, cluster, GCS) from outside the program.
func buildCore(sp simSpec, seed int64, horizon float64) (*core.System, error) {
	pc := params.PresetConfig(params.Practical, physRho, physDelay, physUncertainty)
	pc.C2, pc.Eps = constC2, constEps
	p, err := params.Derive(pc)
	if err != nil {
		return nil, err
	}
	drift, err := ftgcs.DriftByName(driftName)
	if err != nil {
		return nil, err
	}
	topo := sp.topo()
	faults := make([]core.FaultSpec, topo.N())
	for c := range faults {
		faults[c] = core.FaultSpec{Node: c*sp.k + sp.k - 1, Strategy: ftgcs.TwoFaced()}
	}
	return core.NewSystem(core.Config{
		Base: topo, K: sp.k, F: sp.f, Params: p, Seed: seed, Drift: drift,
		Faults: faults, EnableGlobalSkew: sp.globalSkew, HorizonHint: horizon,
	})
}

// runSimTraced is the per-layer run: the first quarter of the op list
// three times over — untraced through the public API (the reference rate
// and event count), traced on a directly built core.System (spans and
// layer counters), and on flood_line once more with the global-skew
// machinery off (its share of events and wall time).
func runSimTraced(cfg runConfig) (outcome, error) {
	sp := simSpecOf(cfg.workload)
	n := max(4, cfg.z.ops(cfg.seconds)/4)
	horizon := simUntil(cfg.z, n-1)
	layer := map[string]float64{}

	// Untraced, public API.
	plain := cfg
	plain.tr = nil
	sys, err := scenario(sp.topo(), sp.k, sp.f, sp.globalSkew, cfg.seed, horizon).Build()
	if err != nil {
		return outcome{}, err
	}
	t0 := time.Now()
	for i := -cfg.z.warm; i < 0; i++ {
		if err := sys.Run(simUntil(cfg.z, i)); err != nil {
			return outcome{}, err
		}
	}
	warmWall := time.Since(t0)
	warmEvents := sys.Progress().Events
	var ref outcome
	led := newLedger(n, cfg.logf)
	chk := newChecker(cfg.want, cfg.z.pinRows, led)
	simMeasure(plain, n, sys.Run, reportRow(plain, sys, chk, led), led, &ref)
	chk.finish(n)
	refEvents := sys.Progress().Events

	for _, name := range []string{ftgcs.SeriesIntraSkew, ftgcs.SeriesLocalCluster, ftgcs.SeriesLocalNode, ftgcs.SeriesGlobal, ftgcs.SeriesFastFraction} {
		if s := sys.Series(name); s != nil {
			layer["metrics.samples"] += float64(s.Len())
		}
	}

	// Traced, on internal/core.
	cs, err := buildCore(sp, cfg.seed, horizon)
	if err != nil {
		return outcome{}, err
	}
	for i := -cfg.z.warm; i < 0; i++ {
		if err := cs.Run(simUntil(cfg.z, i)); err != nil {
			return outcome{}, err
		}
	}
	var out outcome
	simMeasure(cfg, n, cs.Run, func(int) { cs.Summarize(cs.Engine().Now() / 10) }, led, &out)
	if got := cs.Engine().Processed(); got != refEvents {
		led.fail(0, n, "the core-built system executed %d events, the public build %d", got, refEvents)
	}
	out.failed = led.failed()
	out.events = refEvents - warmEvents
	out.pins, out.pinned = chk.got, chk.checked

	layer["trace.overhead_ratio"] = ref.rate(nil) / out.rate(nil)
	layer["system.events"] = float64(out.events)
	refWall := ref.wall(nil)
	layer["system.ns_per_event"] = float64(refWall.Nanoseconds()) / float64(out.events)
	layer["system.ms_per_sim_s"] = ms(refWall) / (float64(n) * cfg.z.opSim)
	layer["sim.pending_depth"] = float64(cs.Engine().Pending())
	ts := cs.Network().Stats()
	layer["transport.broadcasts"] = float64(ts.Broadcasts)
	layer["transport.sends"] = float64(ts.Sends)
	layer["transport.delivered"] = float64(ts.Delivered)
	for v := 0; v < cs.Aug().Net.N(); v++ {
		is, gs := cs.InstanceStats(v), cs.GCSStats(v)
		layer["cluster.rounds"] += float64(is.Rounds)
		layer["cluster.corrections"] += float64(is.CorrectionsApplied)
		layer["cluster.stale_dropped"] += float64(is.StaleDropped)
		layer["gcs.decisions"] += float64(gs.Decisions)
		layer["gcs.fast_triggers"] += float64(gs.FastTrigger)
		layer["gcs.mode_switches"] += float64(gs.ModeSwitches)
	}

	// The same simulated interval with the Appendix C machinery off.
	if sp.globalSkew {
		off, err := scenario(sp.topo(), sp.k, sp.f, false, cfg.seed, horizon).Build()
		if err != nil {
			return outcome{}, err
		}
		t0 = time.Now()
		if err := off.Run(horizon); err != nil {
			return outcome{}, err
		}
		offWall := time.Since(t0)
		layer["globalskew.event_share"] = 1 - float64(off.Progress().Events)/float64(refEvents)
		layer["globalskew.wall_share"] = 1 - offWall.Seconds()/(warmWall+refWall).Seconds()
	}
	out.layer = layer
	return out, nil
}
