package main

import (
	"fmt"
	"math"
	"syscall"
	"time"

	"ftgcs"
)

// Every scenario of every workload uses these physical parameters, the
// gradient drift adversary and one two-faced attacker per cluster.
const (
	physRho         = 3e-3
	physDelay       = 1e-3
	physUncertainty = 1e-4
	constC2         = 4
	constEps        = 0.25
	driftName       = "gradient"
	attackName      = "two-faced"
)

var workloadNames = []string{"flood_line", "gradient_grid", "sweep_reuse", "serve_mix"}

// sizes fixes how much work a workload does. The numbers are constants:
// the measured op count is opsPerSecond × --seconds, rounded, whatever the
// host's speed, so two runs with the same flags execute the same
// operations and simulated statistics repeat exactly. opsPerSecond is the
// rate of the reference machine (see README.md), which makes the measured
// window last about --seconds there.
type sizes struct {
	// setups is how many times set-up runs; setup_s is their median and the
	// last one is measured.
	setups int
	// warm is the untimed warm-up inside each set-up: ops for the two
	// simulation workloads, batches for sweep_reuse, hot specs for
	// serve_mix.
	warm int
	// opsPerSecond × --seconds is the measured op count: ops, batches or
	// fresh experiments.
	opsPerSecond float64
	// opSim is the simulated seconds one op covers: the advance per op on
	// the simulation workloads, the scenario horizon on sweep_reuse, the
	// spec horizon on serve_mix.
	opSim float64
	// rowEvery is how many ops pass between result rows on the simulation
	// workloads (every sweep scenario and every fresh experiment is a row).
	rowEvery int
	// pinRows is how many result rows pass between correctness pins.
	pinRows int
	// batch is the scenarios per sweep_reuse batch.
	batch int
	// inflight is how many fresh experiments serve_mix keeps submitted.
	inflight int
	// hitInterval is the open-loop spacing of serve_mix's cache hits.
	hitInterval time.Duration
	// soloHits is how many hits a traced serve_mix run sends to the idle
	// server first.
	soloHits int
	// probeDiv divides the solo probes' repetition counts; 1 except in the
	// smoke test.
	probeDiv int
}

// busyThreads is how many threads a workload keeps busy, and so how many
// lanes the host gauge samples on.
func busyThreads(workload string) int {
	if workload == "flood_line" || workload == "gradient_grid" {
		return 1
	}
	return 2
}

// The reference-machine rates below are the medians of ten runs on the
// 2-core Xeon 2.1 GHz sandbox the README records: one flood_line op ≈
// 111 ms, one gradient_grid op ≈ 118 ms, one sweep batch ≈ 143 ms, and two
// workers finish ≈ 3.5 fresh experiments per second.
func defaultSizes(workload string) sizes {
	switch workload {
	case "flood_line":
		return sizes{setups: 3, warm: 22, opsPerSecond: 9, opSim: 0.5, rowEvery: 10, pinRows: 3, probeDiv: 1}
	case "gradient_grid":
		return sizes{setups: 3, warm: 22, opsPerSecond: 8.5, opSim: 2, rowEvery: 10, pinRows: 3, probeDiv: 1}
	case "sweep_reuse":
		return sizes{setups: 3, warm: 18, opsPerSecond: 7, opSim: 0.05, batch: 240, pinRows: 20 * 240, probeDiv: 1}
	case "serve_mix":
		return sizes{setups: 3, warm: 10, opsPerSecond: 3.5, opSim: 10, pinRows: 14, inflight: 4, hitInterval: 27 * time.Millisecond, soloHits: 100, probeDiv: 1}
	}
	return sizes{}
}

// ops is the measured op count for a run of the given length; at least 4
// so that the shortest smoke run still has a median.
func (z sizes) ops(seconds float64) int {
	return max(4, int(math.Round(z.opsPerSecond*seconds)))
}

// runConfig is everything one workload run needs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	z        sizes
	want     []pin      // recorded pins of this workload and seed, nil if unpinned
	tr       *tracer    // nil on the end-to-end runs
	host     *hostGauge // nil on the traced runs
	serveBin string     // path of the ftgcs-serve binary under test
	workDir  string     // where serve_mix keeps its temporary stores
	logf     func(format string, args ...any)
}

// interval is one measured stretch of wall-clock time.
type interval struct{ from, to time.Time }

// outcome is what a run measured. Times are kept as wall-clock intervals;
// values turns them into metrics on the reference machine's clock.
type outcome struct {
	attempted, failed int
	// host is the gauge that was sampled beside the intervals below; nil on
	// a traced run, whose times stay wall-clock.
	host *hostGauge
	// setups holds each set-up.
	setups []interval
	// window is the measured wall in pieces — one per op where the gauge
	// samples between ops, a single one on serve_mix — and units is what
	// rate_per_s counts in it: ops, scenarios or fresh experiments.
	window []interval
	units  int
	// timed holds the ops behind p50_ms and, unless tailMs is set, tail_ms.
	timed []interval
	// tailMs holds serve_mix's hit latencies. They stay wall-clock: under
	// load a hit waits for the scheduler's time slices, which are as long on
	// a slow host as on a fast one.
	tailMs []float64
	// peakRSSMB and cpuS describe the process that did the work: the
	// harness itself, or the server child on serve_mix.
	peakRSSMB, cpuS float64
	// events is the simulation events executed inside the measured window.
	events uint64
	pins   []pin
	pinned int
	// layer holds the per-layer metrics a traced run adds.
	layer map[string]float64
	// serveArgv is the exact command line of the server child.
	serveArgv []string
}

// ms returns the intervals' durations in milliseconds, on the reference
// machine's clock if g is not nil.
func (g *hostGauge) ms(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = ms(g.norm(iv.from, iv.to))
	}
	return out
}

// wall is the measured wall: the sum of the window's pieces.
func (out outcome) wall(g *hostGauge) time.Duration {
	var sum time.Duration
	for _, iv := range out.window {
		sum += g.norm(iv.from, iv.to)
	}
	return sum
}

// rate is counted units per second of measured wall.
func (out outcome) rate(g *hostGauge) float64 {
	wall := out.wall(g)
	if wall <= 0 {
		return 0
	}
	return float64(out.units) / wall.Seconds()
}

// values are the end-to-end metrics with every duration divided by the
// host factor g measured around it; with a nil g they are plain wall-clock.
func (out outcome) values(g *hostGauge) map[string]float64 {
	setups := g.ms(out.setups)
	for i := range setups {
		setups[i] /= 1e3
	}
	lat := g.ms(out.timed)
	tail := out.tailMs
	if tail == nil {
		tail = lat
	}
	return map[string]float64{
		"setup_s":     median(setups),
		"rate_per_s":  out.rate(g),
		"p50_ms":      median(lat),
		"tail_ms":     quantile(tail, 0.9),
		"peak_rss_mb": out.peakRSSMB,
	}
}

// opLedger records which measured ops failed; a failed check can cover a
// range of ops (every op since the last pin, say) and ranges may overlap.
type opLedger struct {
	bad  []bool
	logf func(format string, args ...any)
}

func newLedger(n int, logf func(string, ...any)) *opLedger {
	return &opLedger{bad: make([]bool, n), logf: logf}
}

// fail marks ops [from, to) failed and logs why.
func (l *opLedger) fail(from, to int, format string, args ...any) {
	for i := max(from, 0); i < to && i < len(l.bad); i++ {
		l.bad[i] = true
	}
	l.logf("FAILED ops [%d,%d): %s", from, to, fmt.Sprintf(format, args...))
}

func (l *opLedger) failed() int {
	n := 0
	for _, b := range l.bad {
		if b {
			n++
		}
	}
	return n
}

// scenario is the one scenario shape every workload uses, varying only
// topology, cluster geometry, the global-skew switch, seed and horizon.
func scenario(topo *ftgcs.Topology, k, f int, globalSkew bool, seed int64, horizon float64) *ftgcs.Scenario {
	return ftgcs.NewScenario(
		ftgcs.WithTopology(topo),
		ftgcs.WithClusters(k, f),
		ftgcs.WithPhysical(physRho, physDelay, physUncertainty),
		ftgcs.WithConstants(constC2, constEps),
		ftgcs.WithDriftName(driftName),
		ftgcs.WithAttackPerCluster(func() ftgcs.Attack { return ftgcs.TwoFaced() }, 0),
		ftgcs.WithGlobalSkew(globalSkew),
		ftgcs.WithSeed(seed),
		ftgcs.WithHorizon(horizon),
	)
}

// selfUsage returns this process's peak RSS (MB) and CPU seconds.
func selfUsage() (rssMB, cpuS float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return usage(&ru)
}

func usage(ru *syscall.Rusage) (rssMB, cpuS float64) {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return float64(ru.Maxrss) / 1024, tv(ru.Utime) + tv(ru.Stime) // Linux reports Maxrss in KiB
}
