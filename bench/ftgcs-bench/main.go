// ftgcs-bench is the repository's benchmark harness. One invocation runs
// one workload in this process and prints every metric by name with its
// unit, then — as the last line of standard output — one JSON object with
// the keys correct, attempted, failed and metrics:
//
//	ftgcs-bench --workload flood_line --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the solo
// layer probes and the first quarter of the workload with spans recorded
// around every call into a layer, prints the per-layer metrics and writes
// the spans to <out>/<workload>.trace.json. --workload all runs every
// workload, each in a process of its own, interleaved over three rounds,
// and prints the medians.
//
// bench/run.sh builds this program and the ftgcs-serve binary under test
// and passes their locations in; see bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names (bench_test.go keeps the two in step).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics is every metric a traced run prints. A metric of a
// layer the workload does not exercise (the pool on flood_line, HTTP on
// sweep_reuse) reads 0.
var perLayerMetrics = []metricDef{
	{"host.spin_ms", "ms"},
	{"host.chase_ms", "ms"},
	{"proc.cpu_s", "s"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"build.compile_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"graph.build_ms", "ms"},
	{"params.derive_ns", "ns"},
	{"spec.parse_us", "us"},
	{"spec.canonical_us", "us"},
	{"spec.compile_us", "us"},
	{"system.build_ms", "ms"},
	{"system.reset_us", "us"},
	{"system.report_us", "us"},
	{"system.events", "count"},
	{"system.ns_per_event", "ns"},
	{"system.ms_per_sim_s", "ms"},
	{"sim.ns_per_event_solo_64", "ns"},
	{"sim.ns_per_event_solo_4096", "ns"},
	{"sim.pending_depth", "count"},
	{"sim.share", "ratio"},
	{"transport.broadcasts", "count"},
	{"transport.sends", "count"},
	{"transport.delivered", "count"},
	{"transport.ns_per_send_solo", "ns"},
	{"globalskew.event_share", "ratio"},
	{"globalskew.wall_share", "ratio"},
	{"cluster.rounds", "count"},
	{"cluster.corrections", "count"},
	{"cluster.stale_dropped", "count"},
	{"approxagree.midpoint_ns_k4", "ns"},
	{"approxagree.midpoint_ns_k7", "ns"},
	{"gcs.decisions", "count"},
	{"gcs.fast_triggers", "count"},
	{"gcs.mode_switches", "count"},
	{"metrics.summarize_us", "us"},
	{"metrics.samples", "count"},
	{"sweep.run_share", "ratio"},
	{"sweep.overhead_us_per_scenario", "us"},
	{"pool.hit_ratio", "ratio"},
	{"pool.evictions", "count"},
	{"pool.acquire_us", "us"},
	{"pool.overflow_hit_ratio", "ratio"},
	{"pool.overflow_rate_ratio", "ratio"},
	{"jobs.prepare_us", "us"},
	{"jobs.submit_cached_ns", "ns"},
	{"jobs.queue_wait_mean_ms", "ms"},
	{"jobs.run_mean_ms", "ms"},
	{"jobs.phase_building_ms", "ms"},
	{"jobs.phase_storing_ms", "ms"},
	{"jobs.coalesced", "count"},
	{"http.hit_solo_p50_ms", "ms"},
	{"http.hit_loaded_p50_ms", "ms"},
	{"http.hit_loaded_p99_ms", "ms"},
	{"http.submit_202_p50_ms", "ms"},
	{"http.server_hit_mean_ms", "ms"},
	{"http.server_post_mean_ms", "ms"},
	{"http.late_p99_ms", "ms"},
	{"cas.put_us", "us"},
	{"cas.get_us", "us"},
	{"cas.puts", "count"},
	{"cas.bytes_written", "count"},
	{"telemetry.scrape_ms", "ms"},
	{"admission.charge_ns", "ns"},
}

// options are the command-line flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	serveBin  string
	workDir   string
	expected  string
	outDir    string
	compileMs float64
	record    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	var o options
	fs := flag.NewFlagSet("ftgcs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "base seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 16, "length of the measured window on the reference machine; fixes the op count")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	fs.StringVar(&o.serveBin, "serve-bin", ".bench_build/ftgcs-serve", "the ftgcs-serve binary under test")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build/tmp", "scratch directory for temporary stores")
	fs.StringVar(&o.expected, "expected", "bench/expected.json", "recorded correctness pins")
	fs.StringVar(&o.outDir, "out", "bench/out", "where a traced run writes its span file")
	fs.Float64Var(&o.compileMs, "compile-ms", 0, "how long building took, measured by run.sh (reported as build.compile_s)")
	fs.BoolVar(&o.record, "record", false, "record this run's pins into --expected instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	if !slices.Contains(workloadNames, o.workload) || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "ftgcs-bench: need --workload in %v, --seconds > 0, --trace 0 or 1\n", workloadNames)
		return 2
	}

	// No path may leave a server child behind: not a return, not a panic,
	// not a signal.
	defer func() {
		killChildren()
		if r := recover(); r != nil {
			panic(r)
		}
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.Exit(130)
	}()

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "ftgcs-bench:", err)
		return 1
	}
	exp, err := loadExpected(o.expected, o.record)
	if err != nil {
		fmt.Fprintln(stderr, "ftgcs-bench:", err)
		return 1
	}
	cfg := runConfig{
		workload: o.workload, seed: o.seed, seconds: o.seconds, z: defaultSizes(o.workload),
		serveBin: o.serveBin, workDir: o.workDir,
		logf: func(format string, args ...any) { fmt.Fprintf(stderr, o.workload+": "+format+"\n", args...) },
	}
	if !o.record {
		cfg.want = exp[o.workload][strconv.FormatInt(o.seed, 10)]
		if len(cfg.want) == 0 && slices.Contains(pinnedSeeds, o.seed) {
			fmt.Fprintf(stderr, "ftgcs-bench: %s holds no pins for %s seed %d\n", o.expected, o.workload, o.seed)
			return 1
		}
	}

	var out outcome
	var values map[string]float64
	var defs []metricDef
	if o.trace == 0 {
		cfg.host = newHostGauge(busyThreads(o.workload))
		out, err = runEndToEnd(cfg)
		values, defs = out.values(out.host), endToEndMetrics
	} else {
		out, values, err = runTraced(cfg, o)
		defs = perLayerMetrics
	}
	if err != nil {
		fmt.Fprintln(stderr, "ftgcs-bench:", o.workload+":", err)
		return 1
	}
	if o.record {
		if err := exp.record(o.expected, o.workload, o.seed, out.pins); err != nil {
			fmt.Fprintln(stderr, "ftgcs-bench:", err)
			return 1
		}
	}

	return emit(stdout, stderr, o, out, values, defs)
}

// emit prints the environment, every metric by name with its unit and, as
// the last line, the result object. The exit code is 1 if any op failed.
func emit(stdout, stderr io.Writer, o options, out outcome, values map[string]float64, defs []metricDef) int {
	printEnv(stdout, out.serveArgv, o.serveBin)
	fmt.Fprintf(stdout, "%s seed=%d seconds=%g trace=%d: attempted=%d failed=%d events=%d pins=%d/%d checked\n",
		o.workload, o.seed, o.seconds, o.trace, out.attempted, out.failed, out.events, out.pinned, len(out.pins))
	if o.trace == 0 {
		tail := len(out.timed)
		if out.tailMs != nil {
			tail = len(out.tailMs)
		}
		fmt.Fprintf(stdout, "  samples: setup_s n=%d, rate_per_s n=%d units, p50_ms n=%d, tail_ms n=%d (%d beyond p90)\n",
			len(out.setups), out.units, len(out.timed), tail, tail/10)
		raw := out.values(nil)
		fmt.Fprintf(stdout, "  host factor (1 = reference speed): median %.3f [%.3f .. %.3f] over %d samples; wall-clock setup_s %.4g rate_per_s %.5g p50_ms %.5g tail_ms %.5g\n",
			median(out.host.h), quantile(out.host.h, 0), quantile(out.host.h, 1), len(out.host.h), raw["setup_s"], raw["rate_per_s"], raw["p50_ms"], raw["tail_ms"])
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "ftgcs-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runEndToEnd(cfg runConfig) (outcome, error) {
	switch cfg.workload {
	case "sweep_reuse":
		return runSweep(cfg)
	case "serve_mix":
		return runServe(cfg)
	}
	return runSim(cfg)
}

// runTraced is the per-layer run: the host probe, the solo layer probes,
// the workload's traced prefix, the host probe again.
func runTraced(cfg runConfig, o options) (outcome, map[string]float64, error) {
	layer := map[string]float64{}
	spin, chase := spinMs(cfg.z.probeDiv), chaseMs(cfg.z.probeDiv)
	if err := runProbes(cfg.workDir, cfg.z.probeDiv, layer); err != nil {
		return outcome{}, nil, err
	}
	cfg.tr = newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var out outcome
	var err error
	switch cfg.workload {
	case "sweep_reuse":
		out, err = runSweepTraced(cfg)
	case "serve_mix":
		out, err = runServeTraced(cfg)
	default:
		out, err = runSimTraced(cfg)
	}
	if err != nil {
		return out, nil, err
	}
	runtime.ReadMemStats(&m1)
	for k, v := range out.layer {
		layer[k] = v
	}
	// The harness's own allocations and GC pauses over the workload phase:
	// on the three in-process workloads that is the program under test.
	layer["proc.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(out.attempted)
	layer["proc.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if cfg.workload != "serve_mix" {
		_, out.cpuS = selfUsage()
	}
	layer["proc.cpu_s"] = out.cpuS
	layer["build.compile_s"] = o.compileMs / 1e3
	if ns := layer["system.ns_per_event"]; ns > 0 && layer["sim.pending_depth"] > 0 {
		layer["sim.share"] = engineSoloAt(layer, layer["sim.pending_depth"]) / ns
	}
	// Both host probes are reported as their larger value: a run is only
	// as quiet as its noisier end.
	layer["host.spin_ms"] = math.Max(spin, spinMs(cfg.z.probeDiv))
	layer["host.chase_ms"] = math.Max(chase, chaseMs(cfg.z.probeDiv))

	spans := cfg.tr.snapshot()
	var slack time.Duration
	if cfg.workload == "serve_mix" {
		slack = serveNestSlack
	}
	if err := checkNesting(spans, slack); err != nil {
		cfg.logf("FAILED span structure: %v", err)
		out.failed = max(out.failed, 1)
	}
	path, err := writeSpans(o.outDir, cfg.workload, spans)
	if err != nil {
		return out, nil, err
	}
	cfg.logf("%d spans written to %s", len(spans), path)
	return out, layer, nil
}

// engineSoloAt interpolates the engine's solo cost per event at a pending
// depth between the two probed depths, linearly in log₂(depth).
func engineSoloAt(layer map[string]float64, depth float64) float64 {
	lo, hi := layer["sim.ns_per_event_solo_64"], layer["sim.ns_per_event_solo_4096"]
	t := (math.Log2(depth) - 6) / 6
	return lo + math.Min(math.Max(t, 0), 1)*(hi-lo)
}

// printEnv describes the machine and build a result came from.
func printEnv(w io.Writer, serveArgv []string, serveBin string) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if serveArgv == nil {
		serveArgv = []string{serveBin, "(not started by this workload)"}
	}
	fmt.Fprintf(w, "env: cpu=%q nproc=%d GOMAXPROCS=%d go=%s %s/%s git=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, gitRev())
	fmt.Fprintf(w, "env: ftgcs-serve argv=%q\n", serveArgv)
}

// gitRev is the checkout's revision with a dirty flag, or "none" outside
// a git checkout (the search stops at the working directory).
func gitRev() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+wd+"/..")
		b, err := cmd.Output()
		return strings.TrimSpace(string(b)), err
	}
	rev, err := git("rev-parse", "--short", "HEAD")
	if err != nil || rev == "" {
		return "none"
	}
	if st, err := git("status", "--porcelain"); err == nil && st != "" {
		rev += "-dirty"
	}
	return rev
}

// rounds is how many times runAll goes over the workloads.
const rounds = 3

// runAll runs every workload in a process of its own, interleaved A B C D,
// A B C D, … so that a slow minute on the host cannot land on every
// repeat of one workload, and prints each metric's median and range.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ftgcs-bench:", err)
		return 1
	}
	defs := endToEndMetrics
	if o.trace == 1 {
		defs = perLayerMetrics
	}
	values := map[string]map[string][]float64{}
	attempted, failed := map[string]int{}, map[string]int{}
	code := 0
	for r := 0; r < rounds; r++ {
		for _, w := range workloadNames {
			cmd := exec.Command(self,
				"--workload", w, "--seed", strconv.FormatInt(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(o.trace),
				"--serve-bin", o.serveBin, "--work-dir", o.workDir, "--expected", o.expected, "--out", o.outDir,
				"--compile-ms", strconv.FormatFloat(o.compileMs, 'g', -1, 64))
			cmd.Stderr = stderr
			b, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			if r == 0 {
				fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
			}
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				fmt.Fprintf(stderr, "ftgcs-bench: %s round %d printed no result (%v)\n", w, r, err)
				code = 1
				continue
			}
			if err != nil || !res.Correct {
				code = 1
			}
			attempted[w] += res.Attempted
			failed[w] += res.Failed
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[w][name] = append(values[w][name], mv.Value)
			}
			fmt.Fprintf(stderr, "round %d/%d %s: attempted %d failed %d\n", r+1, rounds, w, res.Attempted, res.Failed)
		}
	}
	fmt.Fprintf(stdout, "\nmedian [min .. max] over %d rounds, seed %d, %g s\n", rounds, o.seed, o.seconds)
	for _, w := range workloadNames {
		fmt.Fprintf(stdout, "%s: attempted %d failed %d\n", w, attempted[w], failed[w])
		for _, d := range defs {
			v := values[w][d.name]
			if len(v) == 0 {
				continue
			}
			sort.Float64s(v)
			fmt.Fprintf(stdout, "  %-32s %14.6g %-6s [%.6g .. %.6g]\n", d.name, median(v), d.unit, v[0], v[len(v)-1])
		}
	}
	return code
}
