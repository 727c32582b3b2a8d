package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrinks a workload to a fraction of a second while keeping
// its shape: the same systems, the same op kinds, the same checks.
func smokeSizes(workload string) sizes {
	switch workload {
	case "flood_line":
		return sizes{setups: 2, warm: 2, opsPerSecond: 8, opSim: 0.05, rowEvery: 3, pinRows: 2, probeDiv: 200}
	case "gradient_grid":
		return sizes{setups: 2, warm: 2, opsPerSecond: 8, opSim: 0.2, rowEvery: 3, pinRows: 2, probeDiv: 200}
	case "sweep_reuse":
		return sizes{setups: 2, warm: 1, opsPerSecond: 8, opSim: 0.05, batch: 24, pinRows: 2 * 24, probeDiv: 200}
	default:
		return sizes{setups: 2, warm: 2, opsPerSecond: 8, opSim: 0.3, pinRows: 4, inflight: 4, hitInterval: 27 * time.Millisecond, soloHits: 8, probeDiv: 200}
	}
}

// buildServe compiles the server under test once for the whole test run.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ftgcs-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "ftgcs/cmd/ftgcs-serve").CombinedOutput(); err != nil {
		t.Fatalf("go build ftgcs-serve: %v\n%s", err, out)
	}
	return bin
}

// lastLine decodes the result object emit printed last.
func lastLine(t *testing.T, stdout []byte) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// checkEmitted requires every metric of defs, and no other, in the result
// with its unit.
func checkEmitted(t *testing.T, res result, defs []metricDef, values map[string]float64) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit || d.unit == "" {
			t.Errorf("metric %s: emitted %+v (present %v), want unit %q", d.name, got, ok, d.unit)
		}
	}
	for name := range values {
		if !known[name] {
			t.Errorf("the run measured %q, which no metric list names", name)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	serve := buildServe(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			host := newHostGauge(busyThreads(w))
			cfg := runConfig{workload: w, seed: 1, seconds: 1, z: smokeSizes(w), host: host, serveBin: serve, workDir: t.TempDir(), logf: t.Logf}
			o := options{workload: w, seed: 1, seconds: 1, outDir: t.TempDir(), serveBin: serve}

			first, err := runEndToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first.failed != 0 || first.attempted < 8 || len(first.pins) == 0 {
				t.Fatalf("first run: attempted %d failed %d pins %d", first.attempted, first.failed, len(first.pins))
			}
			if last := first.pins[len(first.pins)-1]; last.Ops != cfg.z.ops(cfg.seconds) {
				t.Errorf("the last pin was taken after %d ops, want one after the final op (%d)", last.Ops, cfg.z.ops(cfg.seconds))
			}
			var buf bytes.Buffer
			if code := emit(&buf, io.Discard, o, first, first.values(first.host), endToEndMetrics); code != 0 {
				t.Errorf("emit exit code %d on a clean run", code)
			}
			res := lastLine(t, buf.Bytes())
			checkEmitted(t, res, endToEndMetrics, first.values(first.host))
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if !res.Correct || res.Attempted != first.attempted || res.Failed != 0 {
				t.Errorf("result %+v does not match the outcome", res)
			}

			// Same flags, same operations: simulated statistics repeat
			// exactly and the first run's pins hold.
			cfg.want = first.pins
			second, err := runEndToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if second.events != first.events || second.events == 0 {
				t.Errorf("system.events %d on the second run, %d on the first", second.events, first.events)
			}
			if second.failed != 0 || second.pinned != len(first.pins) {
				t.Errorf("second run: failed %d, %d of %d pins checked", second.failed, second.pinned, len(first.pins))
			}

			// A pin that does not match fails the ops it covers and the
			// command's exit code.
			wrong := append([]pin(nil), first.pins...)
			wrong[0].SHA256 = "0"
			cfg.want = wrong
			cfg.logf = func(string, ...any) {}
			third, err := runEndToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if third.failed == 0 {
				t.Error("a mismatching pin failed no op")
			}
			if code := emit(io.Discard, io.Discard, o, third, third.values(third.host), endToEndMetrics); code == 0 {
				t.Error("emit exit code 0 with failed ops")
			}

			// The traced run repeats the first quarter, so the first pin
			// still applies.
			cfg.want, cfg.logf, cfg.host = first.pins, t.Logf, nil
			o.trace = 1
			traced, layer, err := runTraced(cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 {
				t.Errorf("traced run failed %d ops", traced.failed)
			}
			buf.Reset()
			emit(&buf, io.Discard, o, traced, layer, perLayerMetrics)
			checkEmitted(t, lastLine(t, buf.Bytes()), perLayerMetrics, layer)
			if layer["system.events"] <= 0 || layer["system.ns_per_event"] <= 0 || layer["host.spin_ms"] <= 0 {
				t.Errorf("traced run left the system or host metrics empty: %v", layer)
			}

			raw, err := os.ReadFile(filepath.Join(o.outDir, w+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatal(err)
			}
			if err := checkNesting(file.Spans, serveNestSlack); err != nil {
				t.Errorf("span file: %v", err)
			}
			ops, children := 0, 0
			for _, s := range file.Spans {
				if s.Name == "op" {
					ops++
				}
				if s.Parent >= 0 {
					children++
				}
			}
			if want := max(4, cfg.z.ops(cfg.seconds)/4); ops != want || children < ops {
				t.Errorf("span file has %d op spans and %d child spans, want %d ops each with a child", ops, children, want)
			}
		})
	}
}

// TestPinsRequired: a check run may not pass unchecked because the
// recorded pins are missing.
func TestPinsRequired(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, expected := range map[string]string{"missing file": filepath.Join(dir, "none.json"), "no pins for a pinned seed": empty} {
		var stderr bytes.Buffer
		code := run([]string{"--workload", "flood_line", "--seed", "1", "--expected", expected, "--work-dir", dir}, io.Discard, &stderr)
		if code == 0 || stderr.Len() == 0 {
			t.Errorf("%s: exit code %d, stderr %q; want a refusal", name, code, stderr.String())
		}
	}
}

func TestCheckNestingRejects(t *testing.T) {
	ok := []span{{Name: "op", Start: 0, End: 10, Parent: -1, Op: 0}, {Name: "child", Start: 2, End: 8, Parent: 0, Op: 0}}
	if err := checkNesting(ok, 0); err != nil {
		t.Fatalf("well-nested spans rejected: %v", err)
	}
	for name, bad := range map[string][]span{
		"child leaves parent": {ok[0], {Name: "child", Start: 2, End: 12, Parent: 0, Op: 0}},
		"child of another op": {ok[0], {Name: "child", Start: 2, End: 8, Parent: 0, Op: 1}},
		"two roots, one op":   {ok[0], {Name: "op", Start: 20, End: 30, Parent: -1, Op: 0}},
		"open span":           {{Name: "op", Start: 5, End: -1, Parent: -1, Op: 0}},
	} {
		if checkNesting(bad, 0) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStats(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2, 5}, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{0, 10}, 0.9); got != 9 {
		t.Errorf("p90 of {0,10} = %v, want 9", got)
	}
}

// TestHostGauge: durations are divided by the median factor of the samples
// around them, and a slow host cancels out of the metrics.
func TestHostGauge(t *testing.T) {
	t0 := time.Now()
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	g := &hostGauge{at: []time.Time{at(0), at(1), at(2)}, h: []float64{1, 2, 4}}
	for _, c := range []struct{ from, to, want float64 }{
		{0.9, 1.1, 2},             // only the middle sample is within half a second
		{0, 2, 2},                 // all three: the median
		{10, 11, 4},               // none: the nearest
		{-0.4, -0.3, 1},           // the first
		{1.4, 1.6, (2 + 4) / 2.0}, // the two on either side
	} {
		if got := g.factor(at(c.from), at(c.to)); got != c.want {
			t.Errorf("factor(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := g.norm(at(0.9), at(1.1)); got != 100*time.Millisecond {
		t.Errorf("0.2 s at factor 2 = %v on the reference clock, want 100ms", got)
	}
	var none *hostGauge
	none.sample(nil)
	if got := none.norm(at(0), at(1)); got != time.Second {
		t.Errorf("a nil gauge changed a duration: %v", got)
	}

	// Two ops of 240 units, each 2 s of wall on a host at half speed: 240/s.
	out := outcome{units: 480, window: []interval{{at(0), at(2)}, {at(3), at(5)}}}
	slow := &hostGauge{at: []time.Time{at(1), at(4)}, h: []float64{2, 2}}
	if got := out.rate(slow); got != 240 {
		t.Errorf("rate = %v, want 240", got)
	}
	if got := out.rate(nil); got != 120 {
		t.Errorf("wall-clock rate = %v, want 120", got)
	}

	// Frozen time is taken out before the factor applies.
	slow.frozen = []interval{{at(0.5), at(1.5)}, {at(2.5), at(3.5)}}
	if got := slow.norm(at(0), at(2)); got != 500*time.Millisecond {
		t.Errorf("2 s with 1 s frozen at factor 2 = %v, want 500ms", got)
	}

	live := newHostGauge(2)
	freezes := 0
	stop := live.track(func() { freezes++ }, func() {})
	time.Sleep(30 * time.Millisecond)
	stop()
	stop()
	if len(live.h) == 0 || live.h[0] <= 0 || freezes != len(live.h) || len(live.frozen) != len(live.h) {
		t.Errorf("a live gauge measured %v with %d freezes, %d frozen intervals", live.h, freezes, len(live.frozen))
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the harness's metric
// and workload lists identical.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bm struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the harness %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEndMetrics)
	same("per_layer", bm.PerLayer, perLayerMetrics)
	var names []metricDef
	for _, w := range workloadNames {
		names = append(names, metricDef{name: w})
	}
	same("workloads", bm.Workloads, names)

	// The committed pins cover the run the driver makes, to its last op.
	exp, err := loadExpected("../expected.json", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, seed := range pinnedSeeds {
			pins := exp[w][strconv.FormatInt(seed, 10)]
			if n := defaultSizes(w).ops(bm.RunSeconds); len(pins) == 0 || pins[len(pins)-1].Ops != n {
				t.Errorf("expected.json: %s seed %d: %d pins, the last not after op %d", w, seed, len(pins), n)
			}
		}
	}
}
