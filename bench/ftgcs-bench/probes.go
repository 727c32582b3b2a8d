package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ftgcs"
	"ftgcs/internal/admission"
	"ftgcs/internal/approxagree"
	"ftgcs/internal/cas"
	"ftgcs/internal/graph"
	"ftgcs/internal/jobs"
	"ftgcs/internal/sim"
	"ftgcs/internal/spec"
	"ftgcs/internal/transport"
)

// The solo probes time one layer at a time through its public functions,
// with nothing else running. They are the same in every workload's
// traced run: a layer's solo cost is a property of the layer, and the
// workload-specific counters beside it say how often the workload pays it.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// spinMs times a fixed integer loop. It touches no memory and calls no
// code under test, so a change in it is the host, not the program.
func spinMs(div int) float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 60_000_000/div; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
	return ms(time.Since(t0))
}

// chaseMs times a fixed pointer chase: one random cycle through 16 MiB,
// every load dependent on the last. Where spinMs sees only the core's
// clock, this sees what the neighbours do to the shared caches and memory,
// which is what the event heap and the per-node maps feel.
func chaseMs(div int) float64 {
	n := 1 << 22 / div
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- { // Sattolo: a single cycle over all n slots
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	t0 := time.Now()
	at := uint32(0)
	for i := 0; i < n; i++ {
		at = next[at]
	}
	sink += uint64(at)
	return ms(time.Since(t0))
}

// perOp times reps calls of fn and returns the mean duration of one.
func perOp(reps int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(reps)
}

// medianOp times each of reps calls on its own and returns the median.
func medianOp(reps int, fn func(i int)) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		fn(i)
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func soloTick(e *sim.Engine, d sim.Data) {
	e.MustScheduleData(e.Now()+1, "tick", soloTick, d)
}

// engineSolo is the engine alone: `depth` self-rearming events, so every
// fire is one pop and one push at that pending depth.
func engineSolo(depth, events int) float64 {
	e := sim.NewEngine()
	for i := 0; i < depth; i++ {
		e.MustScheduleData(float64(i)/float64(depth), "tick", soloTick, sim.Data{})
	}
	e.Run(4) // fill the slab
	before := e.Processed()
	t0 := time.Now()
	if err := e.Run(4 + float64(events/depth)); err != nil {
		panic(err)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(e.Processed()-before)
}

// transportSolo is a broadcast over a k=7 clique plus the delivery of
// every pulse it schedules, per pulse.
func transportSolo(rounds int) float64 {
	eng := sim.NewEngine()
	g := graph.Clique(7)
	net := transport.NewNetwork(eng, g, transport.UniformDelay{D: physDelay, U: physUncertainty, Rng: sim.NewRNG(1, 1)})
	for v := 0; v < g.N(); v++ {
		net.OnPulse(v, func(float64, transport.Pulse) { sink++ })
	}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := net.Broadcast(eng.Now(), 0, transport.PulseClock); err != nil {
			panic(err)
		}
		if err := eng.Run(eng.Now() + 1); err != nil {
			panic(err)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(net.Stats().Sends)
}

func midpointSolo(k, f, reps int) float64 {
	src := make([]float64, k)
	rng := sim.NewRNG(1, 2)
	for i := range src {
		src[i] = rng.Float64()
	}
	buf := make([]float64, k)
	d := perOp(reps, func(int) {
		copy(buf, src)
		v, _ := approxagree.MidpointInPlace(buf, f)
		sink += uint64(v)
	})
	return float64(d.Nanoseconds())
}

// runProbes runs every solo probe. scratch is a directory the cas probe
// may create its store in; div divides every repetition count (1 outside
// the smoke test).
func runProbes(scratch string, div int, layer map[string]float64) error {
	n := func(reps int) int { return max(5, reps/div) }
	layer["graph.build_ms"] = ms(medianOp(20, func(int) {
		for _, b := range []struct {
			g *graph.Graph
			k int
		}{{graph.Line(16), 4}, {graph.Grid(4, 4), 7}} {
			if _, err := graph.Augment(b.g, b.k); err != nil {
				panic(err)
			}
		}
	}))
	layer["params.derive_ns"] = float64(perOp(n(2000), func(int) {
		if _, err := ftgcs.DeriveParams(ftgcs.PresetPractical, physRho, physDelay, physUncertainty); err != nil {
			panic(err)
		}
	}).Nanoseconds())

	probeCfg := runConfig{seed: 1, z: sizes{opSim: 8}}
	raw, err := json.Marshal(hotSpec(probeCfg, 0))
	if err != nil {
		return err
	}
	parsed, err := spec.Parse(raw)
	if err != nil {
		return fmt.Errorf("spec probe: %w", err)
	}
	layer["spec.parse_us"] = us(perOp(n(2000), func(int) { spec.Parse(raw) }))
	layer["spec.canonical_us"] = us(perOp(n(2000), func(int) { parsed.Canonical() }))
	layer["spec.compile_us"] = us(perOp(n(500), func(int) { parsed.Compile(nil) }))

	// The gradient_grid system, as in the BENCH_6 build/reset rows.
	grid := simSpecOf("gradient_grid")
	var sys *ftgcs.System
	layer["system.build_ms"] = ms(medianOp(5, func(int) {
		if sys, err = scenario(grid.topo(), grid.k, grid.f, false, 1, 5).Build(); err != nil {
			panic(err)
		}
	}))
	if err := sys.Run(5); err != nil {
		return err
	}
	layer["system.report_us"] = us(medianOp(20, func(int) { sink += sys.Report().Events }))
	layer["metrics.summarize_us"] = us(medianOp(20, func(int) { sink += sys.Summary(0.5).Events }))
	layer["system.reset_us"] = us(medianOp(20, func(i int) {
		if err := sys.Reset(int64(i)); err != nil {
			panic(err)
		}
	}))

	layer["sim.ns_per_event_solo_64"] = engineSolo(64, n(2_000_000))
	layer["sim.ns_per_event_solo_4096"] = engineSolo(4096, n(2_000_000))
	layer["transport.ns_per_send_solo"] = transportSolo(n(100_000))
	layer["approxagree.midpoint_ns_k4"] = midpointSolo(4, 1, n(1_000_000))
	layer["approxagree.midpoint_ns_k7"] = midpointSolo(7, 2, n(1_000_000))

	// Acquire (scan, SameBuild, Reset) and Release on a pool holding the
	// six sweep_reuse build keys.
	pool := ftgcs.NewSystemPool(sweepPoolSize)
	keys := sweepBatch(runConfig{seed: 1, z: sizes{batch: 6, opSim: 0.05}}, sweepTopologies()[:3], 0)
	for _, sc := range keys {
		s, err := sc.Build()
		if err != nil {
			return err
		}
		pool.Release(sc, s)
	}
	layer["pool.acquire_us"] = us(perOp(n(3000), func(i int) {
		sc := keys[i%len(keys)]
		pool.Release(sc, pool.Acquire(sc))
	}))
	if st := pool.Stats(); st.Misses != 0 {
		return fmt.Errorf("pool probe missed %d of %d acquires", st.Misses, st.Hits+st.Misses)
	}

	if err := jobsProbe(n, layer); err != nil {
		return err
	}
	if err := casProbe(scratch, layer); err != nil {
		return err
	}
	tb := admission.NewTokenBucket(admission.TokenBucketOptions{Rate: 1e12, PerClientRate: 1e12})
	layer["admission.charge_ns"] = float64(perOp(n(1_000_000), func(int) {
		if !tb.Admit("bench", 1).OK {
			panic("admission probe rejected")
		}
	}).Nanoseconds())
	return nil
}

// jobsProbe times the manager's serving fast path in process: preparing
// a request (normalise, canonical encoding, SHA-256), re-submitting a
// cached one and encoding its reply, and rendering the manager's metrics.
func jobsProbe(n func(int) int, layer map[string]float64) error {
	req := jobs.Request{Spec: spec.ScenarioSpec{Topology: spec.Topology{Name: "line", Size: 2}, Seed: 1, Horizon: spec.Horizon{Seconds: 1}}}
	layer["jobs.prepare_us"] = us(perOp(n(2000), func(int) {
		if _, err := jobs.PrepareRequest(req); err != nil {
			panic(err)
		}
	}))
	m := jobs.NewManager(jobs.Options{Workers: 1})
	defer m.Close()
	p, err := jobs.PrepareRequest(req)
	if err != nil {
		return err
	}
	st, err := m.SubmitPrepared(p)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), freshTimeout)
	defer cancel()
	if st, err = m.Wait(ctx, st.ID); err != nil || st.State != jobs.StateDone {
		return fmt.Errorf("jobs probe: state %q err %v", st.State, err)
	}
	buf := make([]byte, 0, 1<<14)
	layer["jobs.submit_cached_ns"] = float64(perOp(n(200_000), func(int) {
		hit, err := m.SubmitPrepared(p)
		if err == nil {
			buf, err = hit.AppendJSON(buf[:0])
		}
		if err != nil {
			panic(err)
		}
	}).Nanoseconds())
	layer["telemetry.scrape_ms"] = ms(medianOp(50, func(int) { m.Telemetry().WritePrometheus(io.Discard) }))
	return nil
}

// casProbe times durable puts and verified gets of a result-sized object.
func casProbe(scratch string, layer map[string]float64) error {
	dir, err := os.MkdirTemp(scratch, "cas-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cas.Open(dir, cas.Options{})
	if err != nil {
		return err
	}
	const objects = 50
	payload := make([]byte, 1024)
	keys := make([]string, objects)
	for i := range keys {
		sum := sha256.Sum256([]byte{byte(i)})
		keys[i] = "sha256:" + hex.EncodeToString(sum[:])
	}
	var perr error
	layer["cas.put_us"] = us(medianOp(objects, func(i int) {
		if err := store.Put(keys[i], payload); err != nil {
			perr = err
		}
	}))
	layer["cas.get_us"] = us(medianOp(objects, func(i int) {
		if _, ok := store.Get(keys[i]); !ok {
			perr = fmt.Errorf("cas probe: object %d missing", i)
		}
	}))
	return perr
}
