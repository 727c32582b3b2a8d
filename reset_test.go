package ftgcs

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// resetMatrix is the feature matrix for the reset-vs-fresh differential:
// every configuration axis that owns mutable run state appears at least
// once (stateful drift models, stateful delay RNG streams, Byzantine
// strategies, crash and off-spec faults, the global-skew estimator, round
// and cluster instrumentation, staggered starts).
func resetMatrix() map[string]*Scenario {
	silentCtor := func() Attack { return Silent() }
	return map[string]*Scenario{
		"baseline": NewScenario(
			WithTopology(Line(3)),
			WithClusters(4, 1),
			WithHorizon(2),
		),
		"randomwalk-extremal": NewScenario(
			WithTopology(Line(3)),
			WithClusters(4, 1),
			WithDriftName("randomwalk"),
			WithDelayName("extremal"),
			WithHorizon(2),
		),
		"adaptive-attack": NewScenario(
			WithTopology(Line(3)),
			WithClusters(4, 1),
			WithAttackName("adaptive-two-faced", 3, 7),
			WithHorizon(2),
		),
		"crash-offspec": NewScenario(
			WithTopology(Line(3)),
			WithClusters(4, 1),
			WithFaults(
				FaultSpec{Node: 2, CrashAt: 0.5},
				FaultSpec{Node: 5, OffSpecRate: 1.002},
			),
			WithHorizon(2),
		),
		"tracking-stagger": NewScenario(
			WithTopology(Ring(3)),
			WithClusters(4, 1),
			WithDriftName("sine"),
			WithRoundTracking(),
			WithStaggerStart(0.002),
			WithHorizon(2),
		),
		"no-globalskew": NewScenario(
			WithTopology(Line(3)),
			WithClusters(4, 1),
			WithGlobalSkew(false),
			WithDriftName("gradient"),
			WithHorizon(2),
		),
		"per-cluster-attack": NewScenario(
			WithTopology(Grid(2, 2)),
			WithClusters(4, 1),
			WithAttackPerCluster(silentCtor, 2),
			WithHorizon(2),
		),
	}
}

// dumpSystem serializes everything externally observable about a finished
// run: every recorded series (CSV and JSON forms), the bound report, the
// raw summary, per-node round traces and per-cluster pulse diameters.
func dumpSystem(t *testing.T, sys *System) string {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(seriesBytes(t, sys))
	fmt.Fprintf(&buf, "report=%+v\nsummary=%+v\n", sys.Report(), sys.Summary(0.2))
	for v := 0; v < sys.Nodes(); v++ {
		times, values, pulses := sys.RoundTrace(v)
		if times != nil {
			fmt.Fprintf(&buf, "trace[%d]=%v|%v|%v\n", v, times, values, pulses)
		}
	}
	for c := 0; c < sys.Clusters(); c++ {
		if pd := sys.PulseDiameters(ClusterID(c)); len(pd) > 0 {
			fmt.Fprintf(&buf, "pd[%d]=%v\n", c, pd)
		}
	}
	return buf.String()
}

// runFresh builds sc at the given seed and runs it to its horizon.
func runFresh(t *testing.T, sc *Scenario, seed int64) *System {
	t.Helper()
	sys, err := sc.With(WithSeed(seed)).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(sc.Horizon(sys.Params())); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSystemResetMatchesFreshBuild is the core differential: for every
// matrix entry, build at seed A, run, Reset to seed B, run — the second
// run's full observable output must be byte-identical to a fresh build at
// seed B. A same-seed reset must likewise replay the first run exactly.
func TestSystemResetMatchesFreshBuild(t *testing.T) {
	for name, sc := range resetMatrix() {
		t.Run(name, func(t *testing.T) {
			const seedA, seedB = 7, 99
			wantA := dumpSystem(t, runFresh(t, sc, seedA))
			wantB := dumpSystem(t, runFresh(t, sc, seedB))
			if sc.trackRounds && !strings.Contains(wantA, "pd[0]=") {
				t.Fatal("a round-tracking run dumped no pulse diameters")
			}

			sys, err := sc.With(WithSeed(seedA)).Build()
			if err != nil {
				t.Fatal(err)
			}
			h := sc.Horizon(sys.Params())
			if err := sys.Run(h); err != nil {
				t.Fatal(err)
			}
			if got := dumpSystem(t, sys); got != wantA {
				t.Fatal("pre-reset run diverged from fresh build at the same seed")
			}

			if err := sys.Reset(seedB); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(h); err != nil {
				t.Fatal(err)
			}
			if got := dumpSystem(t, sys); got != wantB {
				t.Fatalf("reset(seed=%d) run differs from fresh build:\nfresh: %.400s\nreset: %.400s", seedB, wantB, dumpSystem(t, sys))
			}

			// Same-seed reset: replay must be exact, including a
			// double-reset (reset of an unrun system) in the middle.
			if err := sys.Reset(seedA); err != nil {
				t.Fatal(err)
			}
			if err := sys.Reset(seedA); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(h); err != nil {
				t.Fatal(err)
			}
			if got := dumpSystem(t, sys); got != wantA {
				t.Fatalf("same-seed replay after reset diverged")
			}
		})
	}
}

// TestSystemResetSeedPermutation is the property test: one system pushed
// through a shuffled order of seeds, twice, must reproduce the fresh-build
// output of every seed regardless of position or repetition.
func TestSystemResetSeedPermutation(t *testing.T) {
	sc := resetMatrix()["randomwalk-extremal"]
	seeds := []int64{3, 11, 42, 1000003, -5}

	want := make(map[int64]string, len(seeds))
	for _, seed := range seeds {
		want[seed] = dumpSystem(t, runFresh(t, sc, seed))
	}

	order := append(append([]int64(nil), seeds...), seeds...)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	sys, err := sc.With(WithSeed(order[0])).Build()
	if err != nil {
		t.Fatal(err)
	}
	h := sc.Horizon(sys.Params())
	for i, seed := range order {
		if i > 0 {
			if err := sys.Reset(seed); err != nil {
				t.Fatalf("reset #%d (seed %d): %v", i, seed, err)
			}
		}
		if err := sys.Run(h); err != nil {
			t.Fatalf("run #%d (seed %d): %v", i, seed, err)
		}
		if got := dumpSystem(t, sys); got != want[seed] {
			t.Fatalf("run #%d: seed %d diverged from its fresh build", i, seed)
		}
	}
}

// TestSystemResetAfterCanceledRun cancels a run mid-flight from another
// goroutine (exercising the Progress/cancel atomics under -race), then
// resets and re-runs: no event from the truncated run may survive into
// the replay, and stale generation counters must keep old handles inert.
func TestSystemResetAfterCanceledRun(t *testing.T) {
	sc := resetMatrix()["adaptive-attack"]
	const seed = 13
	want := dumpSystem(t, runFresh(t, sc, seed))

	sys, err := sc.With(WithSeed(seed)).Build()
	if err != nil {
		t.Fatal(err)
	}
	h := sc.Horizon(sys.Params())

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for sys.Progress().Events < 500 {
			runtime.Gosched()
		}
		cancel()
	}()
	err = sys.RunContext(ctx, h)
	cancel()
	if err == nil {
		// The run outpaced the canceler — still a valid state to reset.
		t.Log("run completed before cancellation")
	}

	if err := sys.Reset(seed); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(h); err != nil {
		t.Fatal(err)
	}
	if got := dumpSystem(t, sys); got != want {
		t.Fatal("replay after canceled run diverged from fresh build")
	}
}

// TestSweepReuseDifferential runs a replicate-shaped sweep (pinned
// topology, varying seeds, one build-breaking intruder in the middle) with
// the reuse fast path on and off, across worker counts, and requires
// deeply equal results.
func TestSweepReuseDifferential(t *testing.T) {
	topo := Line(3)
	base := NewScenario(
		WithTopology(topo),
		WithClusters(4, 1),
		WithDriftName("randomwalk"),
		WithAttackName("silent", 3),
		WithHorizon(2),
		WithObserver(func(sys *System) (any, error) {
			return sys.Summary(0.2).MaxLocalCluster, nil
		}),
	)
	var scenarios []*Scenario
	for seed := int64(1); seed <= 8; seed++ {
		scenarios = append(scenarios, base.With(WithSeed(seed), WithName("seed %d", seed)))
	}
	// An intruder with a different build key forces a build mid-stream;
	// the scenario after it must still be correct.
	scenarios[4] = base.With(WithSeed(5), WithDriftName("sine"), WithName("intruder"))

	strip := func(rs []SweepResult) []SweepResult {
		for i := range rs {
			if rs[i].Err != nil {
				t.Fatalf("scenario %d (%s): %v", rs[i].Index, rs[i].Name, rs[i].Err)
			}
		}
		return rs
	}
	for _, workers := range []int{1, 4} {
		reused := strip(Sweep{Workers: workers}.Run(scenarios))
		rebuilt := strip(Sweep{Workers: workers, NoReuse: true}.Run(scenarios))
		if !reflect.DeepEqual(reused, rebuilt) {
			t.Fatalf("workers=%d: reuse and rebuild sweeps differ:\nreuse:   %+v\nrebuild: %+v", workers, reused, rebuilt)
		}
	}

	// Pure replicates through the sweep's own pool (nil Pool): one worker
	// builds once for all eight seeds; four workers build at most once
	// each, and which worker's system a seed lands on changes nothing.
	scenarios[4] = base.With(WithSeed(5), WithName("seed 5"))
	rebuilt := strip(Sweep{Workers: 1, NoReuse: true}.Run(scenarios))
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		built := map[*System]bool{}
		sw := Sweep{Workers: workers, OnSystemStart: func(_ int, sys *System, _ float64) {
			mu.Lock()
			built[sys] = true
			mu.Unlock()
		}}
		if reused := strip(sw.Run(scenarios)); !reflect.DeepEqual(reused, rebuilt) {
			t.Fatalf("workers=%d: replicate sweep differs from rebuild:\nreuse:   %+v\nrebuild: %+v", workers, reused, rebuilt)
		}
		if len(built) > workers {
			t.Errorf("workers=%d: %d seeds ran on %d systems, want ≤ %d", workers, len(scenarios), len(built), workers)
		}
	}
}

// recordingAttack notes the node of every Install.
type recordingAttack struct{ installs []NodeID }

func (*recordingAttack) Name() string { return "recording" }
func (a *recordingAttack) Install(ctx AttackContext) (PulseHandler, error) {
	a.installs = append(a.installs, ctx.Self)
	return nil, nil
}

// TestInstallOncePerSeeding pins what building, resetting and pooling share:
// each puts the system in its initial state through one routine, which
// installs every faulty node's strategy exactly once, in ascending node
// order however the faults were listed — a strategy may send from inside
// Install, so the order is part of the execution.
func TestInstallOncePerSeeding(t *testing.T) {
	rec := &recordingAttack{}
	sc := NewScenario(
		WithTopology(Line(3)),
		WithClusters(4, 1),
		WithAttack(rec, 9, 2, 6),
	)
	check := func(how string) {
		t.Helper()
		if want := []NodeID{2, 6, 9}; !reflect.DeepEqual(rec.installs, want) {
			t.Errorf("%s installed on %v, want %v", how, rec.installs, want)
		}
		rec.installs = rec.installs[:0]
	}
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	check("Build")
	if err := sys.Reset(5); err != nil {
		t.Fatal(err)
	}
	check("Reset")
	pool := NewSystemPool(1)
	pool.Release(sc, sys)
	if pool.Acquire(sc.With(WithSeed(7))) != sys {
		t.Fatal("pool did not hand the system back")
	}
	check("SystemPool.Acquire")
}
