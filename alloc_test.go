package ftgcs_test

import (
	"testing"

	"ftgcs"
	"ftgcs/internal/sim"
)

// TestSimSecondSteadyStateAllocs pins the recording hot path: with the
// horizon known at build time, metric series and pulse bookkeeping are
// preallocated to their full expected size, so advancing the simulation
// through its horizon allocates (almost) nothing per simulated second.
// Before the preallocation + cached edge list this figure was ~460
// allocs per simulated second (graph.Edges rebuilt and re-sorted on
// every sampler tick, plus amortized slice growth). The two-faced case
// runs the benchmark's attacker, one per cluster: it allocated 1 699 per
// simulated second while it scheduled one closure per neighbor per round.
func TestSimSecondSteadyStateAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const horizon = 60.0
	for _, tc := range []struct {
		name string
		opts []ftgcs.Option
	}{
		{"fault-free", nil},
		{"two-faced", []ftgcs.Option{
			ftgcs.WithAttackPerCluster(func() ftgcs.Attack { return ftgcs.TwoFaced() }, 0),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := ftgcs.NewScenario(append([]ftgcs.Option{
				ftgcs.WithTopology(ftgcs.Line(5)),
				ftgcs.WithClusters(4, 1),
				ftgcs.WithPhysical(3e-3, 1e-3, 1e-4),
				ftgcs.WithConstants(4, 0.25),
				ftgcs.WithSeed(1),
				ftgcs.WithDrift(ftgcs.GradientDrift{}),
				ftgcs.WithHorizon(horizon),
			}, tc.opts...)...).Build()
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: protocol start, event-pool growth, lazy series creation.
			if err := sys.Run(10); err != nil {
				t.Fatal(err)
			}
			next := 11.0
			avg := testing.AllocsPerRun(int(horizon)-11, func() {
				if err := sys.Run(next); err != nil {
					t.Fatal(err)
				}
				next++
			})
			// The substrate is not strictly zero-alloc (occasional event-pool or
			// estimator growth), but the per-second steady state must stay two
			// orders of magnitude below the pre-fix ~460.
			if avg > 4 {
				t.Errorf("steady-state simulation allocates %.1f per simulated second, want ≤ 4", avg)
			}
		})
	}
}

// benchGridScenario is the BenchmarkSystemBuild configuration (112
// nodes), shared by the build/reset/pool allocation pins and benchmarks.
func benchGridScenario() *ftgcs.Scenario {
	return ftgcs.NewScenario(
		ftgcs.WithTopology(ftgcs.Grid(4, 4)),
		ftgcs.WithClusters(7, 2),
		ftgcs.WithPhysical(3e-3, 1e-3, 1e-4),
		ftgcs.WithConstants(4, 0.25),
	)
}

// TestSystemBuildAllocs pins the wiring cost of a 112-node system. The
// lazy RNG seeding and batched cluster buffers brought this from ~8800
// to ~7700 allocations; the pin catches silent regressions (every alloc
// here is paid once per scenario in a sweep, or once per worker with
// arena reuse).
func TestSystemBuildAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sc := benchGridScenario()
	avg := testing.AllocsPerRun(10, func() {
		if _, err := sc.Build(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8200 {
		t.Errorf("SystemBuild allocates %.0f, want ≤ 8200 (~7700 expected)", avg)
	}
}

// TestSystemResetAllocs pins the arena-reset cost on the same system: a
// reset re-derives RNG streams in place and reboxes the per-node rate
// models, but must stay two orders of magnitude below a rebuild (~7700).
func TestSystemResetAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys, err := benchGridScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	reset := testing.AllocsPerRun(10, func() {
		seed++
		if err := sys.Reset(seed); err != nil {
			t.Fatal(err)
		}
	})
	if reset > 160 {
		t.Errorf("System.Reset allocates %.0f, want ≤ 160 (~113 expected)", reset)
	}

	// A warm pool round trip is that Reset plus two key derivations
	// (Acquire's and Release's), each allocating the expanded fault list
	// and one boxed key node per fault — nothing for a fault-free scenario.
	// It was 24 on top of Reset in the sweep_reuse benchmark's shape when
	// every comparison expanded both scenarios' fault lists.
	sc := benchGridScenario().With(ftgcs.WithAttackName("silent", 6, 13))
	pool := ftgcs.NewSystemPool(1)
	if sys, err = sc.Build(); err != nil {
		t.Fatal(err)
	}
	pool.Release(sc, sys)
	warm := testing.AllocsPerRun(10, func() {
		pool.Release(sc, pool.Acquire(sc))
	})
	if st := pool.Stats(); st.Misses != 0 {
		t.Fatalf("warm pool missed: %+v", st)
	}
	if warm > reset+6 {
		t.Errorf("warm Acquire+Release allocates %.0f, want ≤ Reset's %.0f + 2·(1 + 2 faults)", warm, reset)
	}
}
