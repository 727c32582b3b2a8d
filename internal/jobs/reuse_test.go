package jobs

import (
	"encoding/json"
	"testing"

	"ftgcs/internal/sim"
	"ftgcs/internal/spec"
)

// replicatedSpec is a reuse-eligible replicated experiment: pinned
// topology draw (resolved once at Submit), a stateful drift adversary and
// a per-cluster Byzantine attack — the state that a reused system must
// rewind exactly.
func replicatedSpec(seed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Topology: spec.Topology{Name: "line", Size: 3},
		Seed:     seed,
		Drift:    "randomwalk",
		Attack:   &spec.Attack{Name: "silent", Clusters: 1},
		Horizon:  spec.Horizon{Seconds: 2},
	}
}

// TestReplicatedJobReuseDifferential runs the same replicated request
// through a reusing manager (the default: one build per sweep worker,
// reset per additional seed) and a rebuilding one, and requires the
// serialized results to be byte-identical — the jobs-level proof of the
// reset contract.
func TestReplicatedJobReuseDifferential(t *testing.T) {
	run := func(noReuse bool) []byte {
		t.Helper()
		m := NewManager(Options{Workers: 1, SweepWorkers: 1, NoReuse: noReuse})
		defer m.Close()
		st, err := m.Submit(Request{Spec: replicatedSpec(7), Replicate: 4})
		if err != nil {
			t.Fatal(err)
		}
		final := waitDone(t, m, st.ID)
		if final.State != StateDone || final.Result == nil || final.Result.Replicates == nil {
			t.Fatalf("replicated job did not complete: %+v", final)
		}
		b, err := json.Marshal(final.Result)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reused, rebuilt := run(false), run(true)
	if string(reused) != string(rebuilt) {
		t.Fatalf("reuse changed a replicated job's result:\nreuse:   %s\nrebuild: %s", reused, rebuilt)
	}
}

// benchSpec is build-heavy and run-light: a 16-cluster grid at k=7 (112
// nodes) over a tiny horizon, so the per-seed setup cost dominates and
// the reuse-vs-rebuild gap is what the benchmark measures.
func benchSpec(seed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Topology: spec.Topology{Name: "grid", Size: 4},
		Clusters: spec.Clusters{K: 7, F: 2},
		Seed:     seed,
		Horizon:  spec.Horizon{Seconds: 0.02},
	}
}

// BenchmarkReplicatedJob pushes 8 seeds of a build-heavy spec through the
// manager per iteration. The reuse arm builds once and resets per seed;
// the rebuild arm constructs all 8 systems from scratch. Per-iteration
// seeds differ so the result cache never short-circuits the work.
func BenchmarkReplicatedJob(b *testing.B) {
	for _, arm := range []struct {
		name    string
		noReuse bool
	}{{"reuse", false}, {"rebuild", true}} {
		b.Run(arm.name, func(b *testing.B) {
			m := NewManager(Options{Workers: 1, SweepWorkers: 1, NoReuse: arm.noReuse})
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runToDone(b, m, Request{Spec: benchSpec(int64(1 + i*1000)), Replicate: 8})
			}
		})
	}
}

// runToDone submits a fresh request and waits for it to complete.
func runToDone(tb testing.TB, m *Manager, req Request) {
	tb.Helper()
	st, err := m.Submit(req)
	if err != nil {
		tb.Fatal(err)
	}
	if st := waitDone(tb, m, st.ID); st.State != StateDone {
		tb.Fatalf("job state %v", st.State)
	}
}

// TestReplicatedJobReuseAllocs pins BenchmarkReplicatedJob/reuse at a fixed
// iteration count (b.N-amortised readings of the same row moved by a few
// allocations with the count the harness picked): 8 seeds through one
// manager cost 8 resets of the pooled system plus the job's own
// bookkeeping, nowhere near the ~7 700 of a single rebuild. AllocsPerRun's
// warm-up call pays the one build.
func TestReplicatedJobReuseAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := NewManager(Options{Workers: 1, SweepWorkers: 1})
	defer m.Close()
	seed := int64(1)
	allocs := testing.AllocsPerRun(10, func() {
		runToDone(t, m, Request{Spec: benchSpec(seed), Replicate: 8})
		seed += 1000
	})
	if allocs > 3150 {
		t.Errorf("8 reused seeds allocate %.0f per job, want ≤ 3150 (3113 measured)", allocs)
	}
}
