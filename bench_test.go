// Benchmarks regenerating every reproduction experiment (E1–E14, one per
// quantitative claim of the paper). Each benchmark executes the experiment
// in quick mode per iteration and logs the result table (visible with
// `go test -bench=E -v`); cmd/ftgcs-experiments produces the full-sweep
// versions.
//
// The trailing micro-benchmarks measure the simulation substrate itself.
// This file is an external test package: the harness imports ftgcs (the
// experiments are Sweep consumers), so an in-package benchmark would be an
// import cycle.
package ftgcs_test

import (
	"bytes"
	"strings"
	"testing"

	"ftgcs"
	"ftgcs/internal/harness"
)

// benchExperiment runs one experiment per iteration and fails the
// benchmark if the experiment errors or any row reports VIOLATED where the
// claim must hold unconditionally.
func benchExperiment(b *testing.B, id string, allowViolations bool) {
	b.Helper()
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Run(harness.RunConfig{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		if i == 0 {
			b.Log("\n" + buf.String())
		}
		if !allowViolations && strings.Contains(buf.String(), "VIOLATED") {
			b.Fatalf("%s reported a violated bound:\n%s", id, buf.String())
		}
	}
}

func BenchmarkE1_LocalSkewVsDiameter(b *testing.B)     { benchExperiment(b, "E1", false) }
func BenchmarkE2_IntraClusterSkew(b *testing.B)        { benchExperiment(b, "E2", false) }
func BenchmarkE3_ConvergenceRate(b *testing.B)         { benchExperiment(b, "E3", false) }
func BenchmarkE4_UnanimousRates(b *testing.B)          { benchExperiment(b, "E4", true) } // aggressive presets may violate Lemma 3.6 windows (documented finding)
func BenchmarkE5_TriggerExclusivity(b *testing.B)      { benchExperiment(b, "E5", true) } // δ ≥ κ/2 rows document the sharp boundary
func BenchmarkE6_GlobalSkew(b *testing.B)              { benchExperiment(b, "E6", false) }
func BenchmarkE7_FailureProbability(b *testing.B)      { benchExperiment(b, "E7", false) }
func BenchmarkE8_PlainGCSFails(b *testing.B)           { benchExperiment(b, "E8", false) }
func BenchmarkE9_TreeSyncBaseline(b *testing.B)        { benchExperiment(b, "E9", false) }
func BenchmarkE10_GCSAxioms(b *testing.B)              { benchExperiment(b, "E10", false) }
func BenchmarkE11_AugmentationOverhead(b *testing.B)   { benchExperiment(b, "E11", false) }
func BenchmarkE12_ResilienceBoundary(b *testing.B)     { benchExperiment(b, "E12", true) } // >f rows are supposed to break
func BenchmarkE13_SkewVsDelayUncertainty(b *testing.B) { benchExperiment(b, "E13", false) }
func BenchmarkE14_ParameterFeasibility(b *testing.B)   { benchExperiment(b, "E14", false) }

// Ablation studies: design-choice probes, not paper claims.
func BenchmarkA1_TransientFaultRecovery(b *testing.B) { benchExperiment(b, "A1", true) } // beyond-window rows partition by design
func BenchmarkA2_KappaSensitivity(b *testing.B)       { benchExperiment(b, "A2", false) }
func BenchmarkA3_GlobalSkewAblation(b *testing.B)     { benchExperiment(b, "A3", false) }

// --- Substrate micro-benchmarks ---

// BenchmarkSystemSimSecond measures the cost of one simulated second of a
// 5-cluster line (k=4, f=1, one Byzantine per cluster) including the
// global-skew machinery.
func BenchmarkSystemSimSecond(b *testing.B) {
	sys, err := ftgcs.NewScenario(
		ftgcs.WithTopology(ftgcs.Line(5)),
		ftgcs.WithClusters(4, 1),
		ftgcs.WithPhysical(3e-3, 1e-3, 1e-4),
		ftgcs.WithConstants(4, 0.25),
		ftgcs.WithSeed(1),
		ftgcs.WithDrift(ftgcs.GradientDrift{}),
	).Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Run(float64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemBuild measures system wiring cost for a 4×4 grid of
// clusters (112 nodes at k=7).
func BenchmarkSystemBuild(b *testing.B) {
	sc := benchGridScenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemReset measures rewinding the BenchmarkSystemBuild system
// in place — the per-additional-seed setup cost of a replicate batch. The
// ratio to BenchmarkSystemBuild is the rebuild tax the reuse path kills.
func BenchmarkSystemReset(b *testing.B) {
	sys, err := benchGridScenario().Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Reset(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeriveParams measures the full constant derivation.
func BenchmarkDeriveParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ftgcs.DeriveParams(ftgcs.PresetPractical, 1e-4, 1e-3, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}
