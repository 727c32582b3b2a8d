// Package ftgcs is a from-scratch implementation of Fault-Tolerant
// Gradient Clock Synchronization (Bund, Lenzen, Rosenbaum — PODC 2019,
// arXiv:1902.08042).
//
// The algorithm synchronizes logical clocks across an arbitrary network
// graph 𝒢 so that the worst-case skew between *neighbors* is
// O((ρd+U)·log D) — exponentially better than the Θ(D) global skew — while
// tolerating up to f Byzantine nodes per cluster. It combines:
//
//   - ClusterSync (Algorithm 1): a Lynch–Welch variant with amortized
//     corrections, run inside fully connected clusters of k ≥ 3f+1 nodes
//     that replace each node of 𝒢;
//   - InterclusterSync (Algorithm 2): the Lenzen–Locher–Wattenhofer
//     gradient clock synchronization algorithm simulated on cluster
//     clocks, with fast/slow triggers evaluated on Byzantine-robust
//     estimates of neighboring clusters;
//   - the Appendix C global-skew machinery (max-estimates M_v with
//     fault-tolerant level flooding and a catch-up rule).
//
// The package runs complete systems on a deterministic discrete-event
// simulator: hardware clocks with adversarial drift, message delays in
// [d−U, d], Byzantine attack strategies, and instrumentation for every
// bound the paper proves. See the top-level README.md for a tour of the
// CLIs, the experiment harness, and how to register custom adversaries.
//
// # Quick start
//
//	sys, err := ftgcs.NewScenario(
//		ftgcs.WithTopology(ftgcs.Line(3)),    // three clusters in a line
//		ftgcs.WithClusters(4, 1),             // k = 3f+1, tolerate f = 1 Byzantine per cluster
//		ftgcs.WithPhysical(1e-3, 1e-3, 1e-4), // drift bound ρ, max delay d (s), uncertainty U (s)
//		ftgcs.WithSeed(1),
//	).Build()
//	if err != nil { ... }
//	if err := sys.Run(60); err != nil { ... }  // 60 simulated seconds
//	report := sys.Report()
//	fmt.Println(report)
//
// Scenario.Run does the same in one call given WithHorizon(60). See
// Scenario for the full option catalog, Registry for name-based
// resolution of topologies and adversaries, and Sweep for parallel
// batches.
package ftgcs

import (
	"context"
	"fmt"
	"io"
	"math"

	"ftgcs/internal/core"
	"ftgcs/internal/graph"
	"ftgcs/internal/metrics"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
)

// Re-exported configuration types. These aliases let callers configure
// topologies, fault injections and derived constants without importing
// internal packages (adversary.go re-exports the drift, delay and attack
// model types).
type (
	// Topology is a base cluster graph 𝒢 (see the constructors Line,
	// Ring, Grid, Torus, Tree, Clique, Star, Hypercube, Random).
	Topology = graph.Graph
	// FaultSpec marks a node Byzantine (strategy, crash, or off-spec
	// clock).
	FaultSpec = core.FaultSpec
	// Params holds every derived algorithm constant (τ-phases, E, κ, δ…).
	Params = params.Params
	// Preset selects the analysis constants (PresetPaperStrict uses the
	// paper's Eq. 5 values; PresetPractical is feasible at realistic
	// drift).
	Preset = params.Preset
)

// Analysis-constant presets.
const (
	PresetPaperStrict = params.PaperStrict
	PresetPractical   = params.Practical
)

// System is a runnable FTGCS simulation: Algorithm 1 on the core
// package, the only implementation of the algorithm in the repository.
// Comparison baselines such as internal/baseline's TreeSync are separate
// system types, not Systems.
type System struct {
	sys *core.System
}

// Progress is a cross-goroutine-safe snapshot of a running system: how
// many simulation events have executed (Events) and how far simulated
// time has advanced (Now, seconds). Both fields are monotone within one
// run.
type Progress = sim.Progress

// Params returns the derived algorithm constants.
func (s *System) Params() Params { return s.sys.Params() }

// Run is RunContext without cancellation.
func (s *System) Run(until float64) error {
	return s.RunContext(context.Background(), until)
}

// RunContext advances simulated time to the given horizon (seconds). It
// may be called repeatedly with increasing horizons. A done context aborts
// the run with ctx.Err() after the in-flight simulation event, leaving
// simulated time where the run stopped. The event prefix executed before
// cancellation is identical to an uncanceled run's, so resuming with a
// later Run/RunContext call continues deterministically.
func (s *System) RunContext(ctx context.Context, until float64) error {
	return s.sys.RunContext(ctx, until)
}

// Reset rewinds the system to a fresh pre-run state under the new seed,
// reusing every structure Build allocated. A subsequent Run produces
// output byte-identical to a freshly built System with that seed and the
// same structural build inputs — note a system built from a randomized
// named topology keeps its already-drawn graph (reset never redraws
// structure; the Sweep reuse path therefore only kicks in for scenarios
// sharing a pinned *Topology). An error leaves the system in an undefined
// state — discard it. Values read from a previous run that alias live
// system state (Series pointers, RoundTrace slices) are invalidated by a
// Reset: clone what must outlive it.
func (s *System) Reset(seed int64) error { return s.sys.Reset(seed) }

// Now returns the current simulated time.
func (s *System) Now() float64 { return s.sys.Now() }

// Progress returns a snapshot of the run: simulation events executed and
// current simulated time. Unlike every other System method it is safe to
// call from any goroutine while Run/RunContext is in flight — it is how
// the experiment service reports live progress on running jobs.
func (s *System) Progress() Progress { return s.sys.Progress() }

// Logical returns node v's logical clock L_v at the current time.
func (s *System) Logical(v int) float64 { return s.sys.Logical(v) }

// ClusterClock returns cluster c's clock L_C = (L⁺+L⁻)/2 over its correct
// members (Definition 3.3).
func (s *System) ClusterClock(c int) float64 { return s.sys.ClusterClock(c) }

// Estimate returns node v's estimate L̃_vB of neighboring cluster b's
// clock (NaN if b is not adjacent to v's cluster).
func (s *System) Estimate(v, b int) float64 { return s.sys.Estimate(v, b) }

// Nodes returns the number of physical nodes (|𝒞|·k).
func (s *System) Nodes() int { return s.sys.Aug().Net.N() }

// Clusters returns the number of clusters |𝒞|.
func (s *System) Clusters() int { return s.sys.Aug().Clusters() }

// Diameter returns the hop diameter of the base graph.
func (s *System) Diameter() int { return s.sys.Diameter() }

// Series exposes a recorded metric time series (see the core package's
// Series* constants re-exported below), or nil.
func (s *System) Series(name string) *metrics.Series { return s.sys.Recorder().Series(name) }

// WriteCSV exports the recorded metric series (all by default) as CSV for
// plotting; one row per sample time, one column per series.
func (s *System) WriteCSV(w io.Writer, names ...string) error {
	return s.sys.Recorder().WriteCSV(w, names...)
}

// WriteJSON exports the recorded metric series (all by default) as a JSON
// document; lossless sibling of WriteCSV.
func (s *System) WriteJSON(w io.Writer, names ...string) error {
	return s.sys.Recorder().WriteJSON(w, names...)
}

// Summary condenses a finished run: maxima of every recorded skew series
// after the warmup prefix.
type Summary = core.Summary

// Summary computes the run summary, excluding samples before warmup
// (pass 0 to include everything).
func (s *System) Summary(warmup float64) Summary { return s.sys.Summarize(warmup) }

// PulseDiameters returns ‖p(r)‖ for cluster c indexed by round, for rounds
// where every correct member pulsed (see the pulse-diameter convergence
// experiment), read from the round traces. Empty unless WithRoundTracking.
func (s *System) PulseDiameters(c ClusterID) map[int]float64 { return s.sys.PulseDiameters(c) }

// RoundTrace returns node v's round trace: per round its start time, its
// logical value then and its pulse time (NaN until the pulse fires).
// Empty unless WithRoundTracking.
func (s *System) RoundTrace(v NodeID) (times, values, pulses []float64) {
	return s.sys.RoundTrace(v)
}

// InjectClockFault discontinuously shifts node v's logical clock by delta
// at the current simulation time — a transient fault outside the
// algorithm's fault model (see the self-stabilization ablation).
func (s *System) InjectClockFault(v NodeID, delta float64) error {
	return s.sys.InjectClockFault(v, delta)
}

// Metric series names.
const (
	SeriesIntraSkew    = core.SeriesIntraSkew
	SeriesLocalCluster = core.SeriesLocalCluster
	SeriesLocalNode    = core.SeriesLocalNode
	SeriesGlobal       = core.SeriesGlobal
	SeriesFastFraction = core.SeriesFastFraction
)

// Report summarizes a run against the paper's bounds.
type Report struct {
	// Horizon is the simulated time covered.
	Horizon float64
	// Warmup is the prefix excluded from the maxima.
	Warmup float64

	// MaxIntraClusterSkew vs Corollary 3.2's 2ϑ_g·E.
	MaxIntraClusterSkew, IntraClusterBound float64
	// MaxLocalSkew (between physical neighbors) vs Theorem 1.1's
	// O((ρd+U)·log D) with explicit constants.
	MaxLocalSkew, LocalSkewBound float64
	// MaxGlobalSkew vs Theorem C.3's O(δD).
	MaxGlobalSkew, GlobalSkewBound float64

	// Events is the number of simulation events processed.
	Events uint64
}

// AllWithinBounds reports whether every measured maximum respects its
// bound.
func (r Report) AllWithinBounds() bool {
	return r.MaxIntraClusterSkew <= r.IntraClusterBound &&
		r.MaxLocalSkew <= r.LocalSkewBound &&
		r.MaxGlobalSkew <= r.GlobalSkewBound
}

// String renders the report for terminals.
func (r Report) String() string {
	line := func(name string, got, bound float64) string {
		status := "ok"
		if got > bound {
			status = "VIOLATED"
		}
		return fmt.Sprintf("  %-22s %.3g  (bound %.3g, %s)\n", name, got, bound, status)
	}
	out := fmt.Sprintf("ftgcs report after %.3gs (warmup %.3gs, %d events)\n", r.Horizon, r.Warmup, r.Events)
	out += line("intra-cluster skew", r.MaxIntraClusterSkew, r.IntraClusterBound)
	out += line("local (neighbor) skew", r.MaxLocalSkew, r.LocalSkewBound)
	out += line("global skew", r.MaxGlobalSkew, r.GlobalSkewBound)
	return out
}

// Report computes the run summary, excluding the first 10% as warmup.
func (s *System) Report() Report {
	warmup := s.Now() / 10
	sum := s.sys.Summarize(warmup)
	p := s.sys.Params()
	d := s.Diameter()
	clean := func(v float64) float64 {
		if math.IsInf(v, -1) {
			return 0
		}
		return v
	}
	return Report{
		Horizon:             sum.Horizon,
		Warmup:              warmup,
		MaxIntraClusterSkew: clean(sum.MaxIntraSkew),
		IntraClusterBound:   p.ClusterSkewBound(),
		MaxLocalSkew:        clean(sum.MaxLocalNode),
		LocalSkewBound:      p.NodeLocalSkewBound(d),
		MaxGlobalSkew:       clean(sum.MaxGlobal),
		GlobalSkewBound:     p.GlobalSkewBound(d),
		Events:              sum.Events,
	}
}

// DeriveParams computes the algorithm constants for the given physical
// parameters and preset without building a system. The zero Preset means
// PresetPractical.
func DeriveParams(preset Preset, rho, delay, uncertainty float64) (Params, error) {
	return deriveParams(preset, rho, delay, uncertainty, 0, 0)
}
