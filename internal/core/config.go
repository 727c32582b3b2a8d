// Package core assembles the complete FTGCS system of the paper: the
// augmented network G (clusters of k ≥ 3f+1 nodes), ClusterSync within
// clusters (Algorithm 1), passive observers producing neighbor-cluster
// estimates (Corollary 3.5), InterclusterSync mode selection at round
// boundaries (Algorithm 2 + Theorem C.3 rules), and the Appendix C
// global-skew estimate machinery — all running on the deterministic
// discrete-event engine, instrumented for the experiments.
//
// Adversaries are pluggable: drift schedules implement DriftModel, message
// delay strategies implement DelayModel, and Byzantine behaviors implement
// byzantine.Strategy; models.go holds the built-in implementations.
package core

import (
	"fmt"

	"ftgcs/internal/byzantine"
	"ftgcs/internal/graph"
	"ftgcs/internal/params"
)

// FaultSpec marks one physical node faulty.
//
// Exactly one of the behavior fields applies, in this precedence order:
// Strategy (arbitrary Byzantine behavior from the byzantine package),
// CrashAt > 0 (correct until CrashAt, then silent), OffSpecRate ≠ 0 (runs
// the correct algorithm on a hardware clock of absolute rate OffSpecRate,
// possibly outside [1, 1+ρ] — the paper's "sub-nominal speed" example).
type FaultSpec struct {
	Node        graph.NodeID
	Strategy    byzantine.Strategy
	CrashAt     float64
	OffSpecRate float64
}

// Config describes a complete system build.
type Config struct {
	// Base is the cluster graph 𝒢.
	Base *graph.Graph
	// K is the cluster size (≥ 3F+1).
	K int
	// F is the per-cluster fault budget.
	F int
	// Params are the derived algorithm constants.
	Params params.Params
	// Seed drives all randomness (delays, drift, adversaries).
	Seed int64

	// Drift selects the rate adversary; nil means SpreadDrift.
	Drift DriftModel
	// Delay selects the delay adversary; nil means UniformDelayModel.
	Delay DelayModel

	// Faults lists the faulty nodes. At most F per cluster for the
	// paper's guarantees to apply (experiments exceed it deliberately).
	Faults []FaultSpec

	// EnableGlobalSkew turns on the Appendix C M_v machinery and the
	// Theorem C.3 catch-up rule.
	EnableGlobalSkew bool

	// SampleInterval is the metric sampling period; 0 selects T/2.
	SampleInterval float64
	// HorizonHint, when positive, is the expected run horizon in
	// simulated seconds. It is a preallocation hint only — metric series
	// are sized for it up front so the sampler does not reallocate — and
	// has no effect on any simulated value. Runs may exceed the hint;
	// series then grow as before.
	HorizonHint float64
	// TrackRounds records a per-node round trace with three columns per
	// round: its start time, the logical value then and its pulse time.
	// System.PulseDiameters reads the pulse column (experiment E3), the
	// rate windows of experiment E4 the other two.
	TrackRounds bool

	// ModeOverride, when non-nil, replaces the GCS decision: returning
	// (mode, true) forces the node's mode for that round. Used by the
	// unanimity experiments (E4).
	ModeOverride func(node graph.NodeID, cluster graph.ClusterID, round int) (int, bool)

	// StaggerStart, when positive, delays the protocol start of cluster
	// member i by i·StaggerStart/(k−1) seconds. This injects an initial
	// pulse-diameter ‖p(1)‖ ≈ StaggerStart, which the convergence
	// experiment (E3) watches contract towards the steady state E
	// (Eq. 9/12). Must stay well below τ₁ so round-1 pulses still land in
	// every member's listening window.
	StaggerStart float64
}

// Validate checks that the configuration can be built: the cluster
// geometry tolerates F (k ≥ 3f+1), the parameters are derived, and every
// fault targets a distinct node of the augmented network. NewSystem
// calls it; ftgcs.Scenario.Validate calls it without building.
func (c *Config) Validate() error {
	if c.Base == nil || c.Base.N() == 0 {
		return fmt.Errorf("core: empty base graph")
	}
	if c.K < 1 {
		return fmt.Errorf("core: cluster size k=%d < 1", c.K)
	}
	if c.F < 0 || (c.F > 0 && c.K < 3*c.F+1) {
		return fmt.Errorf("core: k=%d cannot tolerate f=%d (need k ≥ 3f+1)", c.K, c.F)
	}
	if !(c.Params.T > 0) {
		return fmt.Errorf("core: parameters not derived (T=%v)", c.Params.T)
	}
	nodes := c.Base.N() * c.K
	seen := make(map[graph.NodeID]bool, len(c.Faults))
	for _, f := range c.Faults {
		if f.Node < 0 || f.Node >= nodes {
			return fmt.Errorf("core: fault node %d outside [0,%d)", f.Node, nodes)
		}
		if seen[f.Node] {
			return fmt.Errorf("core: duplicate fault spec for node %d", f.Node)
		}
		seen[f.Node] = true
	}
	return nil
}
