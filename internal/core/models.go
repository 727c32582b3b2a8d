package core

import (
	"math"

	"ftgcs/internal/clockwork"
	"ftgcs/internal/graph"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
	"ftgcs/internal/transport"
)

// DriftCtx describes the node a rate model is being built for. It carries
// everything a drift adversary may condition on: the node's position in the
// augmented topology, the derived algorithm constants, and a per-node
// deterministic RNG stream.
type DriftCtx struct {
	// Node is the physical node ID.
	Node graph.NodeID
	// Cluster is the node's cluster, Index its position within it.
	Cluster graph.ClusterID
	Index   int
	// Clusters is |𝒞|, K the cluster size.
	Clusters, K int
	// Params are the derived algorithm constants (Rho, T, …).
	Params params.Params
	// Rng is the node's private deterministic random stream.
	Rng *sim.RNG
}

// DriftModel assigns hardware clock rate behavior per node. Implementations
// are adversaries from the paper's drift model: any rate schedule inside
// [1, 1+ρ] is admissible (and off-spec models deliberately leave it).
//
// A DriftModel must be deterministic given the DriftCtx (randomness only
// through ctx.Rng) so runs are reproducible under a fixed seed.
type DriftModel interface {
	// Rate builds the rate model for one node.
	Rate(ctx DriftCtx) clockwork.RateModel
}

// DelayModel builds the message-delay adversary for a run. Implementations
// must return transport models sampling within [d−U, d]; the transport
// layer validates every sample.
type DelayModel interface {
	// Build constructs the transport delay model from the derived
	// parameters and the run's delay RNG stream.
	Build(p params.Params, rng *sim.RNG) transport.DelayModel
}

// --- Drift model implementations ---

// SpreadDrift runs member i of every cluster at 1 + ρ·i/(k−1): maximal
// constant intra-cluster drift.
type SpreadDrift struct{}

// Rate implements DriftModel.
func (SpreadDrift) Rate(ctx DriftCtx) clockwork.RateModel {
	frac := 0.0
	if ctx.K > 1 {
		frac = float64(ctx.Index) / float64(ctx.K-1)
	}
	return clockwork.Constant{Rate: 1 + ctx.Params.Rho*frac}
}

// GradientDrift runs all members of cluster c at 1 + ρ·c/(|𝒞|−1): a
// constant inter-cluster gradient along the cluster index.
type GradientDrift struct{}

// Rate implements DriftModel.
func (GradientDrift) Rate(ctx DriftCtx) clockwork.RateModel {
	frac := 0.0
	if ctx.Clusters > 1 {
		frac = float64(ctx.Cluster) / float64(ctx.Clusters-1)
	}
	return clockwork.Constant{Rate: 1 + ctx.Params.Rho*frac}
}

// HalvesDrift runs clusters in the lower index half at 1 and the upper half
// at 1+ρ: maximal persistent rate difference at the boundary.
type HalvesDrift struct{}

// Rate implements DriftModel.
func (HalvesDrift) Rate(ctx DriftCtx) clockwork.RateModel {
	if ctx.Cluster >= ctx.Clusters/2 {
		return clockwork.Constant{Rate: 1 + ctx.Params.Rho}
	}
	return clockwork.Constant{Rate: 1}
}

// AlternatingHalvesDrift is HalvesDrift with the halves swapping rates
// every Period seconds — the classic skew-pumping adversary.
type AlternatingHalvesDrift struct {
	// Period between swaps; 0 selects 40·T.
	Period float64
}

// Rate implements DriftModel.
func (m AlternatingHalvesDrift) Rate(ctx DriftCtx) clockwork.RateModel {
	period := m.Period
	if period <= 0 {
		period = 40 * ctx.Params.T
	}
	phase := 0.0
	if ctx.Cluster >= ctx.Clusters/2 {
		phase = -period // upper half starts at the high rate
	}
	return clockwork.Alternating{Lo: 1, Hi: 1 + ctx.Params.Rho, Period: period, Phase: phase}
}

// RandomWalkDrift redraws every node's rate from [1, 1+ρ] every Step
// seconds.
type RandomWalkDrift struct {
	// Step between redraws; 0 selects T/3.
	Step float64
}

// Rate implements DriftModel.
func (m RandomWalkDrift) Rate(ctx DriftCtx) clockwork.RateModel {
	step := m.Step
	if step <= 0 {
		step = ctx.Params.T / 3
	}
	return clockwork.NewRandomWalk(1, 1+ctx.Params.Rho, step, ctx.Rng)
}

// SineDrift is slow sinusoidal wander with per-node phase.
type SineDrift struct {
	// Period of the wander; 0 selects 40·T.
	Period float64
}

// Rate implements DriftModel.
func (m SineDrift) Rate(ctx DriftCtx) clockwork.RateModel {
	period := m.Period
	if period <= 0 {
		period = 40 * ctx.Params.T
	}
	return clockwork.Sinusoid{
		Base: 1, Amp: ctx.Params.Rho, Period: period, StepsPerPeriod: 32,
		Phase: period * float64(ctx.Node%16) / 16,
	}
}

// NoDrift runs every clock at exactly rate 1 (debug/reference).
type NoDrift struct{}

// Rate implements DriftModel.
func (NoDrift) Rate(DriftCtx) clockwork.RateModel { return clockwork.Constant{Rate: 1} }

// --- Delay model implementations ---

// UniformDelayModel draws uniformly from [d−U, d].
type UniformDelayModel struct{}

// Build implements DelayModel.
func (UniformDelayModel) Build(p params.Params, rng *sim.RNG) transport.DelayModel {
	return transport.UniformDelay{D: p.Delay, U: p.Uncertainty, Rng: rng}
}

// ExtremalDelayModel biases delays by direction (skew-maximizing).
type ExtremalDelayModel struct {
	// Invert flips the bias direction.
	Invert bool
}

// Build implements DelayModel.
func (m ExtremalDelayModel) Build(p params.Params, rng *sim.RNG) transport.DelayModel {
	return transport.ExtremalDelay{D: p.Delay, U: p.Uncertainty, Invert: m.Invert}
}

// FixedMidDelayModel always uses d−U/2.
type FixedMidDelayModel struct{}

// Build implements DelayModel.
func (FixedMidDelayModel) Build(p params.Params, rng *sim.RNG) transport.DelayModel {
	return transport.FixedDelay{D: p.Delay, U: p.Uncertainty, Frac: 0.5}
}

// PhasedRevealDelayModel uses one extremal bias before SwitchAt and the
// opposite after — the hidden-skew reveal adversary of experiment E9.
type PhasedRevealDelayModel struct {
	// SwitchAt is the reveal time; 0 means never (pure extremal).
	SwitchAt float64
}

// Build implements DelayModel.
func (m PhasedRevealDelayModel) Build(p params.Params, rng *sim.RNG) transport.DelayModel {
	switchAt := m.SwitchAt
	if switchAt <= 0 {
		switchAt = math.Inf(1)
	}
	return transport.PhasedDelay{
		Before:   transport.ExtremalDelay{D: p.Delay, U: p.Uncertainty},
		After:    transport.ExtremalDelay{D: p.Delay, U: p.Uncertainty, Invert: true},
		SwitchAt: switchAt,
	}
}
