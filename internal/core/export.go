package core

import (
	"ftgcs/internal/clockwork"
	"ftgcs/internal/graph"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
	"ftgcs/internal/transport"
)

// BuildDrift constructs node v's rate model; a nil model selects the
// SpreadDrift default. It is the one place a DriftModel is applied: System
// seeding uses it, and so does the TreeSync baseline, so comparisons run
// under the same adversarial drift schedules.
func BuildDrift(m DriftModel, p params.Params, aug *graph.Augmented, v graph.NodeID, rng *sim.RNG) clockwork.RateModel {
	if m == nil {
		m = SpreadDrift{}
	}
	return m.Rate(DriftCtx{
		Node:     v,
		Cluster:  aug.ClusterOf(v),
		Index:    aug.IndexIn(v),
		Clusters: aug.Clusters(),
		K:        aug.K,
		Params:   p,
		Rng:      rng,
	})
}

// BuildDelay constructs a run's delay model; a nil model selects the
// UniformDelayModel default. Like BuildDrift it serves both System seeding
// and the baseline.
func BuildDelay(m DelayModel, p params.Params, rng *sim.RNG) transport.DelayModel {
	if m == nil {
		m = UniformDelayModel{}
	}
	return m.Build(p, rng)
}
