// Burst-delay adversary: a worked example of extending the scenario API
// from outside the library. This file is self-contained — it implements
// ftgcs.DelayModel, registers itself under the name "burst" in its init
// function, and thereby becomes available to `-delay burst` (and to every
// other registry consumer) without touching internal/core or any flag
// parsing.
package main

import (
	"math"

	"ftgcs"
)

func init() {
	ftgcs.RegisterDelay("burst", func() ftgcs.DelayModel { return BurstDelay{} })
}

// BurstDelay models periodic congestion: during a burst window every
// message takes the maximum admissible delay d, outside it the minimum
// d−U. The sharp d↔d−U square wave concentrates the full uncertainty U
// into repeated synchronized steps — a harsher pattern than the uniform
// sampler, while still respecting the [d−U, d] envelope the transport
// layer enforces.
type BurstDelay struct {
	// Period between burst starts; 0 selects 20·T.
	Period float64
	// Duty is the burst fraction of the period in (0, 1); 0 selects 0.3.
	Duty float64
}

// Build implements ftgcs.DelayModel.
func (m BurstDelay) Build(p ftgcs.Params, rng *ftgcs.RNG) ftgcs.MessageDelays {
	period := m.Period
	if period <= 0 {
		period = 20 * p.T
	}
	duty := m.Duty
	if duty <= 0 || duty >= 1 {
		duty = 0.3
	}
	return burstSampler{d: p.Delay, u: p.Uncertainty, period: period, burst: duty * period}
}

// burstSampler is the transport-level sampler BurstDelay builds.
type burstSampler struct {
	d, u          float64
	period, burst float64
}

// Sample implements the transport delay interface.
func (s burstSampler) Sample(from, to ftgcs.NodeID, t float64) float64 {
	if math.Mod(t, s.period) < s.burst {
		return s.d // congested: maximum delay
	}
	return s.d - s.u // idle: minimum delay
}

// Bounds implements the transport delay interface.
func (s burstSampler) Bounds() (float64, float64) { return s.d, s.u }
