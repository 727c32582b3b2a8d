package clockwork

import (
	"fmt"
	"math"
)

// HardwareClock integrates a RateModel into the hardware clock value
// H_v(t) = ∫₀ᵗ h_v(τ)dτ (paper Section 2, "Timing and clocks"). Hardware
// clocks are read-only for the algorithm: nodes use them exclusively to
// measure elapsed local time.
//
// The clock keeps a (time, value) anchor and advances it lazily; queries
// must be non-decreasing in time (which holds in a discrete-event
// simulation, where all reads happen at the engine's current time).
type HardwareClock struct {
	model RateModel

	anchorT float64 // Newtonian time of the anchor
	anchorH float64 // hardware value at the anchor
}

// NewHardwareClock returns a hardware clock that reads 0 at time 0.
func NewHardwareClock(model RateModel) *HardwareClock {
	c := &HardwareClock{}
	c.Reset(model)
	return c
}

// Reset makes the clock read 0 at time 0 under the given rate model.
// Stateful models (RandomWalk caches rates drawn from its RNG) must be
// rebuilt from a freshly derived stream rather than reused, which is why
// the model is a parameter instead of being retained.
func (c *HardwareClock) Reset(model RateModel) {
	c.model = model
	c.anchorT, c.anchorH = 0, 0
}

// Read returns H(t). t must be ≥ the largest time previously passed to Read
// or Rate (monotone queries); violating this indicates a scheduling bug and
// returns the anchored value without rewinding.
func (c *HardwareClock) Read(t float64) float64 {
	if t <= c.anchorT {
		return c.anchorH
	}
	h := walkIntegrate(c.model, c.anchorT, c.anchorH, t, 1)
	c.anchorT, c.anchorH = t, h
	return h
}

// Rate returns the instantaneous hardware rate h(t).
func (c *HardwareClock) Rate(t float64) float64 {
	rate, _ := c.model.Segment(t)
	return rate
}

// Model exposes the underlying rate model (used by logical clocks sharing
// this hardware clock).
func (c *HardwareClock) Model() RateModel { return c.model }

// TimeWhen returns the Newtonian time ≥ from at which H reaches target
// (exact inversion across rate segments). Used by components that schedule
// on scaled hardware time, such as the Appendix C max-estimate machinery.
func (c *HardwareClock) TimeWhen(from, target float64) (float64, error) {
	hFrom := c.Read(from)
	return walkInvert(c.model, from, hFrom, target, 1)
}

// walkIntegrate computes value + ∫ mult·h(τ)dτ from t0 to t1 by walking the
// model's constant-rate segments. mult scales the hardware rate (logical
// clocks pass their multiplier; hardware clocks pass 1).
func walkIntegrate(m RateModel, t0, v0, t1, mult float64) float64 {
	t, v := t0, v0
	for t < t1 {
		rate, end := m.Segment(t)
		stop := math.Min(end, t1)
		v += mult * rate * (stop - t)
		t = stop
	}
	return v
}

// walkInvert returns the Newtonian time t ≥ t0 at which
// v0 + ∫_{t0}^{t} mult·h(τ)dτ reaches target, walking segments. Requires
// mult·h ≥ some positive bound (true here: h ≥ 1, mult ≥ 1), so the walk
// terminates. If target ≤ v0 it returns t0.
func walkInvert(m RateModel, t0, v0, target, mult float64) (float64, error) {
	if target <= v0 {
		return t0, nil
	}
	if mult <= 0 {
		return 0, fmt.Errorf("clockwork: non-positive rate multiplier %v", mult)
	}
	t, v := t0, v0
	for {
		rate, end := m.Segment(t)
		r := mult * rate
		if r <= 0 {
			return 0, fmt.Errorf("clockwork: non-positive effective rate %v at t=%v", r, t)
		}
		if math.IsInf(end, 1) {
			return t + (target-v)/r, nil
		}
		segGain := r * (end - t)
		if v+segGain >= target {
			return t + (target-v)/r, nil
		}
		v += segGain
		t = end
	}
}
