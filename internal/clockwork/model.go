// Package clockwork implements the clock substrate of the FTGCS paper
// (Bund, Lenzen, Rosenbaum, PODC 2019).
//
// Every node owns a hardware clock H_v(t) = ∫ h_v(τ)dτ whose rate h_v is an
// arbitrary piecewise-constant function with 1 ≤ h_v(t) ≤ 1+ρ (the paper's
// drift envelope, Section 2). On top of it, the node's algorithm controls a
// logical clock
//
//	L_v(t) = ∫ (1 + ϕ·δ_v(τ)) · (1 + µ·γ_v(τ)) · h_v(τ) dτ     (Eq. 2)
//
// where δ_v ≥ 0 amortizes the Lynch–Welch corrections (Algorithm 1, phase 3)
// and γ_v ∈ {0,1} is the GCS fast/slow mode (Algorithm 2).
//
// Because all rates are piecewise constant, clock values are integrated in
// closed form and logical-time targets are inverted exactly — the simulation
// has no time-stepping error.
package clockwork

import (
	"fmt"
	"math"

	"ftgcs/internal/sim"
)

// RateModel describes a piecewise-constant hardware clock rate h(t).
//
// Segment must be idempotent: repeated queries for the same t return the
// same values (models backed by randomness cache their segments). Queries
// may arrive in any order but are typically non-decreasing in t.
type RateModel interface {
	// Segment returns the rate in effect at time t and the end of the
	// constant-rate segment containing t. end > t always holds; end may be
	// +Inf for a terminal segment.
	Segment(t float64) (rate, end float64)
}

// Constant is a fixed-rate hardware clock.
type Constant struct {
	Rate float64
}

// Segment implements RateModel.
func (c Constant) Segment(t float64) (float64, float64) {
	return c.Rate, math.Inf(1)
}

// Alternating switches between Lo and Hi every Period seconds, starting
// with Lo at time Phase. It models the classic skew-building adversary that
// runs a clock at the extremes of the admissible envelope.
type Alternating struct {
	Lo, Hi float64
	Period float64
	// Phase shifts the switching schedule; segment boundaries are at
	// Phase + i*Period.
	Phase float64
}

// Segment implements RateModel.
func (a Alternating) Segment(t float64) (float64, float64) {
	if a.Period <= 0 {
		return a.Lo, math.Inf(1)
	}
	idx := math.Floor((t - a.Phase) / a.Period)
	end := a.Phase + (idx+1)*a.Period
	// Guard against floating-point landing exactly on a boundary.
	if end <= t {
		idx++
		end += a.Period
	}
	if int64(idx)%2 == 0 {
		return a.Lo, end
	}
	return a.Hi, end
}

// RandomWalk redraws the rate uniformly from [Lo, Hi] every Step seconds.
// Segments are generated lazily and cached, so queries are idempotent.
type RandomWalk struct {
	Lo, Hi float64
	Step   float64
	rng    *sim.RNG
	rates  []float64 // rates[i] applies on [i*Step, (i+1)*Step)
}

// NewRandomWalk constructs a random piecewise-constant rate model.
func NewRandomWalk(lo, hi, step float64, rng *sim.RNG) *RandomWalk {
	if step <= 0 {
		step = 1
	}
	return &RandomWalk{Lo: lo, Hi: hi, Step: step, rng: rng}
}

// Segment implements RateModel.
func (w *RandomWalk) Segment(t float64) (float64, float64) {
	if t < 0 {
		t = 0
	}
	idx := int(math.Floor(t / w.Step))
	for len(w.rates) <= idx {
		w.rates = append(w.rates, w.rng.UniformIn(w.Lo, w.Hi))
	}
	end := float64(idx+1) * w.Step
	if end <= t { // float guard
		idx++
		if len(w.rates) <= idx {
			w.rates = append(w.rates, w.rng.UniformIn(w.Lo, w.Hi))
		}
		end = float64(idx+1) * w.Step
	}
	return w.rates[idx], end
}

// Sinusoid approximates 1 + amp·(1+sin(2πt/Period))/2 by a staircase with
// StepsPerPeriod constant segments. It models slowly wandering oscillator
// drift (e.g. temperature-driven) while staying piecewise constant.
type Sinusoid struct {
	Base           float64 // minimum rate
	Amp            float64 // rate swing; rate ∈ [Base, Base+Amp]
	Period         float64
	StepsPerPeriod int
	Phase          float64
}

// Segment implements RateModel.
func (s Sinusoid) Segment(t float64) (float64, float64) {
	steps := s.StepsPerPeriod
	if steps <= 0 {
		steps = 16
	}
	if s.Period <= 0 {
		return s.Base, math.Inf(1)
	}
	dt := s.Period / float64(steps)
	idx := math.Floor((t - s.Phase) / dt)
	end := s.Phase + (idx+1)*dt
	if end <= t {
		idx++
		end += dt
	}
	mid := s.Phase + (idx+0.5)*dt
	frac := (1 + math.Sin(2*math.Pi*mid/s.Period)) / 2
	return s.Base + s.Amp*frac, end
}

// Validate checks that a model stays within [1, 1+rho] over [0, horizon],
// walking its segments. It is used by tests and scenario builders to ensure
// drift models obey the paper's hardware assumptions.
func Validate(m RateModel, rho, horizon float64) error {
	const eps = 1e-12
	t := 0.0
	for t < horizon {
		rate, end := m.Segment(t)
		if rate < 1-eps || rate > 1+rho+eps {
			return fmt.Errorf("clockwork: rate %v at t=%v outside [1, 1+ρ]=[1, %v]", rate, t, 1+rho)
		}
		if end <= t {
			return fmt.Errorf("clockwork: segment end %v not after t=%v", end, t)
		}
		t = end
	}
	return nil
}
