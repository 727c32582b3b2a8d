package clockwork

import "fmt"

// LogicalClock implements the paper's Equation (2):
//
//	L_v(t) = ∫₀ᵗ (1 + ϕ·δ_v(τ)) · (1 + µ·γ_v(τ)) · h_v(τ) dτ
//
// δ_v(t) ≥ 0 is the amortization control set by ClusterSync (Algorithm 1):
// δ=1 during phases 1–2 and δ = 1 − (1+1/ϕ)·Δ/(τ₃+Δ) during phase 3.
// γ_v(t) ∈ {0,1} is the GCS fast/slow mode set by InterclusterSync
// (Algorithm 2) at round boundaries.
//
// Several logical clocks may share one HardwareClock (a node's main clock
// plus its per-neighbor-cluster observer clocks all run off the same
// oscillator).
type LogicalClock struct {
	hw  *HardwareClock
	phi float64
	mu  float64

	delta float64 // current δ_v
	gamma int     // current γ_v ∈ {0,1}

	anchorT float64 // Newtonian time of the anchor
	anchorL float64 // logical value at the anchor
}

// NewLogicalClock returns a logical clock reading 0 at time 0, in slow mode
// with δ=1 (the Algorithm 1 default outside phase 3 is δ=1; callers that
// want the "nominal" rate (1+ϕ)·h get exactly that).
func NewLogicalClock(hw *HardwareClock, phi, mu float64) *LogicalClock {
	lc := &LogicalClock{hw: hw, phi: phi, mu: mu}
	lc.Reset()
	return lc
}

// Reset puts the clock in its initial state: value 0 at time 0, δ=1, γ=0.
// The shared HardwareClock is reset separately (several logical clocks run
// off one oscillator).
func (lc *LogicalClock) Reset() {
	lc.delta, lc.gamma = 1, 0
	lc.anchorT, lc.anchorL = 0, 0
}

// multiplier returns (1+ϕδ)(1+µγ), the factor applied to the hardware rate.
func (lc *LogicalClock) multiplier() float64 {
	m := 1 + lc.phi*lc.delta
	if lc.gamma == 1 {
		m *= 1 + lc.mu
	}
	return m
}

// Value returns L(t). Queries must be non-decreasing in t.
func (lc *LogicalClock) Value(t float64) float64 {
	if t <= lc.anchorT {
		return lc.anchorL
	}
	l := walkIntegrate(lc.hw.Model(), lc.anchorT, lc.anchorL, t, lc.multiplier())
	lc.anchorT, lc.anchorL = t, l
	return l
}

// Rate returns the instantaneous logical rate (1+ϕδ)(1+µγ)h(t).
func (lc *LogicalClock) Rate(t float64) float64 {
	return lc.multiplier() * lc.hw.Rate(t)
}

// NominalRate returns h_nom(t) = (1+ϕ)(1+µγ)h(t), the paper's Eq. (3): the
// "hardware" rate the Lynch–Welch layer sees, i.e. the logical rate with
// the amortization control pinned at δ=1.
func (lc *LogicalClock) NominalRate(t float64) float64 {
	m := (1 + lc.phi)
	if lc.gamma == 1 {
		m *= 1 + lc.mu
	}
	return m * lc.hw.Rate(t)
}

// SetDelta changes δ_v at time t. Values are clamped to ≥ 0 (the paper's
// Lemma B.4 guarantees δ ∈ [0, 2/(1−ϕ)] in proper executions; clamping
// protects against improper ones). The clock anchor is advanced to t first
// so the change applies only going forward.
func (lc *LogicalClock) SetDelta(t, delta float64) {
	lc.Value(t)
	if delta < 0 {
		delta = 0
	}
	lc.delta = delta
}

// SetGamma changes the fast/slow mode γ_v ∈ {0,1} at time t.
func (lc *LogicalClock) SetGamma(t float64, gamma int) {
	lc.Value(t)
	if gamma != 0 {
		gamma = 1
	}
	lc.gamma = gamma
}

// Jump discontinuously shifts the clock value by delta at time t. The
// algorithm itself never jumps (its corrections are amortized precisely to
// keep rates bounded); this exists to inject *transient faults* for the
// self-stabilization experiments — the paper (Appendix A) notes the GCS
// layer re-establishes its skew bounds from any state in O(S/µ) time.
func (lc *LogicalClock) Jump(t, delta float64) {
	lc.Value(t)
	lc.anchorL += delta
}

// Delta returns the current δ_v.
func (lc *LogicalClock) Delta() float64 { return lc.delta }

// Gamma returns the current γ_v.
func (lc *LogicalClock) Gamma() int { return lc.gamma }

// Phi returns the ϕ parameter.
func (lc *LogicalClock) Phi() float64 { return lc.phi }

// Mu returns the µ parameter.
func (lc *LogicalClock) Mu() float64 { return lc.mu }

// TimeWhen returns the Newtonian time ≥ from at which L reaches target,
// assuming δ and γ stay at their current values (hardware rate changes are
// walked exactly). This is how "at-time L do …" statements of Algorithm 1
// are scheduled; the scheduler re-invokes it whenever δ or γ change before
// the target is reached.
func (lc *LogicalClock) TimeWhen(from, target float64) (float64, error) {
	lFrom := lc.Value(from)
	t, err := walkInvert(lc.hw.Model(), from, lFrom, target, lc.multiplier())
	if err != nil {
		return 0, fmt.Errorf("logical clock inversion: %w", err)
	}
	return t, nil
}

// Envelope reports the minimum and maximum possible logical rates given the
// admissible ranges of h (∈[1,1+ρ]), δ (∈[0,2/(1−ϕ)]) and γ (∈{0,1}):
// the paper's ϑ_max bound (Eq. 6): (1 + 2ϕ/(1−ϕ))(1+µ)(1+ρ).
func Envelope(phi, mu, rho float64) (lo, hi float64) {
	lo = 1 // δ=0, γ=0, h=1
	hi = (1 + 2*phi/(1-phi)) * (1 + mu) * (1 + rho)
	return lo, hi
}
