// Package params derives every constant of the FTGCS paper from the three
// physical inputs ρ (hardware clock drift), d (maximum message delay) and
// U (delay uncertainty).
//
// The derivation follows the paper exactly:
//
//	ϑ_g   = (1+ρ)(1+µ)                            (Section 3)
//	ϑ_max = (1 + 2ϕ/(1−ϕ))(1+µ)(1+ρ)              (Eq. 6)
//	µ     = c₂·ρ,  c₁ = ((1/2)−ε)/((1+c₂)·ρ),  ϕ = 1/c₁     (Eq. 5)
//	τ₁ = ϑ_g·E,  τ₂ = ϑ_g·(E+d),  τ₃ = ϑ_g·c₁·(E+U)         (Eq. 5/10)
//	α, β per regime via Claim B.15 (Eq. 12), E = β/(1−α)
//	δ = (k+5)·E,  κ = 3δ                          (Lemma 4.8)
//	ρ̄ = (1+ϕ)(1+µ/4)−1, µ̄ = (1+ϕ)(1+7µ/8)−1      (Prop. 4.11)
//
// The paper's constants (c₂ = 32, ε = 1/4096) make the general-case
// contraction factor α_g < 1 only for very small ρ ("sufficiently small ρ");
// the PaperStrict preset reproduces them, while the Practical preset uses
// milder constants that are feasible at realistic drifts (ρ ≈ 10⁻⁴) — the
// simulation experiments confirm the paper's qualitative claims under both.
package params

import (
	"errors"
	"fmt"
	"math"
)

// Config is the input to Derive.
type Config struct {
	// Rho is the hardware clock drift bound ρ > 0: rates lie in [1, 1+ρ].
	Rho float64
	// Delay is the maximum message delay d > 0.
	Delay float64
	// Uncertainty is the delay uncertainty U ∈ (0, d]: delays lie in
	// [d−U, d].
	Uncertainty float64
	// C2 sets µ = C2·ρ. The paper uses 32 (Eq. 5); 0 selects that default.
	C2 float64
	// Eps is the paper's ε (Eq. 5, default 1/4096). It controls the
	// contraction margin 1−α_g ≈ ε.
	Eps float64
	// KStable is the paper's Lemma 3.6 constant k: the number of
	// consecutive unanimous rounds after which the tightened rate bounds
	// hold. It enters δ = (k+5)·E. 0 selects the default 4.
	KStable int
	// CGlobal is Theorem C.3's "sufficiently large constant c" in the
	// catch-up rule L_v ≤ M_v − cδ. 0 selects the default 8.
	CGlobal float64
}

// Preset bundles the analysis constants.
type Preset int

const (
	// PaperStrict uses the paper's Eq. (5) constants c₂=32, ε=1/4096.
	// Feasible (α_g < 1) only for ρ ≲ 2·10⁻⁶.
	PaperStrict Preset = iota + 1
	// Practical uses c₂=8, ε=1/8: feasible at realistic drifts (ρ≈10⁻⁴)
	// with the same algorithm; the experiments verify the paper's
	// qualitative claims under it.
	Practical
)

func (p Preset) String() string {
	switch p {
	case PaperStrict:
		return "paper-strict"
	case Practical:
		return "practical"
	default:
		return fmt.Sprintf("preset(%d)", int(p))
	}
}

// PresetConfig returns a Config for the preset with the given physical
// parameters.
func PresetConfig(p Preset, rho, delay, uncertainty float64) Config {
	cfg := Config{Rho: rho, Delay: delay, Uncertainty: uncertainty}
	switch p {
	case Practical:
		cfg.C2 = 8
		cfg.Eps = 1.0 / 8
	default: // PaperStrict
		cfg.C2 = 32
		cfg.Eps = 1.0 / 4096
	}
	return cfg
}

// Params holds every derived constant of the algorithm.
type Params struct {
	// Physical inputs.
	Rho, Delay, Uncertainty float64

	// Analysis constants (Eq. 5).
	C2, Eps, C1, Phi, Mu float64

	// Rate envelopes.
	ThetaG   float64 // ϑ_g = (1+ρ)(1+µ): nominal rate spread, general case
	ThetaU   float64 // ϑ_u = 1+ρ: nominal rate spread, unanimous case
	ThetaMax float64 // Eq. (6): max logical rate

	// Contraction per regime (Claim B.15): e(r+1) = α·e(r) + β, steady
	// state E = β/(1−α).
	AlphaG, BetaG, EG float64 // general execution
	AlphaF, BetaF, EF float64 // unanimously fast
	AlphaS, BetaS, ES float64 // unanimously slow

	// Round structure (Eq. 5/10), constant across rounds.
	Tau1, Tau2, Tau3, T float64

	// GCS layer (Lemma 4.8).
	KStable int     // Lemma 3.6 k
	Delta   float64 // trigger slack δ = (KStable+5)·E_G
	Kappa   float64 // GCS level unit κ = 3δ

	// Simulated-GCS axiom constants (Prop. 4.11).
	RhoBar, MuBar float64

	// Theorem C.3 catch-up constant.
	CGlobal float64
}

// Errors returned by Derive.
var (
	ErrInfeasible = errors.New("params: contraction factor α ≥ 1 (parameters infeasible; reduce ρ or relax ε/c₂)")
	ErrBadInput   = errors.New("params: invalid input")
)

// positive reports x ∈ (0, +Inf): false for zero, negatives, NaN and
// infinities, so a non-finite input never reaches the derivation.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// regimeAlphaBeta evaluates the paper's Eq. (12) for one execution regime.
//
//	γ   = (ζ_max/ζ)·(ϑ_g/ϑ)·(ϑ−1)
//	α   = (2ϑ²+5ϑ−5) / (2(ϑ+1)(1−γ)) + γ(1+c₁)/(1−γ)
//	β   = γ/(1−γ)·d + ((3ϑ−1) + γ·c₁)/(1−γ)·U
func regimeAlphaBeta(zeta, zetaMax, theta, thetaG, c1, d, u float64) (alpha, beta, gamma float64) {
	gamma = (zetaMax / zeta) * (thetaG / theta) * (theta - 1)
	oneMinus := 1 - gamma
	alpha = (2*theta*theta+5*theta-5)/(2*(theta+1)*oneMinus) + gamma*(1+c1)/oneMinus
	beta = gamma/oneMinus*d + ((3*theta-1)+gamma*c1)/oneMinus*u
	return alpha, beta, gamma
}

// Derive computes all algorithm constants from a Config.
func Derive(cfg Config) (Params, error) {
	if !positive(cfg.Rho) || !positive(cfg.Delay) || !positive(cfg.Uncertainty) {
		return Params{}, fmt.Errorf("%w: ρ=%v d=%v U=%v must be positive and finite", ErrBadInput, cfg.Rho, cfg.Delay, cfg.Uncertainty)
	}
	if cfg.Uncertainty > cfg.Delay {
		return Params{}, fmt.Errorf("%w: uncertainty U=%v exceeds delay d=%v", ErrBadInput, cfg.Uncertainty, cfg.Delay)
	}
	c2 := cfg.C2
	if c2 == 0 {
		c2 = 32
	}
	if !positive(c2) {
		return Params{}, fmt.Errorf("%w: c2=%v must be non-negative and finite", ErrBadInput, c2)
	}
	eps := cfg.Eps
	if eps == 0 {
		eps = 1.0 / 4096
	}
	if !(eps > 0 && eps < 0.5) {
		return Params{}, fmt.Errorf("%w: eps=%v must be in (0, 1/2)", ErrBadInput, eps)
	}
	kStable := cfg.KStable
	if kStable == 0 {
		kStable = 4
	}
	cGlobal := cfg.CGlobal
	if cGlobal == 0 {
		cGlobal = 8
	}

	p := Params{
		Rho:         cfg.Rho,
		Delay:       cfg.Delay,
		Uncertainty: cfg.Uncertainty,
		C2:          c2,
		Eps:         eps,
		KStable:     kStable,
		CGlobal:     cGlobal,
	}
	p.Mu = c2 * cfg.Rho
	p.C1 = (0.5 - eps) / ((1 + c2) * cfg.Rho) // Eq. (5)
	p.Phi = 1 / p.C1
	if p.Phi >= 1 {
		return Params{}, fmt.Errorf("%w: ϕ=%v ≥ 1 (ρ too large for ε=%v, c₂=%v)", ErrInfeasible, p.Phi, eps, c2)
	}
	p.ThetaG = (1 + cfg.Rho) * (1 + p.Mu)
	p.ThetaU = 1 + cfg.Rho
	p.ThetaMax = (1 + 2*p.Phi/(1-p.Phi)) * (1 + p.Mu) * (1 + cfg.Rho) // Eq. (6)

	zetaMax := (1 + p.Phi) * (1 + p.Mu)
	// General execution: nominal rates in [(1+ϕ), (1+ϕ)·ϑ_g].
	p.AlphaG, p.BetaG, _ = regimeAlphaBeta(1+p.Phi, zetaMax, p.ThetaG, p.ThetaG, p.C1, cfg.Delay, cfg.Uncertainty)
	// Unanimously fast: rates in [(1+ϕ)(1+µ), (1+ϕ)(1+µ)·ϑ_u].
	p.AlphaF, p.BetaF, _ = regimeAlphaBeta(zetaMax, zetaMax, p.ThetaU, p.ThetaG, p.C1, cfg.Delay, cfg.Uncertainty)
	// Unanimously slow: rates in [(1+ϕ), (1+ϕ)·ϑ_u].
	p.AlphaS, p.BetaS, _ = regimeAlphaBeta(1+p.Phi, zetaMax, p.ThetaU, p.ThetaG, p.C1, cfg.Delay, cfg.Uncertainty)

	if p.AlphaG >= 1 {
		return Params{}, fmt.Errorf("%w: α_g=%.6f (ρ=%v, c₂=%v, ε=%v)", ErrInfeasible, p.AlphaG, cfg.Rho, c2, eps)
	}
	if p.AlphaF >= 1 || p.AlphaS >= 1 {
		return Params{}, fmt.Errorf("%w: α_f=%.6f α_s=%.6f", ErrInfeasible, p.AlphaF, p.AlphaS)
	}
	p.EG = p.BetaG / (1 - p.AlphaG)
	p.EF = p.BetaF / (1 - p.AlphaF)
	p.ES = p.BetaS / (1 - p.AlphaS)

	// Round structure, Eq. (5): τ₃ = ϑ_g·c₁·(E+U) = ϑ_g·(E+U)/ϕ satisfies
	// feasibility (Eq. 8) with equality.
	p.Tau1 = p.ThetaG * p.EG
	p.Tau2 = p.ThetaG * (p.EG + cfg.Delay)
	p.Tau3 = p.ThetaG * p.C1 * (p.EG + cfg.Uncertainty)
	p.T = p.Tau1 + p.Tau2 + p.Tau3

	// GCS layer.
	p.Delta = float64(kStable+5) * p.EG // Lemma 4.8
	p.Kappa = 3 * p.Delta

	// Prop. 4.11: the simulated cluster clocks satisfy the GCS axioms for
	// these effective drift/boost parameters.
	p.RhoBar = (1+p.Phi)*(1+p.Mu/4) - 1
	p.MuBar = (1+p.Phi)*(1+7*p.Mu/8) - 1
	return p, nil
}

// MustDerive is Derive for configurations known feasible by construction
// (tests, examples); it panics on error.
func MustDerive(cfg Config) Params {
	p, err := Derive(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// LegacyAlphaBeta evaluates the unstretched Eq. (11) (the basic Lynch–Welch
// contraction with τ₃ = ϑ_g(E+U)/ϕ and no c₁ stretching). Nothing outside
// tests calls it: it is the test oracle for Eq. (11).
func LegacyAlphaBeta(rho, mu, phi, d, u float64) (alpha, beta float64) {
	thetaG := (1 + rho) * (1 + mu)
	alpha = (6*thetaG*thetaG*phi + 5*thetaG*phi - 9*phi + 2*thetaG*thetaG - 2) /
		(2 * phi * (thetaG + 1))
	beta = (3*thetaG-1+(thetaG-1)/phi)*u + (thetaG-1)*d
	return alpha, beta
}

// ErrorSequence iterates e(r+1) = α·e(r) + β for n rounds from e1 and
// returns the sequence e(1..n): the paper's Eq. (9) recursion. Nothing
// outside tests calls it: it is the test oracle for Eq. (9).
func ErrorSequence(e1, alpha, beta float64, n int) []float64 {
	out := make([]float64, n)
	e := e1
	for i := 0; i < n; i++ {
		out[i] = e
		e = alpha*e + beta
	}
	return out
}

// SteadyState returns β/(1−α), the fixed point E of the contraction, or
// +Inf when α ≥ 1.
func SteadyState(alpha, beta float64) float64 {
	if alpha >= 1 {
		return math.Inf(1)
	}
	return beta / (1 - alpha)
}

// --- Bound formulas used by the experiments ---

// ClusterSkewBound returns the Corollary 3.2 bound on the skew between
// correct nodes of one cluster: 2·ϑ_g·E.
func (p Params) ClusterSkewBound() float64 { return 2 * p.ThetaG * p.EG }

// GlobalSkewBound returns the Theorem C.3 target O(δD) with the explicit
// constant CGlobal: CGlobal·δ·(D+1).
func (p Params) GlobalSkewBound(diameter int) float64 {
	return p.CGlobal * p.Delta * float64(diameter+1)
}

// SigmaBase returns the logarithm base σ = µ̄/ρ̄ of the local skew bound
// (Theorem 4.10: local skew O(κ·log_{µ/ρ} S)).
func (p Params) SigmaBase() float64 { return p.MuBar / p.RhoBar }

// LocalSkewBound returns the explicit cluster-level local skew bound used
// in the experiments: 2κ·(⌈log_σ(S/κ)⌉ + 1), with S = GlobalSkewBound(D).
// Node-level bounds add the intra-cluster term (NodeLocalSkewBound).
func (p Params) LocalSkewBound(diameter int) float64 {
	s := p.GlobalSkewBound(diameter)
	sigma := p.SigmaBase()
	levels := 1.0
	if sigma > 1 && s > p.Kappa {
		levels = math.Ceil(math.Log(s/p.Kappa)/math.Log(sigma)) + 1
	}
	return 2 * p.Kappa * levels
}

// NodeLocalSkewBound is the Theorem 1.1 node-level bound between physical
// neighbors: the cluster-level bound plus twice the intra-cluster bound.
func (p Params) NodeLocalSkewBound(diameter int) float64 {
	return p.LocalSkewBound(diameter) + 2*p.ClusterSkewBound()
}

// FastRateFloor returns Lemma 3.6(1): the amortized rate floor
// (1+ϕ)(1+7µ/8) of a long-unanimously-fast cluster.
func (p Params) FastRateFloor() float64 { return (1 + p.Phi) * (1 + 7*p.Mu/8) }

// SlowRateFloor and SlowRateCeil return Lemma 3.6(2): the amortized rate
// window (1+ϕ)(1±µ/8) of a long-unanimously-slow cluster.
func (p Params) SlowRateFloor() float64 { return (1 + p.Phi) * (1 - p.Mu/8) }

// SlowRateCeil returns the upper end of the Lemma 3.6(2) window.
func (p Params) SlowRateCeil() float64 { return (1 + p.Phi) * (1 + p.Mu/8) }

// ClusterFailureProbBound returns Inequality (1): with k = 3f+1 nodes
// failing independently with probability pFail, the probability that more
// than f fail is at most (3·e·pFail)^(f+1).
func ClusterFailureProbBound(f int, pFail float64) float64 {
	return math.Pow(3*math.E*pFail, float64(f+1))
}

// ExactClusterFailureProb computes Σ_{i=f+1}^{k} C(k,i) p^i (1−p)^{k−i}
// for k = 3f+1: the exact probability Inequality (1) bounds.
func ExactClusterFailureProb(f int, pFail float64) float64 {
	k := 3*f + 1
	total := 0.0
	for i := f + 1; i <= k; i++ {
		total += binomialPMF(k, i, pFail)
	}
	return total
}

func binomialPMF(n, k int, p float64) float64 {
	// Compute C(n,k)·p^k·(1−p)^(n−k) in log space for stability.
	logC := 0.0
	for i := 0; i < k; i++ {
		logC += math.Log(float64(n-i)) - math.Log(float64(i+1))
	}
	return math.Exp(logC + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// FeasibleRhoMax searches for the largest ρ (within [lo, hi]) for which the
// configuration remains feasible, by bisection. Used by experiment E14.
func FeasibleRhoMax(c2, eps, delay, uncertainty float64) float64 {
	lo, hi := 1e-12, 1.0
	feasible := func(rho float64) bool {
		_, err := Derive(Config{Rho: rho, Delay: delay, Uncertainty: uncertainty, C2: c2, Eps: eps})
		return err == nil
	}
	if !feasible(lo) {
		return 0
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection over decades
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
