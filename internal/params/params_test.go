package params

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func practicalConfig() Config {
	return PresetConfig(Practical, 1e-4, 1e-3, 1e-4)
}

func TestDerivePractical(t *testing.T) {
	p, err := Derive(practicalConfig())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if p.Mu != 8*1e-4 {
		t.Errorf("Mu = %v, want 8e-4", p.Mu)
	}
	if math.Abs(p.C1*p.Phi-1) > 1e-12 {
		t.Errorf("ϕ·c₁ = %v, want 1", p.C1*p.Phi)
	}
	if p.AlphaG >= 1 || p.AlphaG <= 0 {
		t.Errorf("AlphaG = %v, want in (0,1)", p.AlphaG)
	}
	// Claim B.15: α_g ≈ 1/2 + (1+c₂)c₁ρ = 1/2 + (1/2 − ε) = 1 − ε up to O(ρ).
	wantAlpha := 1 - p.Eps
	if math.Abs(p.AlphaG-wantAlpha) > 0.02 {
		t.Errorf("AlphaG = %v, want ≈ %v", p.AlphaG, wantAlpha)
	}
	// Unanimous contraction must be strictly tighter than general.
	if p.AlphaF >= p.AlphaG || p.AlphaS >= p.AlphaG {
		t.Errorf("unanimous α (f=%v, s=%v) should beat general %v", p.AlphaF, p.AlphaS, p.AlphaG)
	}
	// Unanimous steady-state error must be far below the general one
	// (Claim B.17 — this gap is what lets fast clusters outrun slow ones).
	if p.EF >= p.EG || p.ES >= p.EG {
		t.Errorf("E_f=%v E_s=%v should be below E_g=%v", p.EF, p.ES, p.EG)
	}
	if p.T != p.Tau1+p.Tau2+p.Tau3 {
		t.Error("T ≠ τ₁+τ₂+τ₃")
	}
	if p.Kappa != 3*p.Delta {
		t.Error("κ ≠ 3δ")
	}
	if p.Delta != float64(p.KStable+5)*p.EG {
		t.Error("δ ≠ (k+5)E")
	}
}

func TestDerivePaperStrictSmallRho(t *testing.T) {
	// The paper's constants require "sufficiently small ρ". 1e-7 is small
	// enough; 1e-4 is not.
	cfg := PresetConfig(PaperStrict, 1e-7, 1e-3, 1e-4)
	p, err := Derive(cfg)
	if err != nil {
		t.Fatalf("PaperStrict at ρ=1e-7 should be feasible: %v", err)
	}
	if p.C2 != 32 || p.Eps != 1.0/4096 {
		t.Errorf("preset constants wrong: c2=%v eps=%v", p.C2, p.Eps)
	}
	if _, err := Derive(PresetConfig(PaperStrict, 1e-4, 1e-3, 1e-4)); err == nil {
		t.Error("PaperStrict at ρ=1e-4 should be infeasible (α_g ≥ 1)")
	}
}

// TestDeriveInputValidation: every input outside Derive's domain is
// ErrBadInput, never a NaN constant or a misleading infeasibility. The
// NaN rows pass `x <= 0` guards, which is why the guards are written as
// `!(x > 0)`.
func TestDeriveInputValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero rho", Config{Rho: 0, Delay: 1e-3, Uncertainty: 1e-4}, "must be positive"},
		{"negative rho", Config{Rho: -1, Delay: 1e-3, Uncertainty: 1e-4}, "must be positive"},
		{"zero delay", Config{Rho: 1e-4, Delay: 0, Uncertainty: 1e-4}, "must be positive"},
		{"U > d", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 2e-3}, "exceeds delay"},
		{"zero U", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 0}, "must be positive"},
		{"eps too big", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 1e-4, Eps: 0.6}, "must be in (0, 1/2)"},
		{"NaN rho", Config{Rho: nan, Delay: 1e-3, Uncertainty: 1e-4}, "must be positive"},
		{"Inf rho", Config{Rho: inf, Delay: 1e-3, Uncertainty: 1e-4}, "must be positive"},
		{"NaN delay", Config{Rho: 1e-4, Delay: nan, Uncertainty: 1e-4}, "must be positive"},
		{"Inf delay", Config{Rho: 1e-4, Delay: inf, Uncertainty: 1e-4}, "must be positive"},
		{"NaN U", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: nan}, "must be positive"},
		{"NaN eps", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 1e-4, Eps: nan}, "eps=NaN"},
		{"negative eps", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 1e-4, Eps: -0.1}, "must be in (0, 1/2)"},
		{"eps 1/2", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 1e-4, Eps: 0.5}, "must be in (0, 1/2)"},
		{"negative c2", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 1e-4, C2: -1}, "c2=-1"},
		{"NaN c2", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 1e-4, C2: nan}, "c2=NaN"},
		{"Inf c2", Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 1e-4, C2: inf}, "c2=+Inf"},
	}
	for _, tc := range tests {
		p, err := Derive(tc.cfg)
		if !errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want ErrBadInput containing %q, got %v (T=%v)", tc.name, tc.want, err, p.T)
		}
	}
}

func TestDefaults(t *testing.T) {
	p, err := Derive(Config{Rho: 1e-7, Delay: 1e-3, Uncertainty: 1e-4})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if p.C2 != 32 {
		t.Errorf("default C2 = %v, want 32", p.C2)
	}
	if p.Eps != 1.0/4096 {
		t.Errorf("default Eps = %v, want 1/4096", p.Eps)
	}
	if p.KStable != 4 {
		t.Errorf("default KStable = %d, want 4", p.KStable)
	}
	if p.CGlobal != 8 {
		t.Errorf("default CGlobal = %v, want 8", p.CGlobal)
	}
}

func TestFeasibilityRegion(t *testing.T) {
	// E14: PaperStrict feasibility boundary should sit near ρ ≈ 1.8e-6
	// (analysis in DESIGN.md); Practical should be well above 1e-4.
	strictMax := FeasibleRhoMax(32, 1.0/4096, 1e-3, 1e-4)
	if strictMax < 1e-7 || strictMax > 1e-5 {
		t.Errorf("PaperStrict feasible ρ max = %v, want within [1e-7, 1e-5]", strictMax)
	}
	practMax := FeasibleRhoMax(8, 1.0/8, 1e-3, 1e-4)
	if practMax < 1e-4 {
		t.Errorf("Practical feasible ρ max = %v, want ≥ 1e-4", practMax)
	}
	if practMax <= strictMax {
		t.Error("Practical should tolerate more drift than PaperStrict")
	}
}

func TestTau3Feasibility(t *testing.T) {
	// Eq. (8): τ₃ ≥ ϑ_g·(E+U)/ϕ must hold (with equality by Eq. 5).
	p := MustDerive(practicalConfig())
	want := p.ThetaG * (p.EG + p.Uncertainty) / p.Phi
	if math.Abs(p.Tau3-want) > 1e-9*want {
		t.Errorf("Tau3 = %v, want %v", p.Tau3, want)
	}
	// Proper-execution margin: ϑ_g(E+U) ≤ ϕ·τ₃.
	if p.ThetaG*(p.EG+p.Uncertainty) > p.Phi*p.Tau3*(1+1e-12) {
		t.Error("correction bound |Δ| ≤ ϕτ₃ violated by construction")
	}
}

func TestErrorSequenceConvergence(t *testing.T) {
	p := MustDerive(practicalConfig())
	seq := ErrorSequence(10*p.EG, p.AlphaG, p.BetaG, 200)
	if len(seq) != 200 {
		t.Fatalf("len = %d", len(seq))
	}
	// Monotone decrease toward E when starting above E.
	for i := 1; i < len(seq); i++ {
		if seq[i] > seq[i-1]+1e-15 {
			t.Fatalf("sequence increased at %d: %v → %v", i, seq[i-1], seq[i])
		}
	}
	final := seq[len(seq)-1]
	if math.Abs(final-p.EG) > 0.05*p.EG {
		t.Errorf("e(200) = %v, want ≈ E = %v", final, p.EG)
	}
}

func TestErrorSequenceFixedPoint(t *testing.T) {
	// Property: starting exactly at the fixed point stays there.
	f := func(rawAlpha, rawBeta uint16) bool {
		alpha := float64(rawAlpha) / 65536 // in [0,1)
		beta := 1e-6 + float64(rawBeta)/65536
		e := SteadyState(alpha, beta)
		seq := ErrorSequence(e, alpha, beta, 10)
		for _, v := range seq {
			if math.Abs(v-e) > 1e-9*(1+e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateInfeasible(t *testing.T) {
	if !math.IsInf(SteadyState(1.0, 1.0), 1) {
		t.Error("α=1 should give +Inf steady state")
	}
	if !math.IsInf(SteadyState(1.5, 1.0), 1) {
		t.Error("α>1 should give +Inf steady state")
	}
}

func TestLegacyAlphaBetaMatchesPaperShape(t *testing.T) {
	// Eq. (11) with ϕ = Θ(1/(ϑ_g−1)) has α dominated by
	// 1/2·(…); verify β > 0 and α grows with ρ.
	a1, b1 := LegacyAlphaBeta(1e-7, 32e-7, 0.5, 1e-3, 1e-4)
	a2, _ := LegacyAlphaBeta(1e-5, 32e-5, 0.5, 1e-3, 1e-4)
	if b1 <= 0 {
		t.Errorf("β = %v, want > 0", b1)
	}
	if a2 <= a1 {
		t.Errorf("α should grow with ρ: α(1e-7)=%v α(1e-5)=%v", a1, a2)
	}
}

func TestBoundFormulas(t *testing.T) {
	p := MustDerive(practicalConfig())
	if p.ClusterSkewBound() != 2*p.ThetaG*p.EG {
		t.Error("ClusterSkewBound formula")
	}
	if p.GlobalSkewBound(4) != p.CGlobal*p.Delta*5 {
		t.Error("GlobalSkewBound formula")
	}
	if p.SigmaBase() <= 1 {
		t.Errorf("σ = µ̄/ρ̄ = %v, want > 1 (GCS axiom A4)", p.SigmaBase())
	}
	// Local skew bound must grow with D but sublinearly (logarithmically).
	l2, l16, l128 := p.LocalSkewBound(2), p.LocalSkewBound(16), p.LocalSkewBound(128)
	if !(l2 <= l16 && l16 <= l128) {
		t.Errorf("local skew bound not monotone: %v %v %v", l2, l16, l128)
	}
	if l128 >= 64*l2 {
		t.Errorf("local skew bound looks linear: D=2→%v D=128→%v", l2, l128)
	}
	if p.NodeLocalSkewBound(4) != p.LocalSkewBound(4)+2*p.ClusterSkewBound() {
		t.Error("NodeLocalSkewBound formula")
	}
}

func TestRateWindows(t *testing.T) {
	p := MustDerive(practicalConfig())
	// Lemma 3.6: the fast floor must exceed the slow ceiling — this is the
	// whole point of the unanimity machinery (fast clusters catch up).
	if p.FastRateFloor() <= p.SlowRateCeil() {
		t.Errorf("fast floor %v must exceed slow ceil %v", p.FastRateFloor(), p.SlowRateCeil())
	}
	if p.SlowRateFloor() >= p.SlowRateCeil() {
		t.Error("slow window empty")
	}
	// Prop. 4.11 axioms: 1 ≤ 1+ρ̄ < 1+µ̄ ≤ ϑ_max-ish.
	if p.RhoBar <= 0 || p.MuBar <= p.RhoBar {
		t.Errorf("axiom constants: ρ̄=%v µ̄=%v", p.RhoBar, p.MuBar)
	}
}

func TestClusterFailureProb(t *testing.T) {
	// Inequality (1): exact ≤ bound for representative (f, p) pairs; and
	// the bound drops geometrically in f for small p.
	for _, f := range []int{1, 2, 3, 4} {
		for _, pf := range []float64{0.01, 0.05, 0.1} {
			exact := ExactClusterFailureProb(f, pf)
			bound := ClusterFailureProbBound(f, pf)
			if exact > bound {
				t.Errorf("f=%d p=%v: exact %v > bound %v", f, pf, exact, bound)
			}
			if exact < 0 || exact > 1 {
				t.Errorf("f=%d p=%v: exact prob %v out of [0,1]", f, pf, exact)
			}
		}
	}
	if ClusterFailureProbBound(3, 0.01) >= ClusterFailureProbBound(1, 0.01) {
		t.Error("bound should decrease with f for small p")
	}
}

func TestBinomialPMFSums(t *testing.T) {
	n, p := 10, 0.3
	total := 0.0
	for k := 0; k <= n; k++ {
		total += binomialPMF(n, k, p)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("PMF sums to %v, want 1", total)
	}
}

func TestPresetString(t *testing.T) {
	if PaperStrict.String() != "paper-strict" || Practical.String() != "practical" {
		t.Error("preset names")
	}
	if Preset(99).String() == "" {
		t.Error("unknown preset should still format")
	}
}

func TestMuOverRhoGCSAxiomA4(t *testing.T) {
	// Axiom A4 for the simulated clocks: µ̄/ρ̄ > 1 for both presets at
	// their feasible drifts.
	for _, tc := range []struct {
		preset Preset
		rho    float64
	}{{Practical, 1e-4}, {PaperStrict, 1e-7}} {
		p := MustDerive(PresetConfig(tc.preset, tc.rho, 1e-3, 1e-4))
		if p.MuBar/p.RhoBar <= 1 {
			t.Errorf("%v: µ̄/ρ̄ = %v, want > 1", tc.preset, p.MuBar/p.RhoBar)
		}
	}
}

func TestScalingInDelayAndUncertainty(t *testing.T) {
	// E = Θ(ρd + U): doubling U should roughly double E when U dominates.
	base := MustDerive(Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 1e-4, C2: 8, Eps: 0.125})
	moreU := MustDerive(Config{Rho: 1e-4, Delay: 1e-3, Uncertainty: 2e-4, C2: 8, Eps: 0.125})
	ratio := moreU.EG / base.EG
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("E ratio for 2×U = %v, want ≈ 2", ratio)
	}
}

func BenchmarkDerive(b *testing.B) {
	cfg := practicalConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Derive(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
