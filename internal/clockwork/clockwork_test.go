package clockwork

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ftgcs/internal/sim"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// Breakpoint is one segment of an explicit rate schedule.
type Breakpoint struct {
	Start float64 // segment start time
	Rate  float64 // rate from Start until the next breakpoint
}

// Schedule is an explicit piecewise-constant rate plan. Before the first
// breakpoint the rate is Initial.
type Schedule struct {
	Initial     float64
	Breakpoints []Breakpoint // must be sorted by Start, strictly increasing
}

// NewSchedule validates and constructs an explicit schedule.
func NewSchedule(initial float64, bps []Breakpoint) (*Schedule, error) {
	for i := 1; i < len(bps); i++ {
		if bps[i].Start <= bps[i-1].Start {
			return nil, fmt.Errorf("clockwork: breakpoints not strictly increasing at %d", i)
		}
	}
	cp := make([]Breakpoint, len(bps))
	copy(cp, bps)
	return &Schedule{Initial: initial, Breakpoints: cp}, nil
}

// Segment implements RateModel.
func (s *Schedule) Segment(t float64) (float64, float64) {
	// Find the last breakpoint with Start <= t.
	i := sort.Search(len(s.Breakpoints), func(i int) bool { return s.Breakpoints[i].Start > t })
	// Breakpoints[i] is the first with Start > t; segment is [i-1, i).
	var rate float64
	if i == 0 {
		rate = s.Initial
	} else {
		rate = s.Breakpoints[i-1].Rate
	}
	end := math.Inf(1)
	if i < len(s.Breakpoints) {
		end = s.Breakpoints[i].Start
	}
	return rate, end
}

func TestConstantModel(t *testing.T) {
	m := Constant{Rate: 1.5}
	rate, end := m.Segment(3)
	if rate != 1.5 || !math.IsInf(end, 1) {
		t.Errorf("Segment = (%v, %v), want (1.5, +Inf)", rate, end)
	}
}

func TestAlternatingModel(t *testing.T) {
	m := Alternating{Lo: 1, Hi: 1.001, Period: 10}
	tests := []struct {
		t        float64
		wantRate float64
		wantEnd  float64
	}{
		{0, 1, 10},
		{5, 1, 10},
		{10, 1.001, 20},
		{19.999, 1.001, 20},
		{20, 1, 30},
		{35, 1.001, 40},
	}
	for _, tc := range tests {
		rate, end := m.Segment(tc.t)
		if !almostEqual(rate, tc.wantRate, tol) || !almostEqual(end, tc.wantEnd, 1e-6) {
			t.Errorf("Segment(%v) = (%v, %v), want (%v, %v)", tc.t, rate, end, tc.wantRate, tc.wantEnd)
		}
	}
}

func TestAlternatingWithPhase(t *testing.T) {
	m := Alternating{Lo: 1, Hi: 2, Period: 4, Phase: 1}
	rate, end := m.Segment(0)
	// t=0 is before Phase: idx = floor(-1/4) = -1, odd → Hi, end = 1.
	if rate != 2 || !almostEqual(end, 1, tol) {
		t.Errorf("Segment(0) = (%v,%v), want (2,1)", rate, end)
	}
	rate, end = m.Segment(1)
	if rate != 1 || !almostEqual(end, 5, tol) {
		t.Errorf("Segment(1) = (%v,%v), want (1,5)", rate, end)
	}
}

func TestAlternatingDegeneratePeriod(t *testing.T) {
	m := Alternating{Lo: 1.25, Hi: 2, Period: 0}
	rate, end := m.Segment(7)
	if rate != 1.25 || !math.IsInf(end, 1) {
		t.Errorf("degenerate period: got (%v,%v)", rate, end)
	}
}

func TestScheduleModel(t *testing.T) {
	s, err := NewSchedule(1.0, []Breakpoint{{Start: 10, Rate: 1.5}, {Start: 20, Rate: 1.2}})
	if err != nil {
		t.Fatalf("NewSchedule: %v", err)
	}
	tests := []struct {
		t        float64
		wantRate float64
		wantEnd  float64
	}{
		{0, 1.0, 10},
		{9.99, 1.0, 10},
		{10, 1.5, 20},
		{15, 1.5, 20},
		{20, 1.2, math.Inf(1)},
		{1e9, 1.2, math.Inf(1)},
	}
	for _, tc := range tests {
		rate, end := s.Segment(tc.t)
		if rate != tc.wantRate || end != tc.wantEnd {
			t.Errorf("Segment(%v) = (%v, %v), want (%v, %v)", tc.t, rate, end, tc.wantRate, tc.wantEnd)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(1, []Breakpoint{{Start: 5, Rate: 1}, {Start: 5, Rate: 2}}); err == nil {
		t.Error("non-increasing breakpoints should fail")
	}
	if _, err := NewSchedule(1, []Breakpoint{{Start: 9, Rate: 1}, {Start: 5, Rate: 2}}); err == nil {
		t.Error("decreasing breakpoints should fail")
	}
}

func TestRandomWalkIdempotent(t *testing.T) {
	w := NewRandomWalk(1, 1.0001, 5, sim.NewRNG(1, 1))
	r1, e1 := w.Segment(12)
	r2, e2 := w.Segment(12)
	if r1 != r2 || e1 != e2 {
		t.Error("Segment must be idempotent")
	}
	// Earlier query after later query must return the cached earlier value.
	rEarly, _ := w.Segment(2)
	rEarly2, _ := w.Segment(2)
	if rEarly != rEarly2 {
		t.Error("backtracking query changed value")
	}
	if err := Validate(w, 1e-4, 1000); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSinusoidWithinEnvelope(t *testing.T) {
	m := Sinusoid{Base: 1, Amp: 1e-4, Period: 100, StepsPerPeriod: 32}
	if err := Validate(m, 1e-4, 500); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestHardwareClockConstant(t *testing.T) {
	c := NewHardwareClock(Constant{Rate: 1.25})
	if got := c.Read(4); !almostEqual(got, 5, tol) {
		t.Errorf("Read(4) = %v, want 5", got)
	}
	if got := c.Read(8); !almostEqual(got, 10, tol) {
		t.Errorf("Read(8) = %v, want 10", got)
	}
	if got := c.Rate(100); got != 1.25 {
		t.Errorf("Rate = %v, want 1.25", got)
	}
}

func TestHardwareClockCrossesSegments(t *testing.T) {
	s, _ := NewSchedule(1.0, []Breakpoint{{Start: 10, Rate: 2.0}})
	c := NewHardwareClock(s)
	// ∫₀²⁰ = 10·1 + 10·2 = 30, in one query crossing the breakpoint.
	if got := c.Read(20); !almostEqual(got, 30, tol) {
		t.Errorf("Read(20) = %v, want 30", got)
	}
}

func TestHardwareClockIncrementalEqualsOneShot(t *testing.T) {
	mk := func() *HardwareClock {
		return NewHardwareClock(Alternating{Lo: 1, Hi: 1.001, Period: 7})
	}
	one := mk()
	inc := mk()
	var last float64
	for _, tt := range []float64{1, 3, 7, 7.5, 14, 21.2, 100} {
		last = inc.Read(tt)
	}
	if got := one.Read(100); !almostEqual(got, last, tol) {
		t.Errorf("one-shot %v != incremental %v", got, last)
	}
}

func TestLogicalClockModesAffectRate(t *testing.T) {
	phi, mu := 0.01, 0.02
	hw := NewHardwareClock(Constant{Rate: 1})
	lc := NewLogicalClock(hw, phi, mu)
	// δ=1, γ=0: rate = (1+ϕ).
	if got := lc.Rate(0); !almostEqual(got, 1+phi, tol) {
		t.Errorf("initial rate = %v, want %v", got, 1+phi)
	}
	if got := lc.Value(10); !almostEqual(got, 10*(1+phi), tol) {
		t.Errorf("Value(10) = %v, want %v", got, 10*(1+phi))
	}
	lc.SetGamma(10, 1)
	if got := lc.Rate(10); !almostEqual(got, (1+phi)*(1+mu), tol) {
		t.Errorf("fast rate = %v, want %v", got, (1+phi)*(1+mu))
	}
	if got := lc.Value(20); !almostEqual(got, 10*(1+phi)+10*(1+phi)*(1+mu), tol) {
		t.Errorf("Value(20) = %v", got)
	}
	lc.SetDelta(20, 0)
	lc.SetGamma(20, 0)
	if got := lc.Rate(20); !almostEqual(got, 1, tol) {
		t.Errorf("slowest rate = %v, want 1", got)
	}
}

func TestLogicalClockDeltaClamped(t *testing.T) {
	hw := NewHardwareClock(Constant{Rate: 1})
	lc := NewLogicalClock(hw, 0.5, 0)
	lc.SetDelta(0, -3)
	if lc.Delta() != 0 {
		t.Errorf("negative delta should clamp to 0, got %v", lc.Delta())
	}
}

func TestLogicalClockGammaNormalized(t *testing.T) {
	hw := NewHardwareClock(Constant{Rate: 1})
	lc := NewLogicalClock(hw, 0.1, 0.1)
	lc.SetGamma(0, 5)
	if lc.Gamma() != 1 {
		t.Errorf("gamma should normalize to 1, got %d", lc.Gamma())
	}
}

func TestTimeWhenConstantRate(t *testing.T) {
	hw := NewHardwareClock(Constant{Rate: 1})
	lc := NewLogicalClock(hw, 0, 0) // rate exactly 1
	got, err := lc.TimeWhen(0, 42)
	if err != nil {
		t.Fatalf("TimeWhen: %v", err)
	}
	if !almostEqual(got, 42, tol) {
		t.Errorf("TimeWhen = %v, want 42", got)
	}
}

func TestTimeWhenCrossesHardwareSegments(t *testing.T) {
	s, _ := NewSchedule(1.0, []Breakpoint{{Start: 10, Rate: 2.0}})
	hw := NewHardwareClock(s)
	lc := NewLogicalClock(hw, 0, 0)
	// L(t) = t for t ≤ 10, then 10 + 2(t−10). Target 30 → t = 20.
	got, err := lc.TimeWhen(0, 30)
	if err != nil {
		t.Fatalf("TimeWhen: %v", err)
	}
	if !almostEqual(got, 20, tol) {
		t.Errorf("TimeWhen = %v, want 20", got)
	}
}

func TestTimeWhenPastTargetReturnsFrom(t *testing.T) {
	hw := NewHardwareClock(Constant{Rate: 1})
	lc := NewLogicalClock(hw, 0, 0)
	lc.Value(50)
	got, err := lc.TimeWhen(50, 10)
	if err != nil {
		t.Fatalf("TimeWhen: %v", err)
	}
	if got != 50 {
		t.Errorf("past target should return from=50, got %v", got)
	}
}

func TestTimeWhenInverseOfValue(t *testing.T) {
	// Property: Value(TimeWhen(target)) == target for any admissible config.
	f := func(rawRate, rawTarget uint16) bool {
		rho := 1e-3
		rate := 1 + float64(rawRate)/65535*rho
		target := float64(rawTarget) / 16
		hw := NewHardwareClock(Alternating{Lo: 1, Hi: rate, Period: 3.7})
		lc := NewLogicalClock(hw, 0.01, 0.005)
		tw, err := lc.TimeWhen(0, target)
		if err != nil {
			return false
		}
		// Fresh clock pair for the check (Value mutates anchors).
		hw2 := NewHardwareClock(Alternating{Lo: 1, Hi: rate, Period: 3.7})
		lc2 := NewLogicalClock(hw2, 0.01, 0.005)
		return almostEqual(lc2.Value(tw), target, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogicalClockSharedHardware(t *testing.T) {
	// Two logical clocks sharing one hardware clock advance consistently.
	hw := NewHardwareClock(Constant{Rate: 1.001})
	a := NewLogicalClock(hw, 0.01, 0.02)
	b := NewLogicalClock(hw, 0.01, 0.02)
	b.SetGamma(0, 1)
	va := a.Value(100)
	vb := b.Value(100)
	if vb <= va {
		t.Errorf("fast clock (%v) should lead slow clock (%v)", vb, va)
	}
	ratio := vb / va
	if !almostEqual(ratio, 1.02, 1e-9) {
		t.Errorf("rate ratio = %v, want 1.02", ratio)
	}
}

func TestEnvelope(t *testing.T) {
	lo, hi := Envelope(0.01, 0.02, 0.001)
	if lo != 1 {
		t.Errorf("lo = %v, want 1", lo)
	}
	want := (1 + 2*0.01/0.99) * 1.02 * 1.001
	if !almostEqual(hi, want, tol) {
		t.Errorf("hi = %v, want %v", hi, want)
	}
}

func TestNominalRate(t *testing.T) {
	hw := NewHardwareClock(Constant{Rate: 1.0005})
	lc := NewLogicalClock(hw, 0.01, 0.02)
	lc.SetDelta(0, 0) // nominal rate must ignore δ
	want := 1.01 * 1.0005
	if got := lc.NominalRate(0); !almostEqual(got, want, tol) {
		t.Errorf("NominalRate = %v, want %v", got, want)
	}
	lc.SetGamma(0, 1)
	want *= 1.02
	if got := lc.NominalRate(0); !almostEqual(got, want, tol) {
		t.Errorf("fast NominalRate = %v, want %v", got, want)
	}
}

func TestMonotonicityProperty(t *testing.T) {
	// Property: logical clock values are non-decreasing along any
	// non-decreasing query sequence, under random mode flips.
	f := func(steps []uint8) bool {
		hw := NewHardwareClock(Alternating{Lo: 1, Hi: 1.0001, Period: 2.3})
		lc := NewLogicalClock(hw, 0.02, 0.01)
		t0, prev := 0.0, 0.0
		for i, s := range steps {
			t0 += float64(s) / 32
			switch i % 3 {
			case 0:
				lc.SetGamma(t0, i%2)
			case 1:
				lc.SetDelta(t0, float64(s)/256)
			}
			v := lc.Value(t0)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesOutOfEnvelope(t *testing.T) {
	if err := Validate(Constant{Rate: 1.5}, 1e-4, 10); err == nil {
		t.Error("rate 1.5 with ρ=1e-4 should fail validation")
	}
	if err := Validate(Constant{Rate: 0.5}, 1e-4, 10); err == nil {
		t.Error("rate below 1 should fail validation")
	}
}

func BenchmarkLogicalValue(b *testing.B) {
	hw := NewHardwareClock(Alternating{Lo: 1, Hi: 1.0001, Period: 0.5})
	lc := NewLogicalClock(hw, 0.01, 0.005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lc.Value(float64(i) * 0.001)
	}
}
