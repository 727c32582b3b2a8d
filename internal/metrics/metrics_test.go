package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{3, 1, 4, 1, 5} {
		s.Append(float64(i), v)
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Max() != 5 || s.Min() != 1 {
		t.Errorf("Max/Min = %v/%v", s.Max(), s.Min())
	}
	if got := s.Mean(); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("Mean = %v, want 2.8", got)
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if !math.IsInf(s.Max(), -1) || !math.IsInf(s.Min(), 1) {
		t.Error("empty Max/Min should be ∓Inf")
	}
	if !math.IsNaN(s.Mean()) {
		t.Error("empty Mean should be NaN")
	}
}

func TestMaxAfter(t *testing.T) {
	var s Series
	s.Append(0, 100) // startup transient
	s.Append(10, 5)
	s.Append(20, 7)
	if got := s.MaxAfter(5); got != 7 {
		t.Errorf("MaxAfter(5) = %v, want 7", got)
	}
	if got := s.MaxAfter(50); !math.IsInf(got, -1) {
		t.Errorf("MaxAfter past end = %v, want -Inf", got)
	}
}

// observe appends (t, v) to r's declared series name.
func observe(r *Recorder, name string, t, v float64) { r.Handle(name).Append(t, v) }

func TestRecorder(t *testing.T) {
	r := NewRecorder(0, "a", "b")
	observe(r, "a", 0, 1)
	observe(r, "b", 0, 2)
	observe(r, "a", 1, 3)
	if got := r.Series("a").Max(); got != 3 {
		t.Errorf("Max(a) = %v", got)
	}
	if r.Handle("missing") != nil {
		t.Error("undeclared series has a handle")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	if r.Series("a").Len() != 2 {
		t.Error("series a should have 2 samples")
	}
	if r.Series("nope") != nil {
		t.Error("missing series should be nil")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x+3
	a, b, r2, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2) > 1e-12 || math.Abs(b-3) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Errorf("fit = (%v, %v, %v), want (2, 3, 1)", a, b, r2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, _, _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should fail")
	}
	if _, _, _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, _, err := FitLinear([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Error("degenerate x should fail")
	}
}

func TestFitLogarithm(t *testing.T) {
	// y = 4·log₂(x) + 1.
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 4*math.Log2(x) + 1
	}
	a, b, r2, err := FitLogarithm(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-4) > 1e-9 || math.Abs(b-1) > 1e-9 || r2 < 0.999 {
		t.Errorf("fit = (%v, %v, %v)", a, b, r2)
	}
	if _, _, _, err := FitLogarithm([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("x=0 should fail")
	}
}

func TestGrowthExponent(t *testing.T) {
	// Linear data → p ≈ 1; logarithmic data → p well below 1.
	ds := []float64{2, 4, 8, 16, 32, 64}
	linear := make([]float64, len(ds))
	logarithmic := make([]float64, len(ds))
	for i, d := range ds {
		linear[i] = 3 * d
		logarithmic[i] = 5 * math.Log2(d)
	}
	pLin, err := GrowthExponent(ds, linear)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pLin-1) > 0.01 {
		t.Errorf("linear exponent = %v, want ≈ 1", pLin)
	}
	pLog, err := GrowthExponent(ds, logarithmic)
	if err != nil {
		t.Fatal(err)
	}
	if pLog > 0.6 {
		t.Errorf("log exponent = %v, want well below linear", pLog)
	}
	if _, err := GrowthExponent([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Error("negative sample should fail")
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Std()) {
		t.Error("empty Welford should be NaN")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Sample std of this classic dataset: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(w.Std()-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", w.Std(), want)
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	s := NewRecorder(0, "bench").Handle("bench")
	for i := 0; i < b.N; i++ {
		s.Append(float64(i), float64(i%100))
	}
}
