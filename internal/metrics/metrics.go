// Package metrics records time series produced by simulation runs and
// provides the statistics the experiment harness reports: maxima, means,
// and the regression fits used to check the paper's scaling claims
// (logarithmic local skew in D, linear scaling in ρd+U).
package metrics

import (
	"fmt"
	"math"
)

// Series is an append-only time series.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
	// reserve is the capacity the first Append allocates (NewRecorder's
	// preallocation hint): a declared series costs nothing until it is
	// fed, and a fed one keeps its arrays across Recorder.Reset.
	reserve int
}

// Append adds a sample. Times should be non-decreasing.
func (s *Series) Append(t, v float64) {
	if s.Times == nil && s.reserve > 0 {
		s.Times = make([]float64, 0, s.reserve)
		s.Values = make([]float64, 0, s.reserve)
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Clone returns a deep copy sharing no backing arrays with the receiver.
// Consumers that keep a series beyond the producing run — result caches,
// sweep observers on reusable systems — must clone: Recorder.Reset
// truncates the original's arrays in place for the next run.
func (s *Series) Clone() *Series {
	return &Series{
		Name:   s.Name,
		Times:  append([]float64(nil), s.Times...),
		Values: append([]float64(nil), s.Values...),
	}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Max returns the maximum value (−Inf when empty).
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.Values {
		max = math.Max(max, v)
	}
	return max
}

// Min returns the minimum value (+Inf when empty).
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.Values {
		min = math.Min(min, v)
	}
	return min
}

// Mean returns the arithmetic mean (NaN when empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// MaxAfter returns the maximum over samples with t ≥ start; −Inf when none.
// Used to exclude transient start-up phases from steady-state claims.
func (s *Series) MaxAfter(start float64) float64 {
	max := math.Inf(-1)
	for i, t := range s.Times {
		if t >= start {
			max = math.Max(max, s.Values[i])
		}
	}
	return max
}

// Recorder holds an ordered, fixed set of named series, declared when it
// is built. A series is present once it holds a sample: Names and Series
// see only present series, so a declared series a run never fed stays
// absent (Summarize and the CSV/JSON exporters key off presence).
// Producers append through the handles Handle returns.
type Recorder struct {
	series []*Series
}

// NewRecorder returns a recorder declaring one empty series per name, in
// order. capacity is a preallocation hint (0 for none): a series allocates
// room for that many samples on its first Append, and grows as usual past
// it.
func NewRecorder(capacity int, names ...string) *Recorder {
	r := &Recorder{series: make([]*Series, len(names))}
	for i, name := range names {
		r.series[i] = &Series{Name: name, reserve: capacity}
	}
	return r
}

// Handle returns the declared series for appending, present or not; nil
// when name was not declared.
func (r *Recorder) Handle(name string) *Series {
	for _, s := range r.series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Reset empties every series for a fresh run, keeping its backing arrays:
// afterwards nothing is present, as on a new recorder. Callers holding
// Series pointers across a Reset see their arrays truncated in place —
// Clone before resetting to keep a run's data.
func (r *Recorder) Reset() {
	for _, s := range r.series {
		s.Times = s.Times[:0]
		s.Values = s.Values[:0]
	}
}

// Series returns the named series, or nil when it is absent.
func (r *Recorder) Series(name string) *Series {
	if s := r.Handle(name); s != nil && s.Len() > 0 {
		return s
	}
	return nil
}

// Names returns the present series' names in declaration order.
func (r *Recorder) Names() []string {
	out := make([]string, 0, len(r.series))
	for _, s := range r.series {
		if s.Len() > 0 {
			out = append(out, s.Name)
		}
	}
	return out
}

// --- Regression helpers ---

// FitLinear returns the least-squares fit y = a·x + b and the coefficient
// of determination R².
func FitLinear(xs, ys []float64) (a, b, r2 float64, err error) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0, 0, 0, fmt.Errorf("metrics: need ≥ 2 paired samples, have %d/%d", len(xs), len(ys))
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("metrics: degenerate x values")
	}
	a = sxy / sxx
	b = my - a*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return a, b, r2, nil
}

// FitLogarithm fits y = a·log₂(x) + b; used for the E1 claim that local
// skew grows logarithmically in the diameter.
func FitLogarithm(xs, ys []float64) (a, b, r2 float64, err error) {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return 0, 0, 0, fmt.Errorf("metrics: non-positive x for log fit: %v", x)
		}
		lx[i] = math.Log2(x)
	}
	return FitLinear(lx, ys)
}

// GrowthExponent fits y = c·x^p (power law) via log-log regression and
// returns p. Distinguishes linear (p≈1) from logarithmic (p≈0…0.3) growth
// in the D-sweep experiments.
func GrowthExponent(xs, ys []float64) (p float64, err error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, fmt.Errorf("metrics: non-positive sample for power fit")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	p, _, _, err = FitLinear(lx, ly)
	return p, err
}

// Welford accumulates streaming mean and variance.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates a sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN when empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Std returns the sample standard deviation (NaN when n < 2).
func (w *Welford) Std() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}
