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
}

// Append adds a sample. Times should be non-decreasing.
func (s *Series) Append(t, v float64) {
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

// Recorder is a bag of named series.
type Recorder struct {
	series map[string]*Series
	order  []string
	// reserve holds per-name capacity hints (Reserve): a series is still
	// created lazily on its first Observe — presence semantics are
	// unchanged — but it is born with its full expected capacity, so a
	// run whose sample count is known up front appends without a single
	// growth reallocation.
	reserve map[string]int
	// pool holds series parked by Reset, keyed by name: absent from the
	// recorder (Names/Series behave exactly as on a fresh recorder) but
	// keeping their backing arrays, which the next Observe of the same
	// name adopts instead of allocating.
	pool map[string]*Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Reserve registers a capacity hint for the named series: when (if) the
// series is created by Observe, its Times/Values are preallocated to hold
// n samples. Reserving never creates the series — a reserved name that is
// never observed stays absent, exactly as before — and reserving an
// already-created series is a no-op. Callers that know the sample count
// at build time (horizon / sampleInterval) use this to keep the recording
// hot path allocation-free.
func (r *Recorder) Reserve(name string, n int) {
	if n <= 0 || r.series[name] != nil {
		return
	}
	if r.reserve == nil {
		r.reserve = make(map[string]int)
	}
	r.reserve[name] = n
}

// Observe appends a sample to the named series, creating it if needed. A
// series parked by Reset under the same name is revived with its backing
// arrays intact instead of being reallocated.
func (r *Recorder) Observe(name string, t, v float64) {
	s, ok := r.series[name]
	if !ok {
		if ps := r.pool[name]; ps != nil {
			s = ps
			delete(r.pool, name)
		} else {
			s = &Series{Name: name}
			if n := r.reserve[name]; n > 0 {
				s.Times = make([]float64, 0, n)
				s.Values = make([]float64, 0, n)
			}
		}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	s.Append(t, v)
}

// Reset empties the recorder for a fresh run while keeping the recorded
// series' backing arrays. Observable semantics match a newly constructed
// recorder exactly — Names is empty and every Series lookup returns nil
// until the name is observed again; a series that existed before the
// reset but is never re-observed stays absent (presence is load-bearing:
// Summarize and the CSV/JSON exporters key off it). Reserve hints
// persist. Callers holding Series pointers across a Reset see their
// arrays truncated in place — Clone before resetting to keep a run's
// data.
func (r *Recorder) Reset() {
	if len(r.series) > 0 && r.pool == nil {
		r.pool = make(map[string]*Series, len(r.series))
	}
	for name, s := range r.series {
		s.Times = s.Times[:0]
		s.Values = s.Values[:0]
		r.pool[name] = s
		delete(r.series, name)
	}
	r.order = r.order[:0]
}

// Series returns the named series, or nil.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// Names returns the series names in creation order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Max is shorthand for Series(name).Max(); −Inf when the series is absent.
func (r *Recorder) Max(name string) float64 {
	if s := r.series[name]; s != nil {
		return s.Max()
	}
	return math.Inf(-1)
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
