// Package approxagree implements the approximate-agreement selection rule
// of Dolev et al. [6] that powers the Lynch–Welch clock correction
// (Algorithm 1, line 12 of the FTGCS paper):
//
//	Δ_v(r) = (S_v^{f+1} + S_v^{k−f}) / 2
//
// where S_v is the ascending multiset of k observed pulse offsets and
// S_v^i denotes its i-th element (1-based). Discarding the f smallest and
// f largest values guarantees that both selected elements lie within the
// range of values reported by correct nodes, no matter what up to f
// Byzantine nodes contribute; averaging the two yields the 2-contraction
// of the correct-value interval that drives convergence.
package approxagree

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTooFewValues indicates the multiset cannot tolerate f faults.
var ErrTooFewValues = errors.New("approxagree: need k ≥ 3f+1 values")

// ErrTooManyMissing indicates more than f values were missing/invalid, so
// the selected positions are not guaranteed to lie in the correct range.
var ErrTooManyMissing = errors.New("approxagree: more than f missing values")

// Midpoint computes (S^{f+1} + S^{k−f})/2 over the ascending sort of
// values. Missing observations must be encoded as +Inf (the convention used
// by ClusterSync for neighbors whose pulse never arrived); NaNs are
// rejected. The input slice is not modified.
func Midpoint(values []float64, f int) (float64, error) {
	s := make([]float64, len(values))
	copy(s, values)
	return MidpointInPlace(s, f)
}

// MidpointInPlace is Midpoint without the defensive copy: it sorts values
// in place and allocates nothing, so hot paths (ClusterSync's per-round
// correction) can reuse one scratch buffer across rounds. The slice is left
// in ascending order.
func MidpointInPlace(values []float64, f int) (float64, error) {
	k := len(values)
	if f < 0 {
		return 0, fmt.Errorf("approxagree: negative f=%d", f)
	}
	if k < 3*f+1 {
		return 0, fmt.Errorf("%w: k=%d f=%d", ErrTooFewValues, k, f)
	}
	for _, v := range values {
		if math.IsNaN(v) {
			return 0, errors.New("approxagree: NaN value")
		}
	}
	sortNoNaN(values)
	lo := values[f]     // S^{f+1}, 1-based
	hi := values[k-f-1] // S^{k−f}, 1-based
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, ErrTooManyMissing
	}
	return (lo + hi) / 2, nil
}

// insertionMax is the largest input sortNoNaN orders by insertion. It is
// slices.Sort's own insertion-sort cutoff, so both leave the same
// arrangement at every size; above it insertion sort's O(k²) loses to
// slices.Sort's O(k log k).
const insertionMax = 12

// sortNoNaN sorts values ascending. With NaN excluded, plain < is the
// total order slices.Sort would use, minus its per-comparison NaN test.
func sortNoNaN(values []float64) {
	if len(values) > insertionMax {
		slices.Sort(values)
		return
	}
	for i := 1; i < len(values); i++ {
		for j := i; j > 0 && values[j] < values[j-1]; j-- {
			values[j], values[j-1] = values[j-1], values[j]
		}
	}
}

// CorrectRange returns the interval [min, max] spanned by the values at
// trusted positions — i.e. after discarding the f smallest and f largest.
// Any Midpoint result lies inside this interval. Used by tests and the
// fault-injection experiments to verify the validity property.
func CorrectRange(values []float64, f int) (lo, hi float64, err error) {
	k := len(values)
	if k < 3*f+1 || f < 0 {
		return 0, 0, fmt.Errorf("%w: k=%d f=%d", ErrTooFewValues, k, f)
	}
	s := make([]float64, k)
	copy(s, values)
	slices.Sort(s)
	return s[f], s[k-f-1], nil
}

// Contraction bounds the spread of midpoints across nodes: for any two
// nodes whose multisets differ only in the contributions of ≤ f Byzantine
// senders and in per-value perturbations of at most jitter, the midpoints
// differ by at most spread/2 + jitter, where spread is the diameter of the
// correct values (Dolev et al. [6]; the engine of Lynch–Welch convergence).
// This helper computes that analytic bound for test assertions.
func Contraction(correctSpread, jitter float64) float64 {
	return correctSpread/2 + jitter
}
