package approxagree

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ftgcs/internal/sim"
)

func TestMidpointBasic(t *testing.T) {
	tests := []struct {
		name   string
		values []float64
		f      int
		want   float64
	}{
		{"f=0 two values", []float64{1, 3}, 0, 2},
		{"f=0 median-free", []float64{0, 10}, 0, 5},
		{"f=1 k=4", []float64{-100, 1, 3, 100}, 1, 2},
		{"f=1 k=4 extremes ignored", []float64{1, 2, 3, 1e9}, 1, 2.5},
		{"f=2 k=7", []float64{-1e9, -1e9, 1, 2, 3, 1e9, 1e9}, 2, 2},
		{"all equal", []float64{5, 5, 5, 5}, 1, 5},
		{"negative offsets", []float64{-4, -3, -2, -1}, 1, -2.5},
	}
	for _, tc := range tests {
		got, err := Midpoint(tc.values, tc.f)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: Midpoint = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMidpointDoesNotModifyInput(t *testing.T) {
	in := []float64{5, 1, 4, 2}
	if _, err := Midpoint(in, 1); err != nil {
		t.Fatal(err)
	}
	if in[0] != 5 || in[1] != 1 || in[2] != 4 || in[3] != 2 {
		t.Errorf("input modified: %v", in)
	}
}

func TestMidpointErrors(t *testing.T) {
	if _, err := Midpoint([]float64{1, 2, 3}, 1); err == nil {
		t.Error("k=3 < 3f+1=4 should fail")
	}
	if _, err := Midpoint([]float64{1}, -1); err == nil {
		t.Error("negative f should fail")
	}
	if _, err := Midpoint([]float64{1, 2, math.NaN(), 4}, 1); err == nil {
		t.Error("NaN should fail")
	}
}

func TestMidpointMissingValues(t *testing.T) {
	inf := math.Inf(1)
	// One missing with f=1, k=4: fine.
	got, err := Midpoint([]float64{1, 3, inf, 2}, 1)
	if err != nil {
		t.Fatalf("one missing: %v", err)
	}
	if got != 2.5 { // sorted: 1,2,3,inf → S²=2, S³=3
		t.Errorf("got %v, want 2.5", got)
	}
	// Two missing with f=1: S^{k−f}=S³=inf → error.
	if _, err := Midpoint([]float64{1, 2, inf, inf}, 1); err == nil {
		t.Error("two missing with f=1 should fail")
	}
	// -Inf sentinel likewise rejected if it reaches a selected slot.
	if _, err := Midpoint([]float64{math.Inf(-1), math.Inf(-1), 1, 2}, 1); err == nil {
		t.Error("-Inf at selected position should fail")
	}
}

func TestValidityProperty(t *testing.T) {
	// Property (validity): with ≤ f arbitrary Byzantine values injected
	// among ≥ 2f+1 correct values, the midpoint lies within the range of
	// the correct values.
	rng := sim.NewRNG(42, 0)
	for trial := 0; trial < 2000; trial++ {
		f := rng.Intn(3) + 1
		k := 3*f + 1 + rng.Intn(4)
		correct := make([]float64, 0, k)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < k-f; i++ {
			v := rng.UniformIn(-10, 10)
			correct = append(correct, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		all := append([]float64{}, correct...)
		for i := 0; i < f; i++ {
			// Byzantine values, including missing (+Inf).
			switch rng.Intn(3) {
			case 0:
				all = append(all, math.Inf(1))
			case 1:
				all = append(all, rng.UniformIn(-1e12, 1e12))
			default:
				all = append(all, rng.UniformIn(-10, 10))
			}
		}
		got, err := Midpoint(all, f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got < lo-1e-12 || got > hi+1e-12 {
			t.Fatalf("trial %d: midpoint %v outside correct range [%v, %v]", trial, got, lo, hi)
		}
	}
}

func TestContractionProperty(t *testing.T) {
	// Property (2-contraction): two correct nodes seeing the same correct
	// values but different Byzantine injections produce midpoints within
	// spread/2 of each other.
	rng := sim.NewRNG(7, 0)
	for trial := 0; trial < 2000; trial++ {
		f := rng.Intn(3) + 1
		k := 3*f + 1
		correct := make([]float64, k-f)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range correct {
			correct[i] = rng.UniformIn(-5, 5)
			lo = math.Min(lo, correct[i])
			hi = math.Max(hi, correct[i])
		}
		spread := hi - lo
		mk := func() []float64 {
			all := append([]float64{}, correct...)
			for i := 0; i < f; i++ {
				if rng.Bernoulli(0.3) {
					all = append(all, math.Inf(1))
				} else {
					all = append(all, rng.UniformIn(-1e9, 1e9))
				}
			}
			return all
		}
		m1, err1 := Midpoint(mk(), f)
		m2, err2 := Midpoint(mk(), f)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v %v", trial, err1, err2)
		}
		if diff := math.Abs(m1 - m2); diff > Contraction(spread, 0)+1e-12 {
			t.Fatalf("trial %d: midpoints %v, %v differ by %v > spread/2 = %v",
				trial, m1, m2, diff, spread/2)
		}
	}
}

func TestCorrectRange(t *testing.T) {
	lo, hi, err := CorrectRange([]float64{-100, 1, 5, 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 1 || hi != 5 {
		t.Errorf("CorrectRange = [%v, %v], want [1, 5]", lo, hi)
	}
	if _, _, err := CorrectRange([]float64{1}, 1); err == nil {
		t.Error("too few values should fail")
	}
}

func TestMidpointWithinCorrectRangeQuick(t *testing.T) {
	// Property via testing/quick: Midpoint ∈ CorrectRange for arbitrary
	// finite inputs.
	f := func(raw []int16) bool {
		if len(raw) < 4 {
			return true
		}
		fCount := (len(raw) - 1) / 3
		values := make([]float64, len(raw))
		for i, r := range raw {
			values[i] = float64(r)
		}
		mid, err := Midpoint(values, fCount)
		if err != nil {
			return false
		}
		lo, hi, err := CorrectRange(values, fCount)
		if err != nil {
			return false
		}
		return mid >= lo && mid <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMidpointEqualsMedianOfSelectedPair(t *testing.T) {
	// Cross-check against a straightforward reference implementation.
	rng := sim.NewRNG(3, 0)
	for trial := 0; trial < 500; trial++ {
		f := rng.Intn(3)
		k := 3*f + 1 + rng.Intn(5)
		values := make([]float64, k)
		for i := range values {
			values[i] = rng.UniformIn(-100, 100)
		}
		got, err := Midpoint(values, f)
		if err != nil {
			t.Fatal(err)
		}
		ref := append([]float64{}, values...)
		sort.Float64s(ref)
		want := (ref[f] + ref[k-f-1]) / 2
		if got != want {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func BenchmarkMidpoint(b *testing.B) {
	values := []float64{3, -1, 4, 1, -5, 9, 2, 6, -5, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Midpoint(values, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMidpointInPlaceAcrossSortCutoff checks MidpointInPlace against the
// sort-based oracle CorrectRange on both sides of the insertion-sort
// cutoff, with ties and up to f missing (+Inf) values, and checks that the
// slice is left in ascending order.
func TestMidpointInPlaceAcrossSortCutoff(t *testing.T) {
	rng := sim.NewRNG(5, 0)
	for _, k := range []int{4, 7, 8, insertionMax + 1, 100} {
		f := (k - 1) / 3
		for trial := 0; trial < 200; trial++ {
			values := make([]float64, k)
			for i := range values {
				values[i] = float64(rng.Intn(k/2+1)) - float64(k/4) // ties are common
			}
			for m := rng.Intn(f + 1); m > 0; m-- {
				values[rng.Intn(k)] = math.Inf(1)
			}
			lo, hi, err := CorrectRange(values, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MidpointInPlace(values, f)
			if err != nil || got != (lo+hi)/2 {
				t.Fatalf("k=%d trial %d: got %v (%v), want %v", k, trial, got, err, (lo+hi)/2)
			}
			if !sort.Float64sAreSorted(values) {
				t.Fatalf("k=%d trial %d: values left unsorted: %v", k, trial, values)
			}
		}
	}
}

// BenchmarkMidpointInPlace times one round's correction at a typical
// cluster size (k=8, below the insertion-sort cutoff) and a large one
// (k=100, above it), the copy into the scratch buffer included.
func BenchmarkMidpointInPlace(b *testing.B) {
	for _, k := range []int{8, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := sim.NewRNG(1, 0)
			in := make([]float64, k)
			for i := range in {
				in[i] = rng.UniformIn(-1, 1)
			}
			buf := make([]float64, k)
			f := (k - 1) / 3
			for b.Loop() {
				copy(buf, in)
				if _, err := MidpointInPlace(buf, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
