package metrics

import (
	"reflect"
	"testing"
)

// TestRecorderResetPresenceSemantics pins the load-bearing property of
// Recorder.Reset: afterwards the recorder is observably indistinguishable
// from a new one — lookups return nil, Names is empty, and a series that
// is not fed again stays absent (Summarize and the exporters key off
// presence). Present names come back in declaration order, whatever order
// the series were first fed in.
func TestRecorderResetPresenceSemantics(t *testing.T) {
	r := NewRecorder(0, "a", "b", "c")
	if names := r.Names(); len(names) != 0 {
		t.Fatalf("Names of a new recorder = %v, want empty", names)
	}
	observe(r, "b", 1, 20)
	observe(r, "a", 1, 10)
	observe(r, "a", 2, 11)
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names = %v, want [a b] (declaration order, c never fed)", got)
	}
	if r.Series("c") != nil {
		t.Fatal("declared but unfed series c is present")
	}

	r.Reset()

	if names := r.Names(); len(names) != 0 {
		t.Fatalf("Names after reset = %v, want empty", names)
	}
	if r.Series("a") != nil || r.Series("b") != nil {
		t.Fatal("Series lookup non-nil after reset")
	}

	// Feed only "a" again: "b" must stay absent.
	observe(r, "a", 5, 50)
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Names = %v, want [a]", got)
	}
	if r.Series("b") != nil {
		t.Fatal("unfed series b resurrected by reset")
	}
	s := r.Series("a")
	if s == nil || s.Len() != 1 || s.Times[0] != 5 || s.Values[0] != 50 {
		t.Fatalf("series a after reset+observe = %+v, want single (5, 50) sample", s)
	}
}

// TestRecorderResetReusesBacking verifies what makes Reset an allocation
// win: a series keeps its handle and its backing arrays (same object, same
// capacity) across a reset instead of being reallocated.
func TestRecorderResetReusesBacking(t *testing.T) {
	r := NewRecorder(0, "a")
	for i := 0; i < 100; i++ {
		observe(r, "a", float64(i), float64(i))
	}
	before := r.Series("a")
	capT, capV := cap(before.Times), cap(before.Values)

	r.Reset()
	observe(r, "a", 0, 0)

	after := r.Series("a")
	if after != before {
		t.Fatal("reset replaced the Series object")
	}
	if cap(after.Times) != capT || cap(after.Values) != capV {
		t.Fatalf("backing capacity changed across reset: times %d→%d, values %d→%d",
			capT, cap(after.Times), capV, cap(after.Values))
	}
	if after.Len() != 1 {
		t.Fatalf("series has %d samples after reset, want 1 (old data must be truncated)", after.Len())
	}
}

// TestSeriesCloneIndependence verifies Clone severs all sharing: mutating
// the original (as Reset does, truncating in place) cannot affect a clone.
func TestSeriesCloneIndependence(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(1, 10)
	s.Append(2, 20)
	c := s.Clone()

	s.Times = s.Times[:0]
	s.Values = s.Values[:0]
	s.Append(9, 90)

	if c.Name != "x" || c.Len() != 2 || c.Times[0] != 1 || c.Values[1] != 20 {
		t.Fatalf("clone corrupted by mutation of original: %+v", c)
	}
}

// TestRecorderCapacityHint: a declared series allocates nothing until fed,
// then holds the hinted sample count without growing.
func TestRecorderCapacityHint(t *testing.T) {
	r := NewRecorder(64, "a", "b")
	for i := 0; i < 64; i++ {
		observe(r, "a", float64(i), 0)
	}
	if a := r.Series("a"); cap(a.Times) != 64 || cap(a.Values) != 64 {
		t.Fatalf("capacity after 64 samples: times %d, values %d, want 64", cap(a.Times), cap(a.Values))
	}
	if b := r.Handle("b"); b.Times != nil || b.Values != nil {
		t.Fatal("unfed series allocated its arrays")
	}
}
