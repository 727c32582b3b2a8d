package manifest

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ftgcs/internal/spec"
)

// quickBase is a base spec small enough that expanded grids run in
// milliseconds.
func quickBase() spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Topology: spec.Topology{Name: "line", Size: 2},
		Horizon:  spec.Horizon{Seconds: 3},
	}
}

// gridManifest is the canonical fixture: a baseline arm plus a sweep arm
// gated on it, expanding to 1 + 2×3 = 7 points of which one sweep point
// collides with nothing (all seeds distinct from baseline's).
func gridManifest() Manifest {
	return Manifest{
		Name: "test-grid",
		Base: quickBase(),
		Arms: []Arm{
			{Name: "baseline"},
			{
				Name: "sweep",
				Axes: []Axis{
					{Param: "topology.size", Ints: []int{2, 3}},
				},
				Seeds: &Seeds{From: 1, Count: 3},
				After: []string{"baseline"},
			},
		},
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	m := gridManifest()
	n1 := m.Normalize()
	n2 := n1.Normalize()
	b1, err := n1.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := n2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("Normalize is not idempotent:\n%s\n%s", b1, b2)
	}
	if n1.Version != Version {
		t.Errorf("version not defaulted: %d", n1.Version)
	}
	if n1.Arms[0].Seeds == nil || n1.Arms[0].Seeds.Count != 1 {
		t.Errorf("nil seeds not normalized: %+v", n1.Arms[0].Seeds)
	}
	if n1.Arms[0].Replicate != 1 {
		t.Errorf("replicate not defaulted: %d", n1.Arms[0].Replicate)
	}
}

// TestHashStableUnderSpelledDefaults: a manifest that spells out every
// default hashes identically to one that omits them, and display names
// are excluded from identity.
func TestHashStableUnderSpelledDefaults(t *testing.T) {
	terse := Manifest{
		Base: quickBase(),
		Arms: []Arm{{Name: "a", After: []string{"c", "b"}}, {Name: "b"}, {Name: "c"}},
	}
	spelled := Manifest{
		Version: Version,
		Name:    "a completely different display name",
		Base:    quickBase().Normalize(),
		Arms: []Arm{
			{Name: "a", Replicate: 1, Seeds: &Seeds{From: 0, Count: 1}, After: []string{"b", "c"}},
			{Name: "b", Replicate: 1, Seeds: &Seeds{From: 0, Count: 1}},
			{Name: "c", Replicate: 1, Seeds: &Seeds{From: 0, Count: 1}},
		},
	}
	spelled.Base.Name = "another display name"
	h1, err := terse.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := spelled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not stable under spelled-out defaults: %s vs %s", h1, h2)
	}
	if !strings.HasPrefix(h1, "sha256:") || len(h1) != len("sha256:")+64 {
		t.Fatalf("malformed hash %q", h1)
	}
}

// TestHashStableUnderKeyOrder: the same document with JSON keys in a
// different order parses to the same identity.
func TestHashStableUnderKeyOrder(t *testing.T) {
	a := `{"version":1,"base":{"topology":{"name":"line","size":2},"horizon":{"seconds":3}},"arms":[{"name":"x","seeds":{"from":5,"count":2}}]}`
	b := `{"arms":[{"seeds":{"count":2,"from":5},"name":"x"}],"base":{"horizon":{"seconds":3},"topology":{"size":2,"name":"line"}},"version":1}`
	ma, err := Parse([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Parse([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := ma.Hash()
	hb, _ := mb.Hash()
	if ha != hb {
		t.Fatalf("hash depends on key order: %s vs %s", ha, hb)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"version":1,"base":{},"arms":[{"name":"a"}],"bogus":1}`))
	if err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	_, err = Parse([]byte(`{"version":1,"base":{},"arms":[{"name":"a","sweep":{}}]}`))
	if err == nil {
		t.Fatal("unknown arm field accepted")
	}
}

// FuzzCodecRoundTrip is the codec property test: for any input that
// parses, Canonical is a fixed point — re-parsing the canonical bytes
// and re-encoding yields the same bytes and the same hash.
func FuzzCodecRoundTrip(f *testing.F) {
	seed1, err := gridManifest().Canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed1)
	f.Add([]byte(`{"version":1,"base":{},"arms":[{"name":"a","axes":[{"param":"clusters.k","ints":[4,7]}],"replicate":3}]}`))
	f.Add([]byte(`{"arms":[{"seeds":{"count":2,"from":-9},"name":"x","after":["x"]}],"base":{"preset":"paper-strict"}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			t.Skip()
		}
		c1, err := m.Canonical()
		if err != nil {
			t.Skip() // unencodable values (NaN axis floats) cannot canonicalize
		}
		m2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical bytes do not re-parse: %v\n%s", err, c1)
		}
		c2, err := m2.Canonical()
		if err != nil {
			t.Fatalf("re-canonicalize: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical not a fixed point:\n%s\n%s", c1, c2)
		}
		h1, _ := m.Hash()
		h2, _ := m2.Hash()
		if h1 != h2 {
			t.Fatalf("hash changed across round trip: %s vs %s", h1, h2)
		}
	})
}

func TestExpandGrid(t *testing.T) {
	exp, err := gridManifest().Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	// baseline: 1 point (seed 0); sweep: 2 sizes × 3 seeds = 6. The
	// size=2/seed=0 baseline point does NOT collide (sweep seeds are 1–3).
	if len(exp.Jobs) != 7 {
		t.Fatalf("unique jobs = %d, want 7", len(exp.Jobs))
	}
	if len(exp.Arms) != 2 || len(exp.Arms[0].JobIDs) != 1 || len(exp.Arms[1].JobIDs) != 6 {
		t.Fatalf("arm plans wrong: %+v", exp.Arms)
	}
	if exp.Arms[1].After[0] != "baseline" {
		t.Fatalf("after lost: %+v", exp.Arms[1])
	}
	wantName := "sweep/topology.size=2/seed=1"
	found := false
	for _, j := range exp.Jobs {
		if j.Name == wantName {
			found = true
			if j.Request.Spec.Topology.Size != 2 || j.Request.Spec.Seed != 1 {
				t.Fatalf("point %q carries wrong spec: %+v", wantName, j.Request.Spec)
			}
		}
		if j.ID == "" || !strings.HasPrefix(j.ID, "sha256:") {
			t.Fatalf("job without identity: %+v", j)
		}
	}
	if !found {
		t.Fatalf("expected point %q missing", wantName)
	}
}

// TestExpandDedupSharedPoint: a grid point reachable from two arms is
// one unique job listed in both arm plans.
func TestExpandDedupSharedPoint(t *testing.T) {
	m := Manifest{
		Base: quickBase(),
		Arms: []Arm{
			{Name: "baseline", Seeds: &Seeds{From: 0, Count: 1}},
			{Name: "seeds", Seeds: &Seeds{From: 0, Count: 4}}, // includes seed 0
		},
	}
	exp, err := m.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Jobs) != 4 {
		t.Fatalf("unique jobs = %d, want 4 (seed 0 shared)", len(exp.Jobs))
	}
	if len(exp.Arms[0].JobIDs) != 1 || len(exp.Arms[1].JobIDs) != 4 {
		t.Fatalf("arm plans wrong: %+v", exp.Arms)
	}
	if exp.Arms[0].JobIDs[0] != exp.Arms[1].JobIDs[0] {
		t.Fatalf("shared point has two identities: %s vs %s", exp.Arms[0].JobIDs[0], exp.Arms[1].JobIDs[0])
	}
}

// TestExpandDeterministic: two expansions of the same manifest are
// identical, job order included.
func TestExpandDeterministic(t *testing.T) {
	e1, err := gridManifest().Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := gridManifest().Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1.ManifestID != e2.ManifestID || len(e1.Jobs) != len(e2.Jobs) {
		t.Fatal("expansion not deterministic")
	}
	for i := range e1.Jobs {
		if e1.Jobs[i].ID != e2.Jobs[i].ID || e1.Jobs[i].Name != e2.Jobs[i].Name {
			t.Fatalf("job %d differs: %+v vs %+v", i, e1.Jobs[i], e2.Jobs[i])
		}
	}
}

// TestExpandDoesNotMutateBase: axis application patches copies; pointer
// fields in the base spec (constants, attack) must stay untouched.
func TestExpandDoesNotMutateBase(t *testing.T) {
	base := quickBase()
	base.Constants = &spec.Constants{C2: 4, Eps: 0.25}
	base.Attack = &spec.Attack{Name: "silent"}
	m := Manifest{Base: base, Arms: []Arm{{
		Name: "sweep",
		Axes: []Axis{
			{Param: "constants.c2", Floats: []float64{6, 8}},
			{Param: "attack.clusters", Ints: []int{1, 2}},
			{Param: "attack.name", Strings: []string{"spam", "none"}},
		},
	}}}
	if _, err := m.Expand(nil); err != nil {
		t.Fatal(err)
	}
	if base.Constants.C2 != 4 || base.Attack.Name != "silent" || base.Attack.Clusters != 0 {
		t.Fatalf("expansion mutated the base spec: %+v %+v", base.Constants, base.Attack)
	}
}

// TestExpandAttackNone: the "none" attack value clears the attack.
func TestExpandAttackNone(t *testing.T) {
	base := quickBase()
	base.Attack = &spec.Attack{Name: "silent"}
	m := Manifest{Base: base, Arms: []Arm{{
		Name: "a",
		Axes: []Axis{{Param: "attack.name", Strings: []string{"none", "spam"}}},
	}}}
	exp, err := m.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	var cleared, spam bool
	for _, j := range exp.Jobs {
		if j.Request.Spec.Attack == nil {
			cleared = true
		} else if j.Request.Spec.Attack.Name == "spam" {
			spam = true
		}
	}
	if !cleared || !spam {
		t.Fatalf("attack.name axis wrong: cleared=%v spam=%v", cleared, spam)
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
		want string
	}{
		{"no arms", Manifest{Base: quickBase()}, "no arms"},
		{"dup arm", Manifest{Base: quickBase(), Arms: []Arm{{Name: "a"}, {Name: "a"}}}, "duplicate arm"},
		{"unnamed arm", Manifest{Base: quickBase(), Arms: []Arm{{}}}, "no name"},
		{"unknown after", Manifest{Base: quickBase(), Arms: []Arm{{Name: "a", After: []string{"ghost"}}}}, "unknown arm"},
		{"self after", Manifest{Base: quickBase(), Arms: []Arm{{Name: "a", After: []string{"a"}}}}, "waits on itself"},
		{"cycle", Manifest{Base: quickBase(), Arms: []Arm{
			{Name: "a", After: []string{"b"}}, {Name: "b", After: []string{"a"}},
		}}, "cycle"},
		{"unknown param", Manifest{Base: quickBase(), Arms: []Arm{{
			Name: "a", Axes: []Axis{{Param: "warp.factor", Ints: []int{9}}},
		}}}, "unknown param"},
		{"wrong value kind", Manifest{Base: quickBase(), Arms: []Arm{{
			Name: "a", Axes: []Axis{{Param: "clusters.k", Strings: []string{"four"}}},
		}}}, "takes ints"},
		{"two value lists", Manifest{Base: quickBase(), Arms: []Arm{{
			Name: "a", Axes: []Axis{{Param: "clusters.k", Ints: []int{4}, Floats: []float64{1}}},
		}}}, "exactly one"},
		{"duplicate value", Manifest{Base: quickBase(), Arms: []Arm{{
			Name: "a", Axes: []Axis{{Param: "clusters.k", Ints: []int{4, 4}}},
		}}}, "duplicate value"},
		{"zero seeds", Manifest{Base: quickBase(), Arms: []Arm{{
			Name: "a", Seeds: &Seeds{From: 0, Count: -1},
		}}}, "seeds.count"},
		{"bad version", Manifest{Version: 99, Base: quickBase(), Arms: []Arm{{Name: "a"}}}, "unsupported version"},
		{"invalid spec", Manifest{Base: quickBase(), Arms: []Arm{{
			Name: "a", Axes: []Axis{{Param: "topology.name", Strings: []string{"möbius"}}},
		}}}, "möbius"},
		// A point the model cannot build (ε outside (0, 1/2)) fails the
		// expansion, naming the arm and the job.
		{"unbuildable point", Manifest{Base: quickBase(), Arms: []Arm{{
			Name: "a", Axes: []Axis{{Param: "constants.eps", Floats: []float64{0.25, 0.7}}},
		}}}, `arm "a", job "a/constants.eps=0.7": ftgcs: params: invalid input: eps=0.7 must be in (0, 1/2)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.m.Expand(nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
}

func TestExpandBudget(t *testing.T) {
	sizes := make([]int, 0, 40)
	for i := 0; i < 40; i++ {
		sizes = append(sizes, i+2)
	}
	m := Manifest{Base: quickBase(), Arms: []Arm{{
		Name:  "huge",
		Axes:  []Axis{{Param: "topology.size", Ints: sizes}},
		Seeds: &Seeds{From: 0, Count: 20},
	}}}
	_, err := m.Expand(nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d", MaxJobs)) {
		t.Fatalf("oversize expansion not rejected: %v", err)
	}
}

// TestParamsTableComplete: every table entry has the applier matching
// its declared kind, and Params lists them all.
func TestParamsTableComplete(t *testing.T) {
	names := Params()
	if len(names) != len(paramTable) {
		t.Fatalf("Params() lists %d of %d", len(names), len(paramTable))
	}
	for name, p := range paramTable {
		switch p.kind {
		case kindInt:
			if p.applyI == nil {
				t.Errorf("param %q: kindInt without applyI", name)
			}
		case kindFloat:
			if p.applyF == nil {
				t.Errorf("param %q: kindFloat without applyF", name)
			}
		case kindString:
			if p.applyS == nil {
				t.Errorf("param %q: kindString without applyS", name)
			}
		}
	}
}
