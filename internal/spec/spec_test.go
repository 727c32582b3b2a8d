package spec

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ftgcs"
)

// randomSpec draws a structurally valid spec from the default registry's
// vocabulary. Only deterministic topology families are used so sizes stay
// cheap to validate.
func randomSpec(rng *rand.Rand) ScenarioSpec {
	reg := ftgcs.DefaultRegistry
	topos := []string{"line", "ring", "grid", "clique", "star"}
	drifts := reg.DriftNames()
	delays := reg.DelayNames()
	attacks := reg.AttackNames()

	s := ScenarioSpec{
		Topology: Topology{Name: topos[rng.Intn(len(topos))], Size: 1 + rng.Intn(4)},
		Seed:     rng.Int63n(1000),
	}
	if rng.Intn(2) == 0 {
		s.Name = "random spec"
	}
	if rng.Intn(2) == 0 {
		s.Clusters = Clusters{K: 4, F: 1}
	}
	if rng.Intn(2) == 0 {
		s.Physical = Physical{Rho: 3e-3, Delay: 1e-3, Uncertainty: 1e-4}
	}
	if rng.Intn(3) == 0 {
		s.Preset = "paper-strict"
		s.Physical = Physical{Rho: 1e-6, Delay: 1e-3, Uncertainty: 1e-4}
	}
	if rng.Intn(2) == 0 {
		s.Constants = &Constants{C2: 4, Eps: 0.25}
	}
	if rng.Intn(2) == 0 {
		s.Drift = drifts[rng.Intn(len(drifts))]
	}
	if rng.Intn(2) == 0 {
		s.Delay = delays[rng.Intn(len(delays))]
	}
	if rng.Intn(3) == 0 {
		s.Attack = &Attack{Name: attacks[rng.Intn(len(attacks))], Clusters: rng.Intn(3)}
	}
	if rng.Intn(3) == 0 {
		k := s.Clusters.K
		if k == 0 {
			k = 4
		}
		for i := rng.Intn(3); i >= 0; i-- {
			s.Faults = append(s.Faults, Fault{Node: rng.Intn(s.Topology.Size * k), Attack: attacks[rng.Intn(len(attacks))]})
		}
	}
	if rng.Intn(2) == 0 {
		off := false
		s.GlobalSkew = &off
	}
	if rng.Intn(2) == 0 {
		s.SampleInterval = float64(1+rng.Intn(10)) / 100
	}
	switch rng.Intn(3) {
	case 0:
		s.Horizon = Horizon{Seconds: float64(1 + rng.Intn(60))}
	case 1:
		s.Horizon = Horizon{Rounds: float64(10 + rng.Intn(100))}
	}
	if rng.Intn(3) == 0 {
		s.Track = Track{Rounds: rng.Intn(2) == 0, Clusters: rng.Intn(2) == 0}
	}
	return s
}

// TestRoundTripProperty: Decode(Encode(spec)) is the identity on
// normalized specs, and the content hash survives the round trip.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		s := randomSpec(rng)
		n := s.Normalize()

		var buf bytes.Buffer
		if err := n.Encode(&buf); err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		// Canonical encoding strips the display name.
		want := n
		want.Name = ""
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("iter %d: round trip changed spec:\n got %+v\nwant %+v", i, back, want)
		}

		h1, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("iter %d: hash changed across round trip: %s vs %s", i, h1, h2)
		}
		if !strings.HasPrefix(h1, "sha256:") || len(h1) != len("sha256:")+64 {
			t.Fatalf("iter %d: malformed hash %q", i, h1)
		}
	}
}

// TestNormalizeIdempotent: Normalize(Normalize(s)) == Normalize(s).
func TestNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		n := randomSpec(rng).Normalize()
		if again := n.Normalize(); !reflect.DeepEqual(again, n) {
			t.Fatalf("iter %d: Normalize not idempotent:\n got %+v\nwant %+v", i, again, n)
		}
	}
}

// FuzzParseRoundTrip: any JSON that parses must re-encode/decode to the
// same normalized spec.
func FuzzParseRoundTrip(f *testing.F) {
	f.Add([]byte(`{"topology":{"name":"line","size":3},"seed":1,"horizon":{"seconds":10}}`))
	f.Add([]byte(`{"version":1,"topology":{"name":"ring","size":4},"clusters":{"k":4,"f":1},"attack":{"name":"silent"}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		c, err := s.Canonical()
		if err != nil {
			t.Skip() // e.g. non-UTF8 names; json.Marshal coerces or errors
		}
		back, err := Parse(c)
		if err != nil {
			t.Fatalf("canonical bytes failed to parse: %v\n%s", err, c)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c, c2) {
			t.Fatalf("canonical encoding not a fixed point:\n%s\n%s", c, c2)
		}
	})
}

// TestHashStability: the content hash is independent of JSON key order,
// omitted defaults, whitespace and the display name.
func TestHashStability(t *testing.T) {
	a := `{
		"topology": {"name": "torus", "size": 3},
		"clusters": {"k": 4, "f": 1},
		"seed": 7,
		"drift": "sine",
		"horizon": {"seconds": 30},
		"faults": [{"node": 1, "attack": "silent"}, {"node": 0, "attack": "random"}]
	}`
	// Same experiment: keys reordered, defaults spelled out, different
	// whitespace, a display name, fault list permuted.
	b := `{"name":"torus demo","version":1,"seed":7,
		"faults":[{"attack":"random","node":0},{"attack":"silent","node":1}],
		"horizon":{"seconds":30},"preset":"practical","delay":"uniform",
		"drift":"sine","globalSkew":true,
		"physical":{"rho":0.001,"delay":0.001,"uncertainty":0.0001},
		"clusters":{"f":1,"k":4},"topology":{"size":3,"name":"torus"}}`
	sa, err := Parse([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Parse([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	ha, err := sa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := sb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equivalent specs hash differently:\n%s\n%s", ha, hb)
	}

	// A semantic change must change the hash.
	sc := sa
	sc.Seed = 8
	hc, err := sc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("different seeds produced the same content hash")
	}
}

// TestValidateUnknownNames: unknown registry names fail Validate with the
// registry's own "unknown name" error, which lists what is available.
func TestValidateUnknownNames(t *testing.T) {
	base := ScenarioSpec{Topology: Topology{Name: "line", Size: 3}}
	cases := []struct {
		mutate func(*ScenarioSpec)
		want   string
	}{
		{func(s *ScenarioSpec) { s.Topology.Name = "moebius" }, `unknown topology "moebius"`},
		{func(s *ScenarioSpec) { s.Drift = "quadratic" }, `unknown drift model "quadratic"`},
		{func(s *ScenarioSpec) { s.Delay = "wormhole" }, `unknown delay model "wormhole"`},
		{func(s *ScenarioSpec) { s.Attack = &Attack{Name: "nope"} }, `unknown attack "nope"`},
		{func(s *ScenarioSpec) { s.Faults = []Fault{{Node: 0, Attack: "nope"}} }, `unknown attack "nope"`},
		{func(s *ScenarioSpec) { s.Preset = "imaginary" }, `unknown preset "imaginary"`},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		err := s.Validate(nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
		}
		if err != nil && c.want != `unknown preset "imaginary"` && !strings.Contains(err.Error(), "have:") {
			t.Errorf("registry error should list available names, got %v", err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	ok := ScenarioSpec{Topology: Topology{Name: "line", Size: 3}}
	if err := ok.Validate(nil); err != nil {
		t.Fatalf("minimal spec should validate, got %v", err)
	}
	cases := []struct {
		mutate func(*ScenarioSpec)
		want   string
	}{
		{func(s *ScenarioSpec) { s.Version = 99 }, "unsupported version"},
		{func(s *ScenarioSpec) { s.Topology.Name = "" }, "missing topology"},
		{func(s *ScenarioSpec) { s.Topology.Size = -1 }, "must be ≥ 1"},
		{func(s *ScenarioSpec) { s.Clusters = Clusters{K: 4, F: 2} }, "3f+1"},
		{func(s *ScenarioSpec) { s.Physical = Physical{Rho: -1, Delay: 1e-3, Uncertainty: 1e-4} }, "positive"},
		{func(s *ScenarioSpec) { s.Physical = Physical{Rho: 1e-3, Delay: 1e-4, Uncertainty: 1e-3} }, "exceeds delay"},
		{func(s *ScenarioSpec) { s.Faults = []Fault{{Node: 99, Attack: "silent"}} }, "outside"},
		{func(s *ScenarioSpec) { s.Faults = []Fault{{Node: 0}} }, "no behavior"},
		{func(s *ScenarioSpec) { s.Horizon = Horizon{Seconds: 10, Rounds: 10} }, "both"},
		{func(s *ScenarioSpec) { s.SampleInterval = -1 }, "negative sampleInterval"},
		// Resource bounds: remote clients must not be able to request
		// arbitrarily large graphs or unbounded horizons.
		{func(s *ScenarioSpec) { s.Topology.Size = MaxTopologySize + 1 }, "exceeds limit"},
		{func(s *ScenarioSpec) { s.Clusters = Clusters{K: MaxClusterSize + 1, F: 0} }, "exceeds limit"},
		// The cluster budget applies to the resolved graph, not the raw
		// size parameter: tree's size is a depth, hypercube's a
		// dimension, grid/torus's a side length.
		{func(s *ScenarioSpec) { s.Topology = Topology{Name: "tree", Size: 50} }, "exceeds limit"},
		{func(s *ScenarioSpec) { s.Topology = Topology{Name: "hypercube", Size: 40} }, "exceeds limit"},
		{func(s *ScenarioSpec) { s.Topology = Topology{Name: "grid", Size: 2048} }, "exceeds limit"},
		{func(s *ScenarioSpec) { s.Topology = Topology{Name: "torus", Size: 64} }, "exceeds limit"},
		{
			func(s *ScenarioSpec) {
				s.Topology = Topology{Name: "line", Size: 2048}
				s.Clusters = Clusters{K: 1024, F: 0}
			},
			"simulated nodes",
		},
		{func(s *ScenarioSpec) { s.Horizon = Horizon{Seconds: MaxHorizonSeconds * 2} }, "exceeds limit"},
		{func(s *ScenarioSpec) { s.Horizon = Horizon{Rounds: MaxHorizonRounds * 2} }, "exceeds limit"},
	}
	for _, c := range cases {
		s := ok
		c.mutate(&s)
		if err := s.Validate(nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
		}
	}
}

// TestValidateBoundsResolvedGraph: the cluster budget is enforced before
// an exponential builder runs (if validation built tree(50) first, this
// test would exhaust memory on its 2^51-cluster graph), and custom
// families without a size estimate are still bounded after building.
func TestValidateBoundsResolvedGraph(t *testing.T) {
	s := ScenarioSpec{Topology: Topology{Name: "tree", Size: 50}}
	if err := s.Validate(nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("tree depth 50 must fail validation, got %v", err)
	}

	reg := ftgcs.NewRegistry()
	reg.RegisterTopology("wide", func(size int, _ int64) (*ftgcs.Topology, error) {
		return ftgcs.Line(3 * size), nil
	})
	w := ScenarioSpec{Topology: Topology{Name: "wide", Size: 1000}}
	if err := w.Validate(reg); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("custom family resolving to 3000 clusters must fail validation, got %v", err)
	}

	// An alias of a super-linear family inherits its size estimator, so
	// the pre-build guard fires without ever invoking the builder.
	built := false
	reg.RegisterTopology("deep", func(size int, _ int64) (*ftgcs.Topology, error) {
		built = true
		return ftgcs.Line(1), nil
	})
	reg.RegisterTopologySize("deep", func(size int) int {
		if size >= 30 {
			return 1 << 30
		}
		return 1 << size
	})
	reg.RegisterAlias("d", "deep")
	a := ScenarioSpec{Topology: Topology{Name: "d", Size: 50}}
	if err := a.Validate(reg); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("aliased exponential family must fail the pre-build check, got %v", err)
	}
	if built {
		t.Fatal("builder must not run when the size estimate rejects the spec")
	}

	// A custom registry's own "tree" is NOT judged by the built-in tree's
	// depth semantics: estimators belong to the registry, not the name.
	lin := ftgcs.NewRegistry()
	lin.RegisterTopology("tree", func(size int, _ int64) (*ftgcs.Topology, error) {
		return ftgcs.Line(size), nil
	})
	lin.RegisterDrift("spread", func() ftgcs.DriftModel { return ftgcs.SpreadDrift{} })
	lin.RegisterDelay("uniform", func() ftgcs.DelayModel { return ftgcs.UniformDelayModel{} })
	s3 := ScenarioSpec{Topology: Topology{Name: "tree", Size: 100}}
	if err := s3.Validate(lin); err != nil {
		t.Fatalf("linear custom \"tree\" at size 100 must validate, got %v", err)
	}
}

// TestValidIffBuilds is the validation contract: Validate accepts a spec
// exactly when its compiled scenario builds. Random specs run unmutated
// (randomSpec can already draw two faults on one node) and under each
// mutation below, every one a class of spec the model cannot build; a
// mutated spec must be rejected by Validate itself, not by a later build.
func TestValidIffBuilds(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*ScenarioSpec)
	}{
		{"none", nil},
		{"eps outside (0, 1/2)", func(s *ScenarioSpec) { s.Constants = &Constants{Eps: 0.7} }},
		{"c2 infeasible", func(s *ScenarioSpec) { s.Constants = &Constants{C2: 1e6} }},
		{"c2 negative", func(s *ScenarioSpec) { s.Constants = &Constants{C2: -1} }},
		{"rho infeasible", func(s *ScenarioSpec) { s.Physical.Rho = 0.2 }},
		{"two faults on one node", func(s *ScenarioSpec) {
			s.Faults = append(s.Faults, Fault{Node: 0, Attack: "silent"}, Fault{Node: 0, CrashAt: 1})
		}},
		{"attack plant on a faulty node", func(s *ScenarioSpec) {
			// Cluster 0's plant is its last member, node k−1.
			s.Attack = &Attack{Name: "silent"}
			s.Faults = append(s.Faults, Fault{Node: s.Normalize().Clusters.K - 1, CrashAt: 1})
		}},
	}
	rng := rand.New(rand.NewSource(30))
	valid := 0
	for i := 0; i < 700; i++ {
		s := randomSpec(rng)
		m := mutations[i%len(mutations)]
		if m.mutate != nil {
			m.mutate(&s)
		}
		verr := s.Validate(nil)
		sc, berr := s.Compile(nil)
		if berr == nil {
			_, berr = sc.Build()
		}
		if (verr == nil) != (berr == nil) {
			t.Fatalf("iter %d (%s): Validate = %v but Compile+Build = %v\nspec %+v", i, m.name, verr, berr, s)
		}
		if m.mutate != nil && verr == nil {
			t.Fatalf("iter %d (%s): unbuildable spec validated\nspec %+v", i, m.name, s)
		}
		if verr == nil {
			valid++
		}
	}
	if valid < 60 {
		t.Fatalf("only %d valid specs drawn; the contract is barely exercised", valid)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"topology":{"name":"line","size":3},"horizn":{"seconds":5}}`))
	if err == nil || !strings.Contains(err.Error(), "horizn") {
		t.Fatalf("typo fields must be rejected, got %v", err)
	}
}

// TestCompileMatchesBuilder: a compiled spec must produce the same report
// as the equivalent hand-built scenario.
func TestCompileMatchesBuilder(t *testing.T) {
	s := ScenarioSpec{
		Topology: Topology{Name: "line", Size: 3},
		Clusters: Clusters{K: 4, F: 1},
		Physical: Physical{Rho: 1e-3, Delay: 1e-3, Uncertainty: 1e-4},
		Seed:     1,
		Drift:    "sine",
		Attack:   &Attack{Name: "silent", Clusters: 1},
		Horizon:  Horizon{Seconds: 8},
	}
	sc, err := s.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}

	strat, err := ftgcs.AttackByName("silent")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ftgcs.NewScenario(
		ftgcs.WithTopology(ftgcs.Line(3)),
		ftgcs.WithClusters(4, 1),
		ftgcs.WithPhysical(1e-3, 1e-3, 1e-4),
		ftgcs.WithSeed(1),
		ftgcs.WithDriftName("sine"),
		ftgcs.WithAttackPerCluster(func() ftgcs.Attack { return strat }, 1),
		ftgcs.WithHorizon(8),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("compiled spec diverged from builder:\n got %+v\nwant %+v", got, want)
	}
}

// TestCompileDeterministic: compiling and running the same spec twice
// yields identical reports — the property the job cache exploits.
func TestCompileDeterministic(t *testing.T) {
	s := ScenarioSpec{
		Topology: Topology{Name: "random", Size: 4},
		Seed:     42,
		Horizon:  Horizon{Seconds: 5},
	}
	run := func() ftgcs.Report {
		sc, err := s.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same spec produced different reports:\n%+v\n%+v", a, b)
	}
}
