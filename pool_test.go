package ftgcs

import (
	"reflect"
	"testing"

	"ftgcs/internal/graph"
)

// How each Scenario field relates to the build key.
const (
	// fieldKey changes the key: some row of the table below proves it.
	fieldKey = "key"
	// fieldNonKey never reaches the built structure (or, like the seed, is
	// what Reset replaces).
	fieldNonKey = "non-key"
	// fieldDisqualifier, when set, makes the scenario not poolable.
	fieldDisqualifier = "disqualifier"
)

// scenarioFields classifies every field of Scenario, those of the embedded
// buildScalars included. A new field must be listed here — and so be
// thought about in Scenario.buildKey — before the suite passes again.
var scenarioFields = map[string]string{
	"name":     fieldNonKey,
	"topology": fieldKey,
	// Set only by WithTopologyName, which unpins topology.
	"topoName":          fieldDisqualifier,
	"topoSize":          fieldDisqualifier,
	"k":                 fieldKey,
	"f":                 fieldKey,
	"rho":               fieldKey,
	"maxDelay":          fieldKey,
	"uncertainty":       fieldKey,
	"preset":            fieldKey,
	"c2":                fieldKey,
	"eps":               fieldKey,
	"derived":           fieldKey,
	"seed":              fieldNonKey,
	"seedSet":           fieldNonKey,
	"driftModel":        fieldKey,
	"delayModel":        fieldKey,
	"faults":            fieldKey,
	"perClusterAttack":  fieldKey,
	"perClusterCount":   fieldKey,
	"disableGlobalSkew": fieldKey,
	"sampleInterval":    fieldKey,
	"horizon":           fieldKey,
	"horizonRounds":     fieldKey,
	"staggerStart":      fieldKey,
	"trackRounds":       fieldKey,
	"modeOverride":      fieldDisqualifier,
	"observe":           fieldNonKey,
	"hooks":             fieldDisqualifier,
	"err":               fieldDisqualifier,
}

// sliceDrift is a drift model of non-comparable type.
type sliceDrift struct {
	SpreadDrift
	weights []float64
}

// ptrAttack is a pointer-typed attack: two instances are different build
// inputs however equal their contents.
type ptrAttack struct{ bias float64 }

func (*ptrAttack) Name() string                                { return "ptr" }
func (*ptrAttack) Install(AttackContext) (PulseHandler, error) { return nil, nil }

// sliceAttack is an attack of non-comparable type.
type sliceAttack struct{ victims []NodeID }

func (sliceAttack) Name() string                                { return "slice" }
func (sliceAttack) Install(AttackContext) (PulseHandler, error) { return nil, nil }

// TestScenarioBuildKey pins the one statement of "same structure": every
// Scenario field is classified, and every classification is proven by a
// row — a key field changes the key, a non-key field does not, a
// disqualifier makes the scenario not poolable.
func TestScenarioBuildKey(t *testing.T) {
	leaves := 0
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				walk(f.Type)
				continue
			}
			leaves++
			if _, ok := scenarioFields[f.Name]; !ok {
				t.Errorf("%s.%s is not classified as key, non-key or disqualifier", typ.Name(), f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Scenario{}))
	if len(scenarioFields) > leaves {
		t.Errorf("scenarioFields lists %d fields, Scenario has %d", len(scenarioFields), leaves)
	}

	topo := Line(3)
	base := func(opts ...Option) *Scenario {
		return NewScenario(
			WithTopology(topo),
			WithClusters(4, 1),
			WithDriftName("gradient"),
			WithDelayName("uniform"),
			WithHorizon(2),
			WithSeed(1),
		).With(opts...)
	}
	reordered := graph.New(3, topo.Name()) // node 1 lists 2 before 0
	for _, e := range [][2]int{{1, 2}, {0, 1}} {
		if err := reordered.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	mutated := Line(3)
	if mutated.Digest() != topo.Digest() {
		t.Fatal("equal graphs must share a digest")
	}
	if err := mutated.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	derived, err := DeriveParams(0, 1e-3, 1e-3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	silent := func(n int) Option { return WithAttackPerCluster(func() Attack { return Silent() }, n) }
	attacker := &ptrAttack{}

	rows := []struct {
		name   string
		fields []string  // the Scenario fields this row proves
		sc     *Scenario // compared against from (nil: base())
		from   *Scenario
		want   string
	}{
		{"identical", nil, base(), nil, fieldNonKey},
		{"seed", []string{"seed", "seedSet"}, base(WithSeed(2)), nil, fieldNonKey},
		{"name", []string{"name"}, base(WithName("other")), nil, fieldNonKey},
		{"observer", []string{"observe"}, base(WithObserver(func(*System) (any, error) { return nil, nil })), nil, fieldNonKey},
		// An independently constructed equal graph shares the key.
		{"topology-pointer", nil, base(WithTopology(Line(3))), nil, fieldNonKey},
		{"per-cluster-closure", nil, base(silent(2)), base(silent(2)), fieldNonKey},
		{"attack-same-pointer", nil, base(WithAttack(attacker, 3)), base(WithAttack(attacker, 3)), fieldNonKey},

		{"topology", []string{"topology"}, base(WithTopology(Line(4))), nil, fieldKey},
		{"topology-adjacency-order", nil, base(WithTopology(reordered)), nil, fieldKey},
		{"topology-mutated", nil, base(WithTopology(mutated)), nil, fieldKey},
		{"clusters", []string{"k"}, base(WithClusters(5, 1)), nil, fieldKey},
		{"fault-budget", []string{"f"}, base(WithClusters(4, 0)), nil, fieldKey},
		{"rho", []string{"rho"}, base(WithPhysical(2e-3, 1e-3, 1e-4)), nil, fieldKey},
		{"max-delay", []string{"maxDelay"}, base(WithPhysical(1e-3, 2e-3, 1e-4)), nil, fieldKey},
		{"uncertainty", []string{"uncertainty"}, base(WithPhysical(1e-3, 1e-3, 2e-4)), nil, fieldKey},
		{"c2", []string{"c2"}, base(WithConstants(5, 0)), nil, fieldKey},
		{"eps", []string{"eps"}, base(WithConstants(0, 0.25)), nil, fieldKey},
		{"preset", []string{"preset"}, base(WithPreset(PresetPaperStrict)), nil, fieldKey},
		{"derived", []string{"derived"}, base(WithDerivedParams(derived)), nil, fieldKey},
		{"drift", []string{"driftModel"}, base(WithDriftName("sine")), nil, fieldKey},
		{"drift-parameter", nil, base(WithDrift(SineDrift{Period: 1})), base(WithDrift(SineDrift{Period: 2})), fieldKey},
		{"delay", []string{"delayModel"}, base(WithDelayName("extremal")), nil, fieldKey},
		{"faults", []string{"faults"}, base(WithFaults(FaultSpec{Node: 1, CrashAt: 1})), nil, fieldKey},
		{"attack", nil, base(WithAttackName("silent", 3)), nil, fieldKey},
		{"attack-node", nil, base(WithAttackName("silent", 3)), base(WithAttackName("silent", 7)), fieldKey},
		// Identity, not contents.
		{"attack-other-pointer", nil, base(WithAttack(&ptrAttack{}, 3)), base(WithAttack(attacker, 3)), fieldKey},
		{"per-cluster-attack", []string{"perClusterAttack"}, base(silent(2)), nil, fieldKey},
		{"per-cluster-count", []string{"perClusterCount"}, base(silent(3)), base(silent(2)), fieldKey},
		{"globalskew", []string{"disableGlobalSkew"}, base(WithGlobalSkew(false)), nil, fieldKey},
		{"sample-interval", []string{"sampleInterval"}, base(WithSampleInterval(0.01)), nil, fieldKey},
		{"horizon", []string{"horizon"}, base(WithHorizon(3)), nil, fieldKey},
		{"horizon-rounds", []string{"horizonRounds"}, base(WithHorizonRounds(10)), base(WithHorizonRounds(20)), fieldKey},
		{"stagger", []string{"staggerStart"}, base(WithStaggerStart(0.01)), nil, fieldKey},
		{"track-rounds", []string{"trackRounds"}, base(WithRoundTracking()), nil, fieldKey},

		{"topology-name", []string{"topoName", "topoSize"}, base(WithTopologyName("line", 3)), nil, fieldDisqualifier},
		{"mode-override", []string{"modeOverride"}, base(WithModeOverride(func(NodeID, ClusterID, int) (int, bool) { return 0, false })), nil, fieldDisqualifier},
		{"hook", []string{"hooks"}, base(WithMidRunHook(1, func(*System) error { return nil })), nil, fieldDisqualifier},
		{"option-error", []string{"err"}, base(WithDriftName("nope")), nil, fieldDisqualifier},
		{"non-comparable-drift", nil, base(WithDrift(sliceDrift{})), nil, fieldDisqualifier},
		{"non-comparable-attack", nil, base(WithAttack(sliceAttack{}, 3)), nil, fieldDisqualifier},
	}
	proven := map[string]bool{}
	for _, row := range rows {
		from := row.from
		if from == nil {
			from = base()
		}
		key, ref := row.sc.buildKey(), from.buildKey()
		if !ref.poolable {
			t.Fatalf("%s: reference scenario is not poolable", row.name)
		}
		var got string
		switch {
		case key == buildKey{}:
			got = fieldDisqualifier
		case key == ref:
			got = fieldNonKey
		default:
			got = fieldKey
		}
		if got != row.want {
			t.Errorf("%s: behaves as %s, want %s", row.name, got, row.want)
		}
		for _, f := range row.fields {
			if scenarioFields[f] != row.want {
				t.Errorf("%s: proves %s is %s, classified %q", row.name, f, row.want, scenarioFields[f])
			}
			proven[f] = true
		}
	}
	for f, class := range scenarioFields {
		if !proven[f] {
			t.Errorf("no row proves Scenario.%s is %s", f, class)
		}
	}
}

// TestPoolMutatedTopology is the stale-reuse regression: a pinned topology
// mutated after its system was pooled is a different build input, so the
// pool must not serve the system built from the old graph.
func TestPoolMutatedTopology(t *testing.T) {
	topo := Line(3)
	sc := NewScenario(WithTopology(topo), WithClusters(4, 1), WithHorizon(2), WithSeed(1))
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSystemPool(2)
	pool.Release(sc, sys)
	if err := topo.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if pool.Acquire(sc) != nil {
		t.Fatal("Acquire served a system built before the topology changed")
	}
	pooled := Sweep{Workers: 1, Pool: pool}.Run([]*Scenario{sc})
	fresh := Sweep{Workers: 1, NoReuse: true}.Run([]*Scenario{sc})
	if pooled[0].Err != nil || !reflect.DeepEqual(pooled, fresh) {
		t.Fatalf("pooled sweep of the mutated scenario differs from a fresh build:\npooled: %+v\nfresh:  %+v", pooled, fresh)
	}
}
