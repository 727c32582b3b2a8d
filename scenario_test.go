package ftgcs

import (
	"math"
	"strings"
	"testing"
)

// TestScenarioZeroPresetMeansPractical pins the satellite fix: the zero
// Preset resolves to Practical in one place, for both Build and
// DeriveParams.
func TestScenarioZeroPresetMeansPractical(t *testing.T) {
	pZero, err := DeriveParams(0, 1e-4, 1e-3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	pPractical, err := DeriveParams(PresetPractical, 1e-4, 1e-3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if pZero != pPractical {
		t.Errorf("zero preset != practical:\n%+v\n%+v", pZero, pPractical)
	}
}

// TestScenarioOptionErrors checks name-resolution failures and missing
// topology surface at Build, not as panics.
func TestScenarioOptionErrors(t *testing.T) {
	cases := map[string]*Scenario{
		"no topology":  NewScenario(),
		"bad drift":    NewScenario(WithTopology(Line(2)), WithDriftName("nope")),
		"bad delay":    NewScenario(WithTopology(Line(2)), WithDelayName("nope")),
		"bad attack":   NewScenario(WithTopology(Line(2)), WithAttackName("nope", 0)),
		"bad topology": NewScenario(WithTopologyName("nope", 4)),
		"bad geometry": NewScenario(WithTopology(Line(2)), WithClusters(2, 1)),
	}
	for name, sc := range cases {
		if _, err := sc.Build(); err == nil {
			t.Errorf("%s: Build should fail", name)
		}
		if _, err := sc.Run(); err == nil {
			t.Errorf("%s: Run should fail", name)
		}
	}
	// A hook that would never fire must fail the run (it builds fine but
	// would otherwise silently skip the injection).
	late := NewScenario(WithTopology(Line(2)), WithHorizon(1),
		WithMidRunHook(2, func(*System) error { return nil }))
	if _, err := late.Run(); err == nil {
		t.Error("hook beyond horizon: Run should fail")
	}
}

// TestBuildRefusesMidRunHooks: System.Run knows nothing of a scenario's
// mid-run hooks, so Build refuses a hooked scenario and names the two
// runners that fire them; both still run it.
func TestBuildRefusesMidRunHooks(t *testing.T) {
	fired := 0
	sc := NewScenario(WithTopology(Line(2)), WithHorizon(1),
		WithMidRunHook(0.5, func(*System) error { fired++; return nil }))
	_, err := sc.Build()
	if err == nil {
		t.Fatal("Build accepted a scenario with a mid-run hook")
	}
	for _, want := range []string{"Scenario.Run", "Sweep"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Build error %q does not name %s", err, want)
		}
	}
	if _, err := sc.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := RunSweep(sc); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if fired != 2 {
		t.Errorf("hook fired %d times over Run and Sweep, want 2", fired)
	}
}

// TestScenarioWithVariants checks With() copies don't share fault slices
// with their base.
func TestScenarioWithVariants(t *testing.T) {
	base := NewScenario(WithTopology(Line(2)), WithAttackName("silent", 0))
	a := base.With(WithAttackName("spam", 1))
	b := base.With(WithAttackName("two-faced", 5))
	if len(base.faults) != 1 || len(a.faults) != 2 || len(b.faults) != 2 {
		t.Errorf("fault slices shared: base=%d a=%d b=%d", len(base.faults), len(a.faults), len(b.faults))
	}
	if a.faults[1].Node != 1 || b.faults[1].Node != 5 {
		t.Errorf("variant faults mixed up: %+v %+v", a.faults, b.faults)
	}
}

// TestScenarioRunWithHooksAndObserver exercises the mid-run hook and
// observer paths end to end.
func TestScenarioRunWithHooksAndObserver(t *testing.T) {
	var hookTime float64
	var observed any
	rep, err := NewScenario(
		WithTopology(Line(2)),
		WithClusters(4, 1),
		WithSeed(3),
		WithHorizon(2),
		WithMidRunHook(1.0, func(sys *System) error {
			hookTime = sys.Now()
			return sys.InjectClockFault(0, 1e-6)
		}),
		WithObserver(func(sys *System) (any, error) {
			observed = sys.Summary(0).MaxLocalNode
			return observed, nil
		}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if hookTime != 1.0 {
		t.Errorf("hook ran at %v, want 1.0", hookTime)
	}
	if rep.Horizon != 2 {
		t.Errorf("horizon %v, want 2", rep.Horizon)
	}
	v, ok := observed.(float64)
	if !ok || math.IsNaN(v) || v <= 0 {
		t.Errorf("observer value %v (injected fault should leave nonzero skew)", observed)
	}
}

// TestScenarioHorizonRounds checks WithHorizonRounds scales with the
// derived round length.
func TestScenarioHorizonRounds(t *testing.T) {
	sc := NewScenario(WithTopology(Line(2)), WithHorizonRounds(50))
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := 50 * sys.Params().T
	if got := sc.Horizon(sys.Params()); got != want {
		t.Errorf("Horizon = %v, want %v", got, want)
	}
	if got := NewScenario(WithTopology(Line(2))).Horizon(sys.Params()); got != DefaultHorizon {
		t.Errorf("default horizon = %v, want %v", got, DefaultHorizon)
	}
}
