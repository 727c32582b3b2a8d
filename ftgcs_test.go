package ftgcs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func quickScenario(opts ...Option) *Scenario {
	return NewScenario(
		WithTopology(Line(3)),
		WithClusters(4, 1),
		WithPhysical(1e-3, 1e-3, 1e-4),
		WithSeed(1),
	).With(opts...)
}

func TestNewValidation(t *testing.T) {
	if _, err := quickScenario(WithTopology(nil)).Build(); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := quickScenario(WithClusters(2, 1)).Build(); err == nil {
		t.Error("k < 3f+1 accepted")
	}
	if _, err := quickScenario(WithPhysical(0, 1e-3, 1e-4)).Build(); err == nil {
		t.Error("zero drift accepted")
	}
	// infeasible at ρ=1e-3
	if _, err := quickScenario(WithPreset(PresetPaperStrict)).Build(); err == nil {
		t.Error("infeasible preset accepted")
	}
}

func TestEndToEndReport(t *testing.T) {
	sys, err := quickScenario().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := sys.Params()
	if err := sys.Run(50 * p.T); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := sys.Report()
	if !r.AllWithinBounds() {
		t.Errorf("bounds violated:\n%s", r)
	}
	if r.Events == 0 || r.Horizon <= 0 {
		t.Errorf("empty report: %+v", r)
	}
	if !strings.Contains(r.String(), "ok") {
		t.Errorf("report rendering: %s", r)
	}
	if sys.Nodes() != 12 || sys.Clusters() != 3 || sys.Diameter() != 2 {
		t.Errorf("topology accessors: %d %d %d", sys.Nodes(), sys.Clusters(), sys.Diameter())
	}
}

func TestByzantineEndToEnd(t *testing.T) {
	sys, err := quickScenario(
		WithFaults(
			FaultSpec{Node: 3, Strategy: AdaptiveTwoFaced()},
			FaultSpec{Node: 7, Strategy: Silent()},
			FaultSpec{Node: 11, Strategy: Spam()},
		),
		WithDrift(SpreadDrift{}),
	).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(50 * sys.Params().T); err != nil {
		t.Fatal(err)
	}
	if r := sys.Report(); !r.AllWithinBounds() {
		t.Errorf("bounds violated under attack:\n%s", r)
	}
}

func TestClockAccessors(t *testing.T) {
	sys, err := quickScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(10 * sys.Params().T); err != nil {
		t.Fatal(err)
	}
	now := sys.Now()
	if now <= 0 {
		t.Fatalf("Now = %v", now)
	}
	l := sys.Logical(0)
	if l <= 0 || math.Abs(l-now) > 0.1*now {
		t.Errorf("Logical(0) = %v at t=%v", l, now)
	}
	cc := sys.ClusterClock(1)
	if math.IsNaN(cc) || cc <= 0 {
		t.Errorf("ClusterClock = %v", cc)
	}
	est := sys.Estimate(0, 1) // node 0 (cluster 0) observes cluster 1
	if math.IsNaN(est) {
		t.Error("Estimate(0,1) should exist")
	}
	if !math.IsNaN(sys.Estimate(0, 2)) {
		t.Error("Estimate(0,2) should be NaN (not adjacent)")
	}
	if sys.Series(SeriesGlobal) == nil {
		t.Error("global skew series missing")
	}
}

// TestSteppingAtSamplerInstantsIsInvisible pins what a caller reading
// cluster clocks mid-run relies on (experiment E10 does): stepping a run
// to each of the sampler's own instants — the accumulated sums of T/2 —
// and reading every ClusterClock there leaves the run bit-identical.
// A clock read re-anchors the clock, so a read off that grid may move a
// result by an ulp; on it, the sampler has already anchored every clock.
func TestSteppingAtSamplerInstantsIsInvisible(t *testing.T) {
	sc := NewScenario(
		WithTopology(Line(4)),
		WithClusters(4, 1),
		WithDriftName("sine"),
		WithAttackName("two-faced", 1),
		WithSeed(3),
		WithHorizon(2),
	)
	run := func(step bool) (Report, []byte) {
		sys, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		horizon := sc.Horizon(sys.Params())
		if step {
			half := sys.Params().T / 2
			for at := half; at <= horizon; at += half {
				if err := sys.Run(at); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < sys.Clusters(); c++ {
					sys.ClusterClock(c)
				}
			}
		}
		if err := sys.Run(horizon); err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := sys.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return sys.Report(), csv.Bytes()
	}
	straight, straightCSV := run(false)
	stepped, steppedCSV := run(true)
	if stepped != straight { // Events included
		t.Errorf("stepped run reports\n%+v\nstraight run\n%+v", stepped, straight)
	}
	if !bytes.Equal(steppedCSV, straightCSV) {
		t.Error("stepped run recorded different series")
	}
}

func TestTopologyConstructors(t *testing.T) {
	tests := []struct {
		name string
		g    *Topology
		n, d int
	}{
		{"line", Line(5), 5, 4},
		{"ring", Ring(6), 6, 3},
		{"grid", Grid(3, 3), 9, 4},
		{"torus", Torus(3, 3), 9, 2},
		{"tree", Tree(2, 2), 7, 4},
		{"clique", Clique(5), 5, 1},
		{"star", Star(5), 5, 2},
		{"hypercube", Hypercube(3), 8, 3},
	}
	for _, tc := range tests {
		if tc.g.N() != tc.n {
			t.Errorf("%s: N = %d, want %d", tc.name, tc.g.N(), tc.n)
		}
		if got := tc.g.Diameter(); got != tc.d {
			t.Errorf("%s: D = %d, want %d", tc.name, got, tc.d)
		}
	}
	r := Random(20, 10, 7)
	if r.N() != 20 || r.Diameter() < 0 {
		t.Error("random topology")
	}
}

func TestDeriveParams(t *testing.T) {
	p, err := DeriveParams(PresetPractical, 1e-4, 1e-3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kappa <= 0 || p.T <= 0 {
		t.Errorf("params: %+v", p)
	}
	if _, err := DeriveParams(PresetPaperStrict, 1e-3, 1e-3, 1e-4); err == nil {
		t.Error("infeasible derivation accepted")
	}
}

func TestOverrideConstants(t *testing.T) {
	sys, err := quickScenario(WithConstants(4, 0.25)).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Params().C2; got != 4 {
		t.Errorf("C2 override = %v", got)
	}
}

func TestReportBoundViolationDetected(t *testing.T) {
	r := Report{
		MaxIntraClusterSkew: 2, IntraClusterBound: 1,
		MaxLocalSkew: 0, LocalSkewBound: 1,
		MaxGlobalSkew: 0, GlobalSkewBound: 1,
	}
	if r.AllWithinBounds() {
		t.Error("violation not detected")
	}
	if !strings.Contains(r.String(), "VIOLATED") {
		t.Error("violation not rendered")
	}
}
