package core

import (
	"math"
	"testing"

	"ftgcs/internal/byzantine"
	"ftgcs/internal/graph"
	"ftgcs/internal/params"
)

func testParams(t testing.TB) params.Params {
	t.Helper()
	p, err := params.Derive(params.PresetConfig(params.Practical, 1e-3, 1e-3, 1e-4))
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	p := testParams(t)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil base", Config{K: 4, F: 1, Params: p}},
		{"bad K", Config{Base: graph.Line(2), K: 0, Params: p}},
		{"K too small for F", Config{Base: graph.Line(2), K: 3, F: 1, Params: p}},
		{"underived params", Config{Base: graph.Line(2), K: 4, F: 1}},
		{"fault out of range", Config{Base: graph.Line(2), K: 4, F: 1, Params: p,
			Faults: []FaultSpec{{Node: 99, Strategy: byzantine.Silent{}}}}},
		{"duplicate fault", Config{Base: graph.Line(2), K: 4, F: 1, Params: p,
			Faults: []FaultSpec{{Node: 0, Strategy: byzantine.Silent{}}, {Node: 0, CrashAt: 1}}}},
	}
	for _, tc := range tests {
		if _, err := NewSystem(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestFaultFreeLineMeetsAllBounds(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(4), K: 4, F: 1, Params: p, Seed: 1,
		Drift: GradientDrift{},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Run(60 * p.T); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sum := sys.Summarize(5 * p.T)
	if sum.MaxIntraSkew > p.ClusterSkewBound() {
		t.Errorf("intra skew %v > bound %v", sum.MaxIntraSkew, p.ClusterSkewBound())
	}
	d := sys.Aug().Base.Diameter()
	if sum.MaxLocalNode > p.NodeLocalSkewBound(d) {
		t.Errorf("local node skew %v > bound %v", sum.MaxLocalNode, p.NodeLocalSkewBound(d))
	}
	if sum.MaxGlobal > p.GlobalSkewBound(d) {
		t.Errorf("global skew %v > bound %v", sum.MaxGlobal, p.GlobalSkewBound(d))
	}
	if sum.Events == 0 {
		t.Error("no events processed")
	}
}

func TestByzantineLineMeetsBounds(t *testing.T) {
	p := testParams(t)
	// One Byzantine per cluster (f=1, k=4), mixed strategies.
	base := graph.Line(3)
	faults := []FaultSpec{
		{Node: 0, Strategy: byzantine.TwoFaced{}},
		{Node: 5, Strategy: byzantine.Oscillate{}},
		{Node: 9, Strategy: byzantine.Spam{}},
	}
	sys, err := NewSystem(Config{
		Base: base, K: 4, F: 1, Params: p, Seed: 2,
		Drift:  SpreadDrift{},
		Faults: faults,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Run(60 * p.T); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sum := sys.Summarize(5 * p.T)
	if sum.MaxIntraSkew > p.ClusterSkewBound() {
		t.Errorf("intra skew %v > bound %v under attack", sum.MaxIntraSkew, p.ClusterSkewBound())
	}
	d := base.Diameter()
	if sum.MaxLocalNode > p.NodeLocalSkewBound(d) {
		t.Errorf("local skew %v > bound %v under attack", sum.MaxLocalNode, p.NodeLocalSkewBound(d))
	}
}

func TestCrashFault(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(2), K: 4, F: 1, Params: p, Seed: 3,
		Faults: []FaultSpec{{Node: 2, CrashAt: 10 * p.T}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(40 * p.T); err != nil {
		t.Fatal(err)
	}
	sum := sys.Summarize(2 * p.T)
	if sum.MaxIntraSkew > p.ClusterSkewBound() {
		t.Errorf("intra skew %v > bound %v with mid-run crash", sum.MaxIntraSkew, p.ClusterSkewBound())
	}
	// The crashed node is excluded from metrics but its instance ran.
	if !sys.nodes[2].faulty {
		t.Error("node 2 should be marked faulty")
	}
	if sys.InstanceStats(2).Rounds == 0 {
		t.Error("crashing node should have run rounds before its crash")
	}
}

func TestOffSpecClockFault(t *testing.T) {
	p := testParams(t)
	// Node 1 runs the correct algorithm on a 5ρ-fast clock (out of spec).
	sys, err := NewSystem(Config{
		Base: graph.Line(2), K: 4, F: 1, Params: p, Seed: 4,
		Faults: []FaultSpec{{Node: 1, OffSpecRate: 1 + 5*p.Rho}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(50 * p.T); err != nil {
		t.Fatal(err)
	}
	sum := sys.Summarize(5 * p.T)
	if sum.MaxIntraSkew > p.ClusterSkewBound() {
		t.Errorf("correct nodes' skew %v > bound %v despite off-spec member", sum.MaxIntraSkew, p.ClusterSkewBound())
	}
}

func TestEstimatesTrackClusterClocks(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(3), K: 4, F: 1, Params: p, Seed: 5,
		Drift: SpreadDrift{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * p.T); err != nil {
		t.Fatal(err)
	}
	// Corollary 3.5: every correct node's estimate of a neighbor cluster
	// is within E of that cluster's clock (E/2 from the cluster clock
	// plus E/2 definition slack; we allow E).
	aug := sys.Aug()
	checked := 0
	for v := 0; v < aug.Net.N(); v++ {
		if sys.nodes[v].faulty {
			continue
		}
		c := aug.ClusterOf(v)
		for _, b := range aug.NeighborClusters(c) {
			est := sys.Estimate(v, b)
			truth := sys.ClusterClock(b)
			if math.IsNaN(est) || math.IsNaN(truth) {
				t.Fatalf("node %d cluster %d: NaN estimate/truth", v, b)
			}
			if diff := math.Abs(est - truth); diff > p.EG {
				t.Errorf("node %d estimate of cluster %d off by %v > E=%v", v, b, diff, p.EG)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no estimates checked")
	}
}

func TestGlobalSkewMachinery(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(4), K: 4, F: 1, Params: p, Seed: 6,
		Drift:            GradientDrift{},
		EnableGlobalSkew: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(50 * p.T); err != nil {
		t.Fatal(err)
	}
	sum := sys.Summarize(10 * p.T)
	if sum.MaxEstViolations > 0 {
		t.Errorf("%v samples had M_v > L_max (must never happen)", sum.MaxEstViolations)
	}
	// Lemma C.2: M_v within O(δD) of L_max.
	d := sys.Aug().Base.Diameter()
	bound := p.GlobalSkewBound(d)
	if sum.MaxMaxEstLag > bound {
		t.Errorf("max-estimate lag %v > O(δD) = %v", sum.MaxMaxEstLag, bound)
	}
	// Estimator lag should also be finite and positive-ish.
	if math.IsInf(sum.MaxMaxEstLag, -1) {
		t.Error("no max-estimate samples recorded")
	}
	if sys.nodes[0].maxEst == nil {
		t.Error("max estimator should be wired")
	}
}

func TestModeOverride(t *testing.T) {
	p := testParams(t)
	force := func(v graph.NodeID, c graph.ClusterID, r int) (int, bool) {
		if c == 0 {
			return 1, true // cluster 0 always fast
		}
		return 0, true // others always slow
	}
	sys, err := NewSystem(Config{
		Base: graph.Line(2), K: 4, F: 0, Params: p, Seed: 7,
		ModeOverride: force,
		TrackRounds:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * p.T); err != nil {
		t.Fatal(err)
	}
	// Cluster 0 should now lead cluster 1 (fast mode ⇒ higher rate).
	c0, c1 := sys.ClusterClock(0), sys.ClusterClock(1)
	if c0 <= c1 {
		t.Errorf("forced-fast cluster clock %v should lead forced-slow %v", c0, c1)
	}
	// Round traces recorded: every round but possibly the last has pulsed.
	times, values, pulses := sys.RoundTrace(0)
	if len(times) < 20 || len(values) != len(times) || len(pulses) != len(times) {
		t.Fatalf("round trace lengths: %d %d %d", len(times), len(values), len(pulses))
	}
	for r, pt := range pulses[:len(pulses)-1] {
		if !(pt > times[r]) || (r+1 < len(times) && !(pt < times[r+1])) {
			t.Errorf("round %d pulse at %v outside its round [%v, next start)", r+1, pt, times[r])
		}
	}
}

func TestPulseDiametersRecorded(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(2), K: 4, F: 1, Params: p, Seed: 9,
		Drift:       SpreadDrift{},
		TrackRounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(20 * p.T); err != nil {
		t.Fatal(err)
	}
	diams := sys.PulseDiameters(0)
	if len(diams) < 15 {
		t.Fatalf("only %d rounds of pulse diameters", len(diams))
	}
	// Pulse diameters are read from the round traces: none without them.
	untracked, err := NewSystem(Config{Base: graph.Line(2), K: 4, F: 1, Params: p, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := untracked.Run(5 * p.T); err != nil {
		t.Fatal(err)
	}
	if d := untracked.PulseDiameters(0); len(d) != 0 {
		t.Errorf("untracked run has %d pulse diameters, want none", len(d))
	}
	for r, dm := range diams {
		if dm > p.EG {
			t.Errorf("round %d: ‖p‖ = %v > E = %v", r, dm, p.EG)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := testParams(t)
	run := func() Summary {
		sys, err := NewSystem(Config{
			Base: graph.Ring(3), K: 4, F: 1, Params: p, Seed: 42,
			Drift:  RandomWalkDrift{},
			Faults: []FaultSpec{{Node: 1, Strategy: byzantine.Spam{}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(20 * p.T); err != nil {
			t.Fatal(err)
		}
		return sys.Summarize(0)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestDriftModels(t *testing.T) {
	p := testParams(t)
	models := []DriftModel{SpreadDrift{}, GradientDrift{}, HalvesDrift{},
		AlternatingHalvesDrift{}, RandomWalkDrift{}, SineDrift{}, NoDrift{}}
	for _, m := range models {
		sys, err := NewSystem(Config{
			Base: graph.Line(2), K: 4, F: 0, Params: p, Seed: 10,
			Drift: m,
		})
		if err != nil {
			t.Fatalf("drift %T: %v", m, err)
		}
		if err := sys.Run(10 * p.T); err != nil {
			t.Fatalf("drift %T run: %v", m, err)
		}
		if sum := sys.Summarize(0); sum.MaxIntraSkew > p.ClusterSkewBound() {
			t.Errorf("drift %T: intra skew %v > bound %v", m, sum.MaxIntraSkew, p.ClusterSkewBound())
		}
	}
}

func TestDelayModels(t *testing.T) {
	p := testParams(t)
	models := []DelayModel{
		UniformDelayModel{},
		ExtremalDelayModel{},
		FixedMidDelayModel{},
		PhasedRevealDelayModel{SwitchAt: 5 * p.T},
	}
	for _, m := range models {
		sys, err := NewSystem(Config{
			Base: graph.Line(2), K: 4, F: 0, Params: p, Seed: 11,
			Delay: m,
		})
		if err != nil {
			t.Fatalf("delay %T: %v", m, err)
		}
		if err := sys.Run(15 * p.T); err != nil {
			t.Fatalf("delay %T run: %v", m, err)
		}
		if sum := sys.Summarize(0); sum.MaxIntraSkew > p.ClusterSkewBound() {
			t.Errorf("delay %T: intra skew %v > bound", m, sum.MaxIntraSkew)
		}
	}
}

func TestPlainGCSViaK1(t *testing.T) {
	// K=1, F=0 degenerates to the non-fault-tolerant GCS of [13]: no
	// intra-cluster machinery, triggers straight on per-node estimates.
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(5), K: 1, F: 0, Params: p, Seed: 12,
		Drift: GradientDrift{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(40 * p.T); err != nil {
		t.Fatal(err)
	}
	sum := sys.Summarize(5 * p.T)
	d := sys.Aug().Base.Diameter()
	if sum.MaxLocalNode > p.NodeLocalSkewBound(d) {
		t.Errorf("plain GCS local skew %v > bound %v (fault-free)", sum.MaxLocalNode, p.NodeLocalSkewBound(d))
	}
}

func TestStartTwiceFails(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{Base: graph.Line(2), K: 1, F: 0, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err == nil {
		t.Error("second Start should fail")
	}
}

func BenchmarkLineD4Round(b *testing.B) {
	p, err := params.Derive(params.PresetConfig(params.Practical, 1e-3, 1e-3, 1e-4))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Base: graph.Line(4), K: 4, F: 1, Params: p, Seed: 1,
		Drift: GradientDrift{},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Run(float64(i+1) * p.T); err != nil {
			b.Fatal(err)
		}
	}
}
