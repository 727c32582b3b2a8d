package core

import (
	"math"
	"testing"

	"ftgcs/internal/byzantine"
	"ftgcs/internal/globalskew"
	"ftgcs/internal/graph"
)

// TestTopologyFamilies runs a short fault-free system on each topology
// family and checks the intra-cluster and local bounds.
func TestTopologyFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-topology integration runs")
	}
	p := testParams(t)
	bases := []*graph.Graph{
		graph.Ring(4),
		graph.Grid(3, 2),
		graph.BalancedTree(2, 2),
		graph.Star(4),
		graph.Clique(3),
		graph.Hypercube(2),
	}
	for _, base := range bases {
		base := base
		t.Run(base.Name(), func(t *testing.T) {
			sys, err := NewSystem(Config{
				Base: base, K: 4, F: 1, Params: p, Seed: 21,
				Drift: SpreadDrift{},
			})
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			if err := sys.Run(25 * p.T); err != nil {
				t.Fatalf("Run: %v", err)
			}
			sum := sys.Summarize(5 * p.T)
			if sum.MaxIntraSkew > p.ClusterSkewBound() {
				t.Errorf("intra skew %v > bound %v", sum.MaxIntraSkew, p.ClusterSkewBound())
			}
			d := base.Diameter()
			if sum.MaxLocalNode > p.NodeLocalSkewBound(d) {
				t.Errorf("local skew %v > bound %v", sum.MaxLocalNode, p.NodeLocalSkewBound(d))
			}
		})
	}
}

// TestMaxSpamCannotInflateEstimates attacks the Appendix C machinery
// directly: a PulseMax flooder must not push any correct node's M_v above
// L_max (the f+1-confirmation defense).
func TestMaxSpamCannotInflateEstimates(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(3), K: 4, F: 1, Params: p, Seed: 22,
		Faults:           []FaultSpec{{Node: 5, Strategy: byzantine.MaxSpam{}}},
		EnableGlobalSkew: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * p.T); err != nil {
		t.Fatal(err)
	}
	sum := sys.Summarize(0)
	if sum.MaxEstViolations > 0 {
		t.Errorf("MaxSpam inflated M_v above L_max on %v samples", sum.MaxEstViolations)
	}
	if sum.MaxIntraSkew > p.ClusterSkewBound() {
		t.Errorf("intra skew %v > bound under MaxSpam", sum.MaxIntraSkew)
	}
}

// TestInjectClockFaultHealsWithinMargin verifies the A1 boundary at unit
// scale: a small value corruption heals; a large one leaves the victim
// partitioned (its cluster's pulse-diameter bookkeeping stops covering all
// correct members).
func TestInjectClockFaultHealsWithinMargin(t *testing.T) {
	p := testParams(t)
	run := func(mag float64) (intraTail float64) {
		sys, err := NewSystem(Config{
			Base: graph.Line(2), K: 4, F: 0, Params: p, Seed: 23,
			Drift: NoDrift{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(20 * p.T); err != nil {
			t.Fatal(err)
		}
		if err := sys.InjectClockFault(0, mag); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(80 * p.T); err != nil {
			t.Fatal(err)
		}
		ser := sys.Recorder().Series(SeriesIntraSkew)
		tail := 0.0
		for i, tt := range ser.Times {
			if tt > 70*p.T {
				tail = math.Max(tail, ser.Values[i])
			}
		}
		return tail
	}
	small := run(0.3 * (p.Tau2 - p.Delay))
	if small > p.EG {
		t.Errorf("small corruption did not heal: tail intra skew %v > E %v", small, p.EG)
	}
	large := run(3 * (p.Tau1 + p.Tau2))
	if large < p.Tau1 {
		t.Errorf("large corruption unexpectedly healed: tail %v", large)
	}
	// Injection on a strategy-driven Byzantine node must error.
	sys, err := NewSystem(Config{
		Base: graph.Line(2), K: 4, F: 1, Params: p, Seed: 24,
		Faults: []FaultSpec{{Node: 0, Strategy: byzantine.Silent{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sys.InjectClockFault(0, 1); err == nil {
		t.Error("injecting into a strategy node should fail")
	}
}

// TestStaggeredStartConverges checks that moderate initial desync decays
// to the steady band (the E3 mechanism at unit-test scale).
func TestStaggeredStartConverges(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(1), K: 4, F: 1, Params: p, Seed: 25,
		Drift:        SpreadDrift{},
		StaggerStart: 2 * p.EG,
		TrackRounds:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(60 * p.T); err != nil {
		t.Fatal(err)
	}
	diams := sys.PulseDiameters(0)
	late := 0.0
	count := 0
	for r, v := range diams {
		if r > 40 {
			late = math.Max(late, v)
			count++
		}
	}
	if count == 0 {
		t.Fatal("no late-round pulse data")
	}
	if late > p.EG {
		t.Errorf("pulse diameter %v did not converge below E %v", late, p.EG)
	}
}

// TestCadenceAttackBoundedInCluster: the plain-GCS-killing cadence attack
// must remain harmless inside a properly sized cluster.
func TestCadenceAttackBoundedInCluster(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(2), K: 4, F: 1, Params: p, Seed: 26,
		Faults: []FaultSpec{
			{Node: 3, Strategy: byzantine.CadenceTwoFaced{}},
			{Node: 7, Strategy: byzantine.CadenceTwoFaced{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(50 * p.T); err != nil {
		t.Fatal(err)
	}
	if sum := sys.Summarize(10 * p.T); sum.MaxIntraSkew > p.ClusterSkewBound() {
		t.Errorf("cadence attack broke intra bound: %v > %v", sum.MaxIntraSkew, p.ClusterSkewBound())
	}
}

// TestGCSStatsAccumulate ensures decisions are recorded and the fast
// fraction series is populated.
func TestGCSStatsAccumulate(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(3), K: 4, F: 0, Params: p, Seed: 27,
		Drift: GradientDrift{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * p.T); err != nil {
		t.Fatal(err)
	}
	st := sys.GCSStats(0)
	if st.Decisions < 25 {
		t.Errorf("only %d decisions recorded", st.Decisions)
	}
	ser := sys.Recorder().Series(SeriesFastFraction)
	if ser == nil || ser.Len() == 0 {
		t.Fatal("fast-fraction series missing")
	}
	if ser.Max() > 1 || ser.Min() < 0 {
		t.Errorf("fast fraction out of [0,1]: [%v, %v]", ser.Min(), ser.Max())
	}
}

// maxEstStats returns node v's Appendix C estimator statistics, the zero
// value when v has no estimator.
func maxEstStats(sys *System, v graph.NodeID) globalskew.Stats {
	if sys.nodes[v].maxEst == nil {
		return globalskew.Stats{}
	}
	return sys.nodes[v].maxEst.Stats()
}

// TestMaxEstStatsSurfaced reads the Appendix C estimator's counters off
// the system's nodes: on a two-faced run every correct node hears max
// pulses, none of them from a sender outside its groups (core wires
// exactly the adjacent clusters, and the transport delivers over exactly
// those edges), and a Reset zeroes them.
func TestMaxEstStatsSurfaced(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(4), K: 4, F: 1, Params: p, Seed: 23,
		Faults:           []FaultSpec{{Node: 5, Strategy: byzantine.TwoFaced{}}},
		EnableGlobalSkew: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(10 * p.T); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < sys.Aug().Net.N(); v++ {
		st := maxEstStats(sys, v)
		if sys.nodes[v].faulty {
			if st != (globalskew.Stats{}) {
				t.Errorf("strategy-driven node %d reports estimator stats %+v", v, st)
			}
			continue
		}
		if st.Ignored != 0 || st.PulsesHeard == 0 || st.PulsesSent == 0 {
			t.Errorf("node %d: %+v, want pulses heard and sent, none ignored", v, st)
		}
	}
	if err := sys.Reset(23); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < sys.Aug().Net.N(); v++ {
		if st := maxEstStats(sys, v); st != (globalskew.Stats{}) {
			t.Errorf("node %d after Reset: %+v, want zero", v, st)
		}
	}
}
