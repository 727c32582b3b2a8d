package baseline

import (
	"context"
	"math"
	"testing"

	"ftgcs/internal/core"
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

func TestTreeSyncTracksRoot(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(4), Root: 0, K: 4, F: 1, Params: p, Seed: 1,
		Drift: core.SpreadDrift{},
		Delay: core.UniformDelayModel{},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.RunContext(context.Background(), 40*p.T); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Slaves must be tracking: global skew bounded by ~depth·(stuff) ≪ T.
	glob := sys.Recorder().Series(core.SeriesGlobal).MaxAfter(5 * p.T)
	if glob > p.T/2 {
		t.Errorf("global skew %v suggests slaves are not tracking the root", glob)
	}
	if glob <= 0 {
		t.Errorf("global skew %v suspiciously zero", glob)
	}
	// All slave clusters echoed a sensible number of waves.
	for _, sn := range sys.slaves {
		if sn.round < 30 {
			t.Fatalf("slave %d only echoed %d waves", sn.id, sn.round)
		}
	}
}

func TestTreeSyncConfigValidation(t *testing.T) {
	p := testParams(t)
	if _, err := NewSystem(Config{Base: nil, K: 4, Params: p}); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewSystem(Config{Base: graph.Line(2), K: 3, F: 1, Params: p}); err == nil {
		t.Error("K<3F+1 accepted")
	}
	if _, err := NewSystem(Config{Base: graph.Line(2), K: 4, F: 1}); err == nil {
		t.Error("underived params accepted")
	}
	// A very deep tree must be rejected (wave latency > round).
	if _, err := NewSystem(Config{Base: graph.Line(200), Root: 0, K: 4, F: 1, Params: p}); err == nil {
		t.Error("deep tree accepted despite wave latency")
	}
}

func TestTreeSyncRevealCompressesSkew(t *testing.T) {
	// The E9 mechanism in miniature: under the phased delay-bias reveal,
	// TreeSync's local cluster skew spikes roughly ∝ depth, far above its
	// steady-state value. Use a large delay uncertainty so the ±U/2 bias
	// dominates the drift sawtooth.
	p, err := params.Derive(params.PresetConfig(params.Practical, 1e-3, 1e-3, 5e-4))
	if err != nil {
		t.Fatal(err)
	}
	// Sample much faster than the wave stage time: the compression front
	// exists only while a single wave crosses the line.
	fine := (p.Delay + p.EG) / 2
	steady := func(d int) float64 {
		sys, err := NewSystem(Config{
			Base: graph.Line(d), Root: 0, K: 4, F: 1, Params: p, Seed: 2,
			Delay:          core.ExtremalDelayModel{},
			SampleInterval: fine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunContext(context.Background(), 30*p.T); err != nil {
			t.Fatal(err)
		}
		return sys.Summarize(10 * p.T).MaxLocalCluster
	}
	reveal := func(d int) float64 {
		sys, err := NewSystem(Config{
			Base: graph.Line(d), Root: 0, K: 4, F: 1, Params: p, Seed: 2,
			Delay:          core.PhasedRevealDelayModel{SwitchAt: 15 * p.T},
			SampleInterval: fine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunContext(context.Background(), 30*p.T); err != nil {
			t.Fatal(err)
		}
		return sys.Summarize(10 * p.T).MaxLocalCluster
	}
	d := 8
	s, r := steady(d), reveal(d)
	if r <= s {
		t.Errorf("reveal skew %v should exceed steady skew %v", r, s)
	}
	// The compression scales with depth: D=8 reveal ≫ D=2 reveal.
	r2 := reveal(2)
	if r < 2*r2 {
		t.Errorf("reveal skew should grow with depth: D=8 %v vs D=2 %v", r, r2)
	}
}

func TestTreeSyncDeterminism(t *testing.T) {
	p := testParams(t)
	run := func() float64 {
		sys, err := NewSystem(Config{
			Base: graph.Line(3), Root: 0, K: 4, F: 1, Params: p, Seed: 7,
			Drift: core.RandomWalkDrift{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunContext(context.Background(), 20*p.T); err != nil {
			t.Fatal(err)
		}
		return sys.ClusterClock(2)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("determinism: %v vs %v", a, b)
	}
}

func TestTreeSyncStartTwice(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{Base: graph.Line(2), Root: 0, K: 4, F: 1, Params: p})
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

func TestTreeSyncLogicalAccessors(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{Base: graph.Line(2), Root: 0, K: 4, F: 1, Params: p, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunContext(context.Background(), 10*p.T); err != nil {
		t.Fatal(err)
	}
	if v := sys.Logical(0); v <= 0 || math.IsNaN(v) {
		t.Errorf("root member logical = %v", v)
	}
	if v := sys.Logical(5); v <= 0 || math.IsNaN(v) {
		t.Errorf("slave logical = %v", v)
	}
	if c := sys.ClusterClock(1); c <= 0 || math.IsNaN(c) {
		t.Errorf("cluster clock = %v", c)
	}
}
