package byzantine

import (
	"testing"

	"ftgcs/internal/graph"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
	"ftgcs/internal/transport"
)

func testCtx(t testing.TB) (Ctx, *[]transport.Pulse) {
	t.Helper()
	p, err := params.Derive(params.PresetConfig(params.Practical, 1e-3, 1e-3, 1e-4))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	g := graph.Clique(5)
	net := transport.NewNetwork(eng, g, transport.UniformDelay{D: p.Delay, U: p.Uncertainty, Rng: sim.NewRNG(1, 0)})
	var received []transport.Pulse
	for v := 1; v < 5; v++ {
		net.OnPulse(v, func(at float64, pu transport.Pulse) {
			received = append(received, pu)
		})
	}
	return Ctx{
		Eng:       eng,
		Net:       net,
		Self:      0,
		Params:    p,
		Rng:       sim.NewRNG(7, 0),
		Neighbors: []graph.NodeID{1, 2, 3, 4},
	}, &received
}

func TestSilent(t *testing.T) {
	ctx, received := testCtx(t)
	if _, err := (Silent{}).Install(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Eng.Run(10 * ctx.Params.T); err != nil {
		t.Fatal(err)
	}
	if len(*received) != 0 {
		t.Errorf("silent node sent %d pulses", len(*received))
	}
}

func TestSpamSendsToSubsets(t *testing.T) {
	ctx, received := testCtx(t)
	if _, err := (Spam{}).Install(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Eng.Run(10 * ctx.Params.T); err != nil {
		t.Fatal(err)
	}
	// ~50 bursts × 4 neighbors × 0.7 ≈ 140 pulses.
	if len(*received) < 50 {
		t.Errorf("spam sent only %d pulses", len(*received))
	}
	for _, pu := range *received {
		if pu.From != 0 || pu.Kind != transport.PulseClock {
			t.Fatalf("unexpected pulse %+v", pu)
		}
	}
}

func TestTwoFacedSplitsTiming(t *testing.T) {
	ctx, _ := testCtx(t)
	p := ctx.Params
	// Track arrival times per receiver parity.
	evenTimes := map[int][]float64{}
	oddTimes := map[int][]float64{}
	for v := 1; v < 5; v++ {
		v := v
		ctx.Net.OnPulse(v, func(at float64, pu transport.Pulse) {
			if v%2 == 0 {
				evenTimes[v] = append(evenTimes[v], at)
			} else {
				oddTimes[v] = append(oddTimes[v], at)
			}
		})
	}
	off := 5 * p.EG
	if _, err := (TwoFaced{Offset: off}).Install(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Eng.Run(5 * p.T); err != nil {
		t.Fatal(err)
	}
	if len(evenTimes[2]) < 3 || len(oddTimes[1]) < 3 {
		t.Fatalf("missing pulses: even=%d odd=%d", len(evenTimes[2]), len(oddTimes[1]))
	}
	// Round 2 pulse (index 1): even receivers should hear it ≈ 2·off
	// earlier than odd receivers.
	gap := oddTimes[1][1] - evenTimes[2][1]
	if gap < off {
		t.Errorf("equivocation gap %v, want ≥ %v", gap, off)
	}
}

func TestOscillateAlternates(t *testing.T) {
	ctx, _ := testCtx(t)
	p := ctx.Params
	var times []float64
	ctx.Net.OnPulse(1, func(at float64, pu transport.Pulse) {
		times = append(times, at)
	})
	amp := 4 * p.EG
	if _, err := (Oscillate{Amplitude: amp}).Install(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Eng.Run(6 * p.T); err != nil {
		t.Fatal(err)
	}
	if len(times) < 5 {
		t.Fatalf("only %d pulses", len(times))
	}
	// Gaps should alternate around T by ±2·amp.
	shorter, longer := 0, 0
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < p.T-amp {
			shorter++
		}
		if gap > p.T+amp {
			longer++
		}
	}
	if shorter == 0 || longer == 0 {
		t.Errorf("expected alternating gaps, got shorter=%d longer=%d", shorter, longer)
	}
}

func TestLieDirection(t *testing.T) {
	p, err := params.Derive(params.PresetConfig(params.Practical, 1e-3, 1e-3, 1e-4))
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Strategy) []float64 {
		eng := sim.NewEngine()
		g := graph.Clique(2)
		net := transport.NewNetwork(eng, g, transport.FixedDelay{D: p.Delay, U: p.Uncertainty, Frac: 0.5})
		var times []float64
		net.OnPulse(1, func(at float64, pu transport.Pulse) { times = append(times, at) })
		if _, err := s.Install(Ctx{Eng: eng, Net: net, Self: 0, Params: p,
			Rng: sim.NewRNG(1, 0), Neighbors: []graph.NodeID{1}}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(4 * p.T); err != nil {
			t.Fatal(err)
		}
		return times
	}
	early := run(Lie{Early: true})
	late := run(Lie{})
	if len(early) < 3 || len(late) < 3 {
		t.Fatalf("pulses: early=%d late=%d", len(early), len(late))
	}
	// Same round index: lie-early arrives before lie-late.
	if early[1] >= late[1] {
		t.Errorf("lie-early %v should precede lie-late %v", early[1], late[1])
	}
}

func TestMaxSpamFloods(t *testing.T) {
	ctx, received := testCtx(t)
	if _, err := (MaxSpam{}).Install(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Eng.Run(1.0); err != nil {
		t.Fatal(err)
	}
	maxPulses := 0
	for _, pu := range *received {
		if pu.Kind == transport.PulseMax {
			maxPulses++
		}
	}
	// 10/(d−U) per second × 4 neighbors ≈ 44k/s; even a fraction suffices.
	if maxPulses < 1000 {
		t.Errorf("max-spam sent only %d PulseMax", maxPulses)
	}
}

func TestAdaptiveTwoFacedTracksVictims(t *testing.T) {
	ctx, _ := testCtx(t)
	p := ctx.Params
	var toEven, toOdd []float64
	ctx.Net.OnPulse(2, func(at float64, pu transport.Pulse) { toEven = append(toEven, at) })
	ctx.Net.OnPulse(1, func(at float64, pu transport.Pulse) { toOdd = append(toOdd, at) })
	off := p.Phi * p.Tau3 / 2
	handler, err := (AdaptiveTwoFaced{Offset: off}).Install(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if handler == nil {
		t.Fatal("adaptive strategy must return a pulse handler")
	}
	// Feed victim pulses: nodes 1 and 2 "pulse" at the same instants; the
	// adversary must reply one round later, shifted by ∓off.
	for r := 0; r < 4; r++ {
		at := float64(r)*p.T + p.Tau1
		ctx.Eng.MustSchedule(at, "victim-pulse", func(e *sim.Engine) {
			handler(e.Now(), transport.Pulse{From: 1, Kind: transport.PulseClock})
			handler(e.Now(), transport.Pulse{From: 2, Kind: transport.PulseClock})
		})
	}
	if err := ctx.Eng.Run(6 * p.T); err != nil {
		t.Fatal(err)
	}
	if len(toEven) < 3 || len(toOdd) < 3 {
		t.Fatalf("replies: even=%d odd=%d", len(toEven), len(toOdd))
	}
	// Victims are split by ID parity: node 2 (even) gets the "ahead" lie
	// (early pulses), node 1 (odd) the "behind" lie (late), so the reply
	// to node 1 trails the reply to node 2 by ≈ 2·off.
	gap := toOdd[0] - toEven[0]
	if gap < off || gap > 3*off {
		t.Errorf("equivocation gap %v, want ≈ 2·off = %v", gap, 2*off)
	}
}

func TestAllHaveDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.Name()] {
			t.Errorf("duplicate strategy name %q", s.Name())
		}
		seen[s.Name()] = true
	}
	if len(seen) < 7 {
		t.Errorf("only %d strategies", len(seen))
	}
}

func TestStrategiesInstallDeterministically(t *testing.T) {
	for _, s := range All() {
		run := func() int {
			ctx, received := testCtx(t)
			if _, err := s.Install(ctx); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if err := ctx.Eng.Run(3 * ctx.Params.T); err != nil {
				t.Fatal(err)
			}
			return len(*received)
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: nondeterministic pulse counts %d vs %d", s.Name(), a, b)
		}
	}
}

// TestRoundSendsAllocFree: once installed, the schedule-anchored attackers
// send their round pulses without allocating — the per-neighbor (TwoFaced)
// or per-round (Oscillate, Lie) sends ride as pooled event data, not as
// closures. The benchmark's two-faced attacker allocated one closure per
// neighbor per round before. Under -race the rounds still run, unchecked.
func TestRoundSendsAllocFree(t *testing.T) {
	for _, s := range []Strategy{TwoFaced{}, Oscillate{}, Lie{Early: true}} {
		ctx, received := testCtx(t)
		for v := 1; v < 5; v++ {
			ctx.Net.OnPulse(v, func(float64, transport.Pulse) { *received = (*received)[:0] })
		}
		if _, err := s.Install(ctx); err != nil {
			t.Fatal(err)
		}
		p := ctx.Params
		until := 2 * p.T // warm the engine's event pool
		if err := ctx.Eng.Run(until); err != nil {
			t.Fatal(err)
		}
		sent := ctx.Net.Stats().Sends
		avg := testing.AllocsPerRun(20, func() {
			until += p.T
			if err := ctx.Eng.Run(until); err != nil {
				t.Fatal(err)
			}
		})
		if ctx.Net.Stats().Sends == sent {
			t.Fatalf("%s: no pulse sent in the measured rounds", s.Name())
		}
		if !sim.RaceEnabled && avg != 0 {
			t.Errorf("%s: a round of sends allocates %.1f, want 0", s.Name(), avg)
		}
	}
}

// TestAdaptiveRepliesAllocFree: the adaptive attacker's per-victim replies
// ride as pooled event data too, so once every victim has been heard from
// a round of replies allocates nothing. It scheduled one closure per
// victim pulse before.
func TestAdaptiveRepliesAllocFree(t *testing.T) {
	ctx, received := testCtx(t)
	for v := 1; v < 5; v++ {
		ctx.Net.OnPulse(v, func(float64, transport.Pulse) { *received = (*received)[:0] })
	}
	handler, err := (AdaptiveTwoFaced{}).Install(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := ctx.Params
	// Victims 1 and 2 pulse once per round.
	var pulse func(*sim.Engine)
	pulse = func(e *sim.Engine) {
		handler(e.Now(), transport.Pulse{From: 1, Kind: transport.PulseClock})
		handler(e.Now(), transport.Pulse{From: 2, Kind: transport.PulseClock})
		e.MustSchedule(e.Now()+p.T, "victim-pulse", pulse)
	}
	ctx.Eng.MustSchedule(p.Tau1, "victim-pulse", pulse)
	until := 3 * p.T // warm the engine's event pool and the victim table
	if err := ctx.Eng.Run(until); err != nil {
		t.Fatal(err)
	}
	sent := ctx.Net.Stats().Sends
	avg := testing.AllocsPerRun(20, func() {
		until += p.T
		if err := ctx.Eng.Run(until); err != nil {
			t.Fatal(err)
		}
	})
	if ctx.Net.Stats().Sends == sent {
		t.Fatal("no reply sent in the measured rounds")
	}
	if !sim.RaceEnabled && avg != 0 {
		t.Errorf("a round of replies allocates %.1f, want 0", avg)
	}
}
