package transport

import (
	"testing"

	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
)

// TestBroadcastZeroAllocSteadyState pins the transport half of the
// zero-allocation hot path: once the engine pool is warm, a broadcast plus
// the delivery of every resulting pulse allocates nothing — the pulse
// identity rides inside the pooled event instead of a per-send closure.
func TestBroadcastZeroAllocSteadyState(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := sim.NewEngine()
	g := graph.New(4, "clique4")
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	net := NewNetwork(eng, g, FixedDelay{D: 1e-3, U: 1e-4, Frac: 0.5})
	delivered := 0
	for v := 0; v < 4; v++ {
		net.OnPulse(v, func(at float64, p Pulse) { delivered++ })
	}
	// Built once, as core builds its per-node loopback closures: the func
	// value travels as event data.
	loop := func(float64) { delivered++ }

	send := func() {
		if err := net.Broadcast(eng.Now(), 0, PulseClock); err != nil {
			t.Fatal(err)
		}
		if err := net.LoopbackFunc(eng.Now(), 0, loop); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm pool and delay scratch
	avg := testing.AllocsPerRun(100, send)
	if avg != 0 {
		t.Errorf("steady-state broadcast+deliver allocates %.2f per pulse, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no pulses delivered")
	}
}

// TestBroadcastAtomicOnBadDelay checks the partial-broadcast fix: when the
// delay model produces an out-of-bounds sample for some neighbor, no
// delivery at all is scheduled (previously neighbors sampled before the bad
// one still received the pulse).
func TestBroadcastAtomicOnBadDelay(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.New(3, "line3")
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	// Valid delay to node 1, out-of-bounds delay to node 2.
	bad := FuncDelay{D: 1e-3, U: 1e-4, Fn: func(from, to graph.NodeID, tt float64) float64 {
		if to == 2 {
			return 5e-3 // > d: must be rejected
		}
		return 1e-3
	}}
	net := NewNetwork(eng, g, bad)
	delivered := 0
	for v := 0; v < 3; v++ {
		net.OnPulse(v, func(at float64, p Pulse) { delivered++ })
	}
	if err := net.Broadcast(0, 0, PulseClock); err == nil {
		t.Fatal("broadcast with an out-of-bounds delay must fail")
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("failed broadcast left %d deliveries scheduled, want 0", got)
	}
	if err := eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("failed broadcast delivered %d pulses, want 0 (no half-sent pulse)", delivered)
	}
	if s := net.Stats(); s.Sends != 0 {
		t.Errorf("failed broadcast counted %d sends, want 0", s.Sends)
	}
}
