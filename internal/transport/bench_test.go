package transport

import (
	"testing"

	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
)

// BenchmarkBroadcastDeliver measures a full broadcast over a k=7 clique
// plus the delivery of all resulting pulses — the dominant event pattern of
// every ClusterSync round. Expected steady state: 0 allocs/op.
func BenchmarkBroadcastDeliver(b *testing.B) {
	eng := sim.NewEngine()
	const k = 7
	g := graph.New(k, "clique")
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			if err := g.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	rng := sim.NewRNG(1, 1)
	net := NewNetwork(eng, g, UniformDelay{D: 1e-3, U: 1e-4, Rng: rng})
	delivered := 0
	for v := 0; v < k; v++ {
		net.OnPulse(v, func(at float64, p Pulse) { delivered++ })
	}
	// Built once, as core builds its per-node loopback closures: the func
	// value travels as event data.
	loop := func(float64) { delivered++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Broadcast(eng.Now(), 0, PulseClock); err != nil {
			b.Fatal(err)
		}
		if err := net.LoopbackFunc(eng.Now(), 0, loop); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(eng.Now() + 1); err != nil {
			b.Fatal(err)
		}
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}
