package transport_test

import (
	"testing"

	"ftgcs"
	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
	"ftgcs/internal/transport"
)

// TestPortNamesSenderAtReceiver: on the augmented network of every
// registered topology family (the random one included) at k ∈ {1, 3, 4},
// every pulse a Broadcast or SendTo delivers carries the receiver-side
// port of its edge, Neighbors(to)[Port] == From, and its kind; a SendTo
// over a non-edge is refused.
func TestPortNamesSenderAtReceiver(t *testing.T) {
	for _, name := range ftgcs.DefaultRegistry.TopologyNames() {
		base, err := ftgcs.TopologyByName(name, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 4} {
			aug, err := graph.Augment(base, k)
			if err != nil {
				t.Fatal(err)
			}
			g := aug.Net
			eng := sim.NewEngine()
			net := transport.NewNetwork(eng, g, transport.FixedDelay{D: 1e-3, U: 1e-4})
			delivered := 0
			for to := 0; to < g.N(); to++ {
				nbrs := g.Neighbors(to)
				net.OnPulse(to, func(_ float64, pu transport.Pulse) {
					delivered++
					if pu.Port < 0 || int(pu.Port) >= len(nbrs) || nbrs[pu.Port] != pu.From {
						t.Errorf("%s k=%d: pulse %+v at node %d names the wrong port (neighbors %v)", name, k, pu, to, nbrs)
					}
					if pu.Kind != transport.PulseClock && pu.Kind != transport.PulseMax {
						t.Errorf("%s k=%d: pulse %+v lost its kind", name, k, pu)
					}
				})
			}
			for from := 0; from < g.N(); from++ {
				if err := net.Broadcast(0, from, transport.PulseClock); err != nil {
					t.Fatal(err)
				}
				for _, to := range g.Neighbors(from) {
					if err := net.SendTo(0, from, to, transport.PulseMax); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := eng.Run(1); err != nil {
				t.Fatal(err)
			}
			if want := 4 * g.M(); delivered != want {
				t.Errorf("%s k=%d: %d pulses delivered, want %d", name, k, delivered, want)
			}
			for u := 0; u < g.N(); u++ {
				for w := 0; w < g.N(); w++ {
					if u != w && !g.HasEdge(u, w) {
						if err := net.SendTo(0, u, w, transport.PulseClock); err == nil {
							t.Fatalf("%s k=%d: SendTo over the non-edge %d→%d was accepted", name, k, u, w)
						}
					}
				}
			}
		}
	}
}
