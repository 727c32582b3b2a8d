package transport

import (
	"slices"
	"testing"

	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
)

// TestQueueDeliveriesNeverFileFar guards the one link between the delay
// model and the engine's fine time wheel: Reset hands the engine a window
// that covers every legal delay, so no delivery — at the maximum delay d,
// at the minimum d−U, from any send time — is ever filed in the coarse
// wheel or the far heap. A span that stops matching the delay model fails
// here instead of silently sending every pulse the slow way.
func TestQueueDeliveriesNeverFileFar(t *testing.T) {
	const d, u = 1e-3, 4e-4
	for _, frac := range []float64{0, 1} {
		eng := sim.NewEngine()
		g := graph.Clique(4)
		net := NewNetwork(eng, g, FixedDelay{D: d, U: u, Frac: frac})
		delivered := 0
		for v := 0; v < 4; v++ {
			net.OnPulse(v, func(float64, Pulse) { delivered++ })
		}
		loop := func(float64) { delivered++ }
		sent := 0
		var send func(*sim.Engine)
		send = func(e *sim.Engine) {
			from := graph.NodeID(sent % 4)
			if err := net.Broadcast(e.Now(), from, PulseMax); err != nil {
				t.Fatal(err)
			}
			if err := net.LoopbackFunc(e.Now(), from, loop); err != nil {
				t.Fatal(err)
			}
			if sent++; sent < 10000 {
				// Irregular gaps in [0, d): send times fall anywhere
				// inside a bucket, and the sender itself stays in the window.
				e.MustSchedule(e.Now()+d*float64(sent*7919%1000)/1000, "send", send)
			}
		}
		eng.MustSchedule(0, "send", send)
		if err := eng.Run(1e3); err != nil {
			t.Fatal(err)
		}
		if delivered != 4*10000 {
			t.Fatalf("frac %v: delivered %d of %d", frac, delivered, 4*10000)
		}
		st := eng.QueueStats()
		if st.FiledCoarse+st.FiledFar != 0 {
			t.Errorf("frac %v: %d events filed coarse or far, want 0: %+v", frac, st.FiledCoarse+st.FiledFar, st)
		}
		if st.FiledWheel < 4*10000 {
			t.Errorf("frac %v: only %d events filed in the wheel: %+v", frac, st.FiledWheel, st)
		}
	}
}

// TestQueueNetworkOnBusyEngine: a network may be built on an engine that
// already holds events. Setting the span re-files them, they still fire in
// order, and the wheel is on for what follows.
func TestQueueNetworkOnBusyEngine(t *testing.T) {
	eng := sim.NewEngine()
	var got []float64
	for _, at := range []float64{5e-3, 1e-4, 2, 1e-4, 7e-4} {
		eng.MustSchedule(at, "early", func(e *sim.Engine) { got = append(got, e.Now()) })
	}
	net := NewNetwork(eng, graph.Line(2), FixedDelay{D: 1e-3, U: 1e-4})
	if st := eng.QueueStats(); st.Buckets == 0 || eng.Pending() != 5 {
		t.Fatalf("after NewNetwork: %+v, %d pending; want a wheel and 5 pending", st, eng.Pending())
	}
	net.OnPulse(1, func(at float64, p Pulse) { got = append(got, at) })
	before := eng.QueueStats().FiledWheel
	if err := net.Broadcast(0, 0, PulseClock); err != nil {
		t.Fatal(err)
	}
	if eng.QueueStats().FiledWheel != before+1 {
		t.Errorf("the delivery was not filed in the wheel: %+v", eng.QueueStats())
	}
	if err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1e-4, 1e-4, 7e-4, 1e-3, 5e-3, 2}; !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}
