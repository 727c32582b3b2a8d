package transport

import (
	"testing"
	"testing/quick"

	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
)

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.Clique(4)
	net := NewNetwork(eng, g, FixedDelay{D: 1e-3, U: 1e-4, Frac: 0.5})
	got := make(map[graph.NodeID][]Pulse)
	for v := 0; v < 4; v++ {
		v := v
		net.OnPulse(v, func(at float64, p Pulse) {
			got[v] = append(got[v], p)
		})
	}
	if err := net.Broadcast(0, 0, PulseClock); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if err := eng.Run(1); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 4; v++ {
		if len(got[v]) != 1 || got[v][0].From != 0 || got[v][0].Kind != PulseClock {
			t.Errorf("node %d got %v", v, got[v])
		}
	}
	if len(got[0]) != 0 {
		t.Error("broadcast must not self-deliver")
	}
	st := net.Stats()
	if st.Broadcasts != 1 || st.Sends != 3 || st.Delivered != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeliveryTimeWithinBounds(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.Line(2)
	d, u := 1e-3, 4e-4
	net := NewNetwork(eng, g, UniformDelay{D: d, U: u, Rng: sim.NewRNG(1, 0)})
	var times []float64
	net.OnPulse(1, func(at float64, p Pulse) { times = append(times, at) })
	sendAt := 5.0
	eng.MustSchedule(sendAt, "send", func(*sim.Engine) {
		for i := 0; i < 200; i++ {
			if err := net.SendTo(sendAt, 0, 1, PulseClock); err != nil {
				t.Errorf("SendTo: %v", err)
			}
		}
	})
	if err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(times) != 200 {
		t.Fatalf("delivered %d, want 200", len(times))
	}
	for _, at := range times {
		delay := at - sendAt
		if delay < d-u-1e-12 || delay > d+1e-12 {
			t.Fatalf("delay %v outside [%v, %v]", delay, d-u, d)
		}
	}
}

func TestSendToRequiresEdge(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.Line(3) // 0-1-2; no 0-2 edge
	net := NewNetwork(eng, g, FixedDelay{D: 1, U: 0})
	if err := net.SendTo(0, 0, 2, PulseClock); err == nil {
		t.Error("send along non-edge should fail")
	}
}

func TestLoopback(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.Line(2)
	net := NewNetwork(eng, g, FixedDelay{D: 1e-3, U: 0})
	var got []float64
	if err := net.LoopbackFunc(0, 0, func(at float64) { got = append(got, at) }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1e-3 {
		t.Errorf("loopback deliveries at %v, want one at 1e-3", got)
	}
	if st := net.Stats(); st.Loopbacks != 1 || st.Sends != 0 || st.Delivered != 0 {
		t.Errorf("stats %+v, want exactly one loopback and no pulse", st)
	}
}

func TestDelayModelValidation(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.Line(2)
	// A buggy model returning out-of-bounds delays must be caught.
	bad := FuncDelay{D: 1e-3, U: 1e-4, Fn: func(_, _ graph.NodeID, _ float64) float64 { return 5e-3 }}
	net := NewNetwork(eng, g, bad)
	if err := net.SendTo(0, 0, 1, PulseClock); err == nil {
		t.Error("out-of-bounds delay should be rejected")
	}
}

func TestExtremalDelay(t *testing.T) {
	m := ExtremalDelay{D: 1e-3, U: 2e-4}
	if got := m.Sample(0, 1, 0); got != 1e-3 {
		t.Errorf("low→high = %v, want d", got)
	}
	if got := m.Sample(1, 0, 0); got != 8e-4 {
		t.Errorf("high→low = %v, want d−U", got)
	}
	inv := ExtremalDelay{D: 1e-3, U: 2e-4, Invert: true}
	if got := inv.Sample(0, 1, 0); got != 8e-4 {
		t.Errorf("inverted low→high = %v, want d−U", got)
	}
}

func TestFixedDelayFrac(t *testing.T) {
	m := FixedDelay{D: 1, U: 0.5, Frac: 1}
	if got := m.Sample(0, 1, 0); got != 0.5 {
		t.Errorf("Frac=1 should give d−U = 0.5, got %v", got)
	}
	d, u := m.Bounds()
	if d != 1 || u != 0.5 {
		t.Error("Bounds wrong")
	}
}

func TestUnhandledPulseIgnored(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.Line(2)
	net := NewNetwork(eng, g, FixedDelay{D: 1, U: 0})
	// No handler registered for node 1: the send succeeds and schedules
	// nothing.
	if err := net.SendTo(0, 0, 1, PulseClock); err != nil {
		t.Fatal(err)
	}
	if got := eng.Pending(); got != 0 {
		t.Errorf("send to a handler-less node left %d heap entries, want 0", got)
	}
	if err := eng.Run(2); err != nil {
		t.Fatal(err)
	}
	if st := net.Stats(); st.Sends != 0 || st.Unheard != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v, want 0 sends, 1 unheard, 0 delivered", st)
	}
}

// TestBroadcastSkipsHandlerlessNeighbor pins both halves of the send-time
// rule: a neighbor without a handler gets no heap entry, and its delay is
// still drawn, so the neighbors sampled after it receive the very delays
// they receive when everybody listens (UniformDelay is one shared stream).
func TestBroadcastSkipsHandlerlessNeighbor(t *testing.T) {
	const deaf = 2
	arrivals := func(skip bool) (map[graph.NodeID]float64, Stats, int) {
		eng := sim.NewEngine()
		g := graph.Clique(5)
		net := NewNetwork(eng, g, UniformDelay{D: 1e-3, U: 4e-4, Rng: sim.NewRNG(7, 0)})
		at := make(map[graph.NodeID]float64)
		for v := 1; v < 5; v++ {
			v := v
			if skip && v == deaf {
				continue
			}
			net.OnPulse(v, func(t float64, p Pulse) { at[v] = t })
		}
		if err := net.Broadcast(0, 0, PulseMax); err != nil {
			t.Fatal(err)
		}
		pending := eng.Pending()
		if err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
		return at, net.Stats(), pending
	}
	all, allStats, allPending := arrivals(false)
	some, someStats, somePending := arrivals(true)
	if allPending != 4 || somePending != 3 {
		t.Errorf("pending after broadcast = %d / %d, want 4 / 3", allPending, somePending)
	}
	if _, heard := some[deaf]; heard {
		t.Error("the handler-less neighbor heard the pulse")
	}
	for v, want := range all {
		if got, ok := some[v]; v != deaf && (!ok || got != want) {
			t.Errorf("node %d: arrival %v with a deaf neighbor, %v without", v, got, want)
		}
	}
	if allStats.Sends != 4 || allStats.Unheard != 0 || allStats.Delivered != 4 {
		t.Errorf("all-handlers stats = %+v", allStats)
	}
	if someStats.Sends != 3 || someStats.Unheard != 1 || someStats.Delivered != 3 {
		t.Errorf("one-deaf stats = %+v", someStats)
	}
}

// TestHandlerInstalledMidRun: whether a pulse is scheduled is decided when
// it is sent, so a handler registered later hears only later pulses.
func TestHandlerInstalledMidRun(t *testing.T) {
	eng := sim.NewEngine()
	g := graph.Line(2)
	net := NewNetwork(eng, g, FixedDelay{D: 1, U: 0})
	send := func(e *sim.Engine) {
		if err := net.SendTo(e.Now(), 0, 1, PulseClock); err != nil {
			t.Error(err)
		}
	}
	var heard []float64
	eng.MustSchedule(0, "send", send) // in flight when the handler arrives
	eng.MustSchedule(0.5, "install", func(*sim.Engine) {
		net.OnPulse(1, func(at float64, p Pulse) { heard = append(heard, at) })
	})
	eng.MustSchedule(2, "send", send)
	if err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(heard) != 1 || heard[0] != 3 {
		t.Errorf("heard at %v, want only the pulse sent at t=2 (arriving at 3)", heard)
	}
	if st := net.Stats(); st.Sends != 1 || st.Unheard != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestKindString(t *testing.T) {
	if PulseClock.String() != "clock" || PulseMax.String() != "max" {
		t.Error("kind strings")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestUniformDelayPropertyInBounds(t *testing.T) {
	f := func(seed int64, rawD, rawU uint16) bool {
		d := 1e-4 + float64(rawD)/65535
		u := float64(rawU) / 65535 * d
		m := UniformDelay{D: d, U: u, Rng: sim.NewRNG(seed, 0)}
		for i := 0; i < 50; i++ {
			s := m.Sample(0, 1, 0)
			if s < d-u-1e-12 || s > d+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBroadcastClique(b *testing.B) {
	eng := sim.NewEngine()
	g := graph.Clique(16)
	net := NewNetwork(eng, g, UniformDelay{D: 1e-3, U: 1e-4, Rng: sim.NewRNG(1, 0)})
	for v := 0; v < 16; v++ {
		net.OnPulse(v, func(float64, Pulse) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Broadcast(eng.Now(), 0, PulseClock); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(eng.Now() + 1); err != nil {
			b.Fatal(err)
		}
	}
}
