package cluster

import (
	"math"
	"testing"

	"ftgcs/internal/clockwork"
	"ftgcs/internal/graph"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
	"ftgcs/internal/transport"
)

// testParams are fast-converging but honest parameters for unit tests.
func testParams(t testing.TB) params.Params {
	t.Helper()
	p, err := params.Derive(params.PresetConfig(params.Practical, 1e-3, 1e-3, 1e-4))
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return p
}

// rig is a single-cluster simulation: k active members (nodes 0..k−1), one
// optional observer (node k), optional Byzantine members that send nothing
// unless the test drives them.
type rig struct {
	eng       *sim.Engine
	net       *transport.Network
	p         params.Params
	k, f      int
	instances []*Instance // index by node; nil for Byzantine members
	clocks    []*clockwork.LogicalClock
	hw        []*clockwork.HardwareClock
	observer  *Instance
	obsClock  *clockwork.LogicalClock
	pulses    map[int]map[graph.NodeID]float64 // round → node → Newtonian pulse time
}

type rigOpts struct {
	k, f       int
	byzantine  map[graph.NodeID]bool // members that run no instance
	rates      func(i int) clockwork.RateModel
	observer   bool
	seed       int64
	onRoundStr func(node graph.NodeID, r int, t float64)
}

func newRig(t testing.TB, p params.Params, o rigOpts) *rig {
	t.Helper()
	n := o.k
	if o.observer {
		n++
	}
	g := graph.Clique(n)
	eng := sim.NewEngine()
	net := transport.NewNetwork(eng, g, transport.UniformDelay{
		D: p.Delay, U: p.Uncertainty, Rng: sim.NewRNG(o.seed, 1000),
	})
	r := &rig{
		eng: eng, net: net, p: p, k: o.k, f: o.f,
		instances: make([]*Instance, n),
		clocks:    make([]*clockwork.LogicalClock, n),
		hw:        make([]*clockwork.HardwareClock, n),
		pulses:    make(map[int]map[graph.NodeID]float64),
	}
	members := make([]graph.NodeID, o.k)
	for i := range members {
		members[i] = i
	}
	rates := o.rates
	if rates == nil {
		rates = func(i int) clockwork.RateModel {
			if i%2 == 0 {
				return clockwork.Constant{Rate: 1}
			}
			return clockwork.Constant{Rate: 1 + p.Rho}
		}
	}
	for i := 0; i < o.k; i++ {
		i := i
		r.hw[i] = clockwork.NewHardwareClock(rates(i))
		r.clocks[i] = clockwork.NewLogicalClock(r.hw[i], p.Phi, p.Mu)
		if o.byzantine[i] {
			continue
		}
		deliver := func(at float64) { r.instances[i].HandlePulse(at, i) }
		inst, err := New(eng, Config{
			Params: p, F: o.f, Members: members, Self: i, Active: true,
			Clock: r.clocks[i],
			Send: func(t float64) {
				if err := net.Broadcast(t, i, transport.PulseClock); err != nil {
					panic(err)
				}
			},
			Loopback: func(t float64) {
				if err := net.LoopbackFunc(t, i, deliver); err != nil {
					panic(err)
				}
			},
			OnPulse: func(round int, t float64) {
				if r.pulses[round] == nil {
					r.pulses[round] = make(map[graph.NodeID]float64)
				}
				r.pulses[round][i] = t
			},
			OnRoundStart: func(round int, t float64) {
				if o.onRoundStr != nil {
					o.onRoundStr(i, round, t)
				}
			},
		})
		if err != nil {
			t.Fatalf("New member %d: %v", i, err)
		}
		r.instances[i] = inst
		net.OnPulse(i, func(at float64, pu transport.Pulse) {
			inst.HandlePulse(at, pu.From) // member w is node w: its ID is its index
		})
	}
	if o.observer {
		obs := o.k
		r.hw[obs] = clockwork.NewHardwareClock(clockwork.Constant{Rate: 1 + p.Rho/2})
		r.obsClock = clockwork.NewLogicalClock(r.hw[obs], p.Phi, p.Mu)
		r.clocks[obs] = r.obsClock
		deliver := func(at float64) { r.observer.HandlePulse(at, obs) }
		inst, err := New(eng, Config{
			Params: p, F: o.f, Members: members, Self: obs, Active: false,
			Clock: r.obsClock,
			Loopback: func(t float64) {
				if err := net.LoopbackFunc(t, obs, deliver); err != nil {
					panic(err)
				}
			},
		})
		if err != nil {
			t.Fatalf("New observer: %v", err)
		}
		r.observer = inst
		net.OnPulse(obs, func(at float64, pu transport.Pulse) {
			inst.HandlePulse(at, pu.From) // member w is node w: its ID is its index
		})
	}
	return r
}

func (r *rig) start(t testing.TB) {
	t.Helper()
	for _, inst := range r.instances {
		if inst != nil {
			if err := inst.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
		}
	}
	if r.observer != nil {
		if err := r.observer.Start(); err != nil {
			t.Fatalf("observer Start: %v", err)
		}
	}
}

// correctSkew returns the max pairwise logical skew among correct members
// at the engine's current time.
func (r *rig) correctSkew(byz map[graph.NodeID]bool) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	now := r.eng.Now()
	for i := 0; i < r.k; i++ {
		if byz[i] || r.instances[i] == nil {
			continue
		}
		v := r.clocks[i].Value(now)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// pulseDiameter returns ‖p(r)‖ over correct members for a round.
func (r *rig) pulseDiameter(round int, byz map[graph.NodeID]bool) (float64, bool) {
	m := r.pulses[round]
	if m == nil {
		return 0, false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	count := 0
	for i, pt := range m {
		if byz[i] {
			continue
		}
		lo = math.Min(lo, pt)
		hi = math.Max(hi, pt)
		count++
	}
	if count < 2 {
		return 0, false
	}
	return hi - lo, true
}

func runRounds(t testing.TB, r *rig, rounds int) {
	t.Helper()
	horizon := float64(rounds) * r.p.T * 1.05
	if err := r.eng.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFaultFreeClusterStaysSynchronized(t *testing.T) {
	p := testParams(t)
	r := newRig(t, p, rigOpts{k: 4, f: 1, seed: 1})
	r.start(t)
	runRounds(t, r, 60)
	bound := p.ClusterSkewBound()
	if skew := r.correctSkew(nil); skew > bound {
		t.Errorf("skew %v exceeds Corollary 3.2 bound %v", skew, bound)
	}
	// All instances completed the expected number of rounds.
	for i, inst := range r.instances {
		if inst.Round() < 55 {
			t.Errorf("node %d only reached round %d", i, inst.Round())
		}
		st := inst.Stats()
		if st.AgreementFailures != 0 || st.MissingSelf != 0 {
			t.Errorf("node %d stats: %+v", i, st)
		}
	}
}

func TestPulseDiameterWithinE(t *testing.T) {
	p := testParams(t)
	r := newRig(t, p, rigOpts{k: 4, f: 1, seed: 2})
	r.start(t)
	runRounds(t, r, 50)
	// Proposition B.14: ‖p(r)‖ ≤ E for all rounds (perfect init).
	for round := 2; round <= 45; round++ {
		diam, ok := r.pulseDiameter(round, nil)
		if !ok {
			t.Fatalf("no pulse data for round %d", round)
		}
		if diam > p.EG {
			t.Errorf("round %d: ‖p‖ = %v > E = %v", round, diam, p.EG)
		}
	}
}

func TestLogicalPulseTimesMatchLemmaB6(t *testing.T) {
	// Lemma B.6: L_v(p_v(r)) = T̄(r) + τ₁ exactly.
	p := testParams(t)
	var got []float64
	r := newRig(t, p, rigOpts{k: 4, f: 1, seed: 3})
	// Instrument node 0 via the pulses map afterwards.
	r.start(t)
	runRounds(t, r, 10)
	for round := 1; round <= 8; round++ {
		pt, ok := r.pulses[round][0]
		if !ok {
			t.Fatalf("round %d: no pulse from node 0", round)
		}
		got = append(got, pt)
		want := float64(round-1)*p.T + p.Tau1
		// The clock anchor has advanced beyond pt, but logical pulse time
		// is reconstructible: pulses fire exactly when L reaches the
		// target, so compare via a fresh walk is impossible here; instead
		// check Newtonian spacing ≈ T within rate envelope.
		_ = want
	}
	for i := 1; i < len(got); i++ {
		gap := got[i] - got[i-1]
		if gap < p.T/p.ThetaMax-1e-9 || gap > p.T+p.Phi*p.Tau3+1e-9 {
			t.Errorf("pulse gap %v outside nominal window [%v, %v]",
				gap, p.T/p.ThetaMax, p.T+p.Phi*p.Tau3)
		}
	}
}

func TestClusterToleratesSilentByzantine(t *testing.T) {
	p := testParams(t)
	byz := map[graph.NodeID]bool{3: true} // node 3 never pulses (crash at 0)
	r := newRig(t, p, rigOpts{k: 4, f: 1, byzantine: byz, seed: 4})
	r.start(t)
	runRounds(t, r, 60)
	bound := p.ClusterSkewBound()
	if skew := r.correctSkew(byz); skew > bound {
		t.Errorf("skew %v exceeds bound %v with silent Byzantine", skew, bound)
	}
}

func TestClusterToleratesNoiseByzantine(t *testing.T) {
	p := testParams(t)
	byz := map[graph.NodeID]bool{1: true}
	r := newRig(t, p, rigOpts{k: 4, f: 1, byzantine: byz, seed: 5})
	// Node 1 sends pulses at random times to random subsets (equivocation).
	rng := sim.NewRNG(99, 0)
	var spam func(*sim.Engine)
	spam = func(e *sim.Engine) {
		for to := 0; to < 4; to++ {
			if to != 1 && rng.Bernoulli(0.7) {
				if err := r.net.SendTo(e.Now(), 1, to, transport.PulseClock); err != nil {
					t.Errorf("byz send: %v", err)
				}
			}
		}
		e.MustSchedule(e.Now()+rng.UniformIn(0.001, p.T/3), "byz", spam)
	}
	r.eng.MustSchedule(0.001, "byz", spam)
	r.start(t)
	runRounds(t, r, 60)
	bound := p.ClusterSkewBound()
	if skew := r.correctSkew(byz); skew > bound {
		t.Errorf("skew %v exceeds bound %v under pulse spam", skew, bound)
	}
}

func TestLargerClusterWithTwoByzantine(t *testing.T) {
	p := testParams(t)
	byz := map[graph.NodeID]bool{2: true, 5: true}
	r := newRig(t, p, rigOpts{k: 7, f: 2, byzantine: byz, seed: 6})
	r.start(t)
	runRounds(t, r, 40)
	if skew := r.correctSkew(byz); skew > p.ClusterSkewBound() {
		t.Errorf("skew %v exceeds bound %v (k=7, f=2)", skew, p.ClusterSkewBound())
	}
}

func TestObserverTracksClusterClock(t *testing.T) {
	p := testParams(t)
	r := newRig(t, p, rigOpts{k: 4, f: 1, observer: true, seed: 7})
	r.start(t)
	// Sample the estimate error at several times during the run.
	var maxErr float64
	sample := func(e *sim.Engine) {
		now := e.Now()
		est := r.obsClock.Value(now)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < r.k; i++ {
			v := r.clocks[i].Value(now)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		clusterClock := (lo + hi) / 2
		maxErr = math.Max(maxErr, math.Abs(est-clusterClock))
	}
	for i := 1; i <= 40; i++ {
		r.eng.MustSchedule(float64(i)*p.T, "sample", sample)
	}
	runRounds(t, r, 45)
	// Corollary 3.5: |L̃_wC − L_C| ≤ E/2... with slack for |L̃−L_v| ≤ E.
	if maxErr > p.EG {
		t.Errorf("observer estimate error %v exceeds E = %v", maxErr, p.EG)
	}
}

func TestRoundStartHookFires(t *testing.T) {
	p := testParams(t)
	count := make(map[graph.NodeID]int)
	r := newRig(t, p, rigOpts{k: 4, f: 1, seed: 8,
		onRoundStr: func(node graph.NodeID, round int, tt float64) {
			count[node]++
		}})
	r.start(t)
	runRounds(t, r, 20)
	for i := 0; i < 4; i++ {
		if count[i] < 15 {
			t.Errorf("node %d round-start hook fired %d times, want ≥ 15", i, count[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	p := testParams(t)
	hw := clockwork.NewHardwareClock(clockwork.Constant{Rate: 1})
	lc := clockwork.NewLogicalClock(hw, p.Phi, p.Mu)
	noop := func(float64) {}
	base := Config{Params: p, F: 1, Members: []graph.NodeID{0, 1, 2, 3},
		Self: 0, Active: true, Clock: lc, Send: noop, Loopback: noop}

	if _, err := New(eng, base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	c := base
	c.Clock = nil
	if _, err := New(eng, c); err == nil {
		t.Error("nil clock accepted")
	}
	c = base
	c.Loopback = nil
	if _, err := New(eng, c); err == nil {
		t.Error("nil loopback accepted")
	}
	c = base
	c.Send = nil
	if _, err := New(eng, c); err == nil {
		t.Error("active without Send accepted")
	}
	c = base
	c.Self = 9
	if _, err := New(eng, c); err == nil {
		t.Error("active non-member accepted")
	}
	c = base
	c.Active = false
	c.Send = nil
	if _, err := New(eng, c); err == nil {
		t.Error("observer listed as member accepted")
	}
	c = base
	c.Members = []graph.NodeID{0, 1, 2}
	if _, err := New(eng, c); err == nil {
		t.Error("k=3 < 3f+1 accepted")
	}
	c = base
	c.Members = []graph.NodeID{0, 1, 2, 2, 3}
	if _, err := New(eng, c); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestCorrectionsStayWithinProperBound(t *testing.T) {
	p := testParams(t)
	r := newRig(t, p, rigOpts{k: 4, f: 1, seed: 9})
	r.start(t)
	runRounds(t, r, 40)
	limit := p.Phi * p.Tau3
	for i, inst := range r.instances {
		st := inst.Stats()
		if st.CorrectionClamped != 0 {
			t.Errorf("node %d: %d clamped corrections in a proper execution", i, st.CorrectionClamped)
		}
		if st.MaxAbsCorrection > limit {
			t.Errorf("node %d: max |Δ| = %v > ϕτ₃ = %v", i, st.MaxAbsCorrection, limit)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	p := testParams(t)
	run := func() float64 {
		r := newRig(t, p, rigOpts{k: 4, f: 1, seed: 42})
		r.start(t)
		runRounds(t, r, 30)
		return r.clocks[2].Value(r.eng.Now())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different trajectories: %v vs %v", a, b)
	}
}

func TestAmortizedRateEnvelope(t *testing.T) {
	// Lemma B.4: logical rates stay within [1, ϑ_max] throughout.
	p := testParams(t)
	r := newRig(t, p, rigOpts{k: 4, f: 1, seed: 10})
	r.start(t)
	var bad int
	sample := func(e *sim.Engine) {
		for i := 0; i < 4; i++ {
			rate := r.clocks[i].Rate(e.Now())
			if rate < 1-1e-12 || rate > p.ThetaMax+1e-12 {
				bad++
			}
		}
	}
	for i := 1; i < 200; i++ {
		r.eng.MustSchedule(float64(i)*p.T/7, "rate-sample", sample)
	}
	runRounds(t, r, 30)
	if bad > 0 {
		t.Errorf("%d rate samples outside [1, ϑ_max]", bad)
	}
}

func BenchmarkClusterRound(b *testing.B) {
	p, err := params.Derive(params.PresetConfig(params.Practical, 1e-3, 1e-3, 1e-4))
	if err != nil {
		b.Fatal(err)
	}
	r := newRig(b, p, rigOpts{k: 4, f: 1, seed: 1})
	r.start(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.eng.Run(float64(i+1) * p.T); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRoundLoopAllocFree: in steady state a cluster's rounds — the pulse,
// the deliveries HandlePulse records by sender index, the correction and
// the round end — allocate nothing, for members and an observer alike.
// Under -race the rounds still run, unchecked.
func TestRoundLoopAllocFree(t *testing.T) {
	p := testParams(t)
	r := newRig(t, p, rigOpts{k: 4, f: 1, seed: 3, observer: true})
	for _, inst := range append(r.instances, r.observer) {
		if inst != nil {
			inst.cfg.OnPulse = nil // the rig's pulse log grows a map per round
		}
	}
	r.start(t)
	until := 3 * p.T // warm the engine's event pool
	if err := r.eng.Run(until); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		until += p.T
		if err := r.eng.Run(until); err != nil {
			t.Fatal(err)
		}
	})
	if st := r.observer.Stats(); st.Rounds < 20 || st.MissingSelf != 0 {
		t.Fatalf("observer stats %+v: want ≥ 20 rounds, each with its own pulse", st)
	}
	if !sim.RaceEnabled && avg != 0 {
		t.Errorf("a round allocates %.1f, want 0", avg)
	}
}
