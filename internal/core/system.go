package core

import (
	"context"
	"fmt"
	"math"

	"ftgcs/internal/byzantine"
	"ftgcs/internal/clockwork"
	"ftgcs/internal/cluster"
	"ftgcs/internal/gcs"
	"ftgcs/internal/globalskew"
	"ftgcs/internal/graph"
	"ftgcs/internal/metrics"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
	"ftgcs/internal/transport"
)

// node is the per-physical-node runtime state.
type node struct {
	id        graph.NodeID
	clusterID graph.ClusterID

	hw   *clockwork.HardwareClock
	main *clockwork.LogicalClock

	inst *cluster.Instance // nil for strategy-driven Byzantine nodes
	// observers/obsClocks are parallel to obsOrder (deterministic
	// iteration order). Lookups by cluster scan obsOrder — a node
	// observes only its base-graph neighbors, so the scan is a handful of
	// comparisons and the state stays O(degree) per node. Pulse delivery
	// never scans: it goes through the port table route closes over.
	observers  []*cluster.Instance // estimates of neighbor clusters
	obsClocks  []*clockwork.LogicalClock
	obsOrder   []graph.ClusterID
	estScratch []float64             // decideMode estimate buffer, reused per round
	maxEst     *globalskew.Estimator // nil unless global-skew machinery enabled
	route      transport.Handler     // pulse routing closure; nil for strategy-driven nodes

	gcsStats gcs.Stats
	faulty   bool
	fault    FaultSpec // zero value unless faulty; kept for Reset
	crashAt  float64   // +Inf when not crashing

	// Per-node RNG streams, allocated unseeded and derived in place by
	// Reset. byzRng is nil unless the node runs a Byzantine strategy.
	driftRng *sim.RNG
	byzRng   *sim.RNG

	// Round trace (Config.TrackRounds), one entry per round: its start
	// time, the logical value then, and its pulse time (NaN until the
	// pulse fires).
	roundTimes  []float64
	roundValues []float64
	roundPulses []float64
}

// System is a fully wired simulation.
type System struct {
	cfg Config
	eng *sim.Engine
	aug *graph.Augmented
	net *transport.Network
	rec *metrics.Recorder
	ser sampled

	nodes []*node

	// sampler scratch, reused every tick.
	sampleLows, sampleHighs, sampleClocks []float64
	sampleValid                           []bool

	// baseEdges caches Base.Edges() — the sampler walks the edge list on
	// every tick and the graph rebuilds (and re-sorts) it per call.
	baseEdges [][2]graph.NodeID

	// delayRng feeds the transport delay model; allocated unseeded and
	// derived in place by Reset.
	delayRng *sim.RNG

	sampleInterval float64
	started        bool
}

// NewSystem builds (but does not run) a system: it wires everything that
// does not depend on the seed — graph augmentation, clocks, protocol
// instances, observers, estimators and their closures — and then Reset
// writes the initial run state, so a fresh system is a reset one by
// construction.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	aug, err := graph.Augment(cfg.Base, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("core: augment: %w", err)
	}
	eng := sim.NewEngine()
	// Nothing is sent before Reset installs the run's delay model; the
	// zero-delay placeholder only lets the network be allocated.
	net := transport.NewNetwork(eng, aug.Net, transport.FixedDelay{})

	nc := aug.Clusters()
	s := &System{
		cfg:            cfg,
		eng:            eng,
		aug:            aug,
		net:            net,
		nodes:          make([]*node, aug.Net.N()),
		sampleLows:     make([]float64, nc),
		sampleHighs:    make([]float64, nc),
		sampleClocks:   make([]float64, nc),
		sampleValid:    make([]bool, nc),
		baseEdges:      cfg.Base.Edges(),
		delayRng:       new(sim.RNG),
		sampleInterval: cfg.SampleInterval,
	}
	if s.sampleInterval <= 0 {
		s.sampleInterval = cfg.Params.T / 2
	}
	s.declareSeries()

	faults := make(map[graph.NodeID]FaultSpec)
	for _, f := range cfg.Faults {
		faults[f.Node] = f
	}
	for v := 0; v < aug.Net.N(); v++ {
		if err := s.wireNode(v, faults); err != nil {
			return nil, err
		}
	}
	if err := s.Reset(cfg.Seed); err != nil {
		return nil, err
	}
	return s, nil
}

// wireNode allocates one physical node's seed-independent structure. The
// hardware clock gets its rate model, and the node its pulse handler, from
// Reset.
func (s *System) wireNode(v graph.NodeID, faults map[graph.NodeID]FaultSpec) error {
	cfg := s.cfg
	p := cfg.Params
	c := s.aug.ClusterOf(v)
	n := &node{
		id:        v,
		clusterID: c,
		crashAt:   math.Inf(1),
		driftRng:  new(sim.RNG),
	}
	s.nodes[v] = n

	fault, isFaulty := faults[v]
	n.faulty = isFaulty
	n.fault = fault

	n.hw = clockwork.NewHardwareClock(nil)
	n.main = clockwork.NewLogicalClock(n.hw, p.Phi, p.Mu)

	// Strategy-driven Byzantine nodes run no protocol at all.
	if isFaulty && fault.Strategy != nil {
		n.byzRng = new(sim.RNG)
		return nil
	}
	if isFaulty && fault.CrashAt > 0 {
		n.crashAt = fault.CrashAt
	}

	// Main ClusterSync instance. The loopback delivery closure is created
	// once here (not per call) so LoopbackFunc can carry it as pooled
	// event data without allocating.
	k, self := cfg.K, s.aug.IndexIn(v)
	mainDeliver := func(at float64) { n.inst.HandlePulse(at, self) }
	var onPulse func(r int, t float64)
	if cfg.TrackRounds {
		onPulse = func(r int, t float64) { n.roundPulses[r-1] = t }
	}
	inst, err := cluster.New(s.eng, cluster.Config{
		Params:  p,
		F:       cfg.F,
		Members: s.aug.Members(c),
		Self:    v,
		Active:  true,
		Clock:   n.main,
		Send: func(t float64) {
			if t >= n.crashAt {
				return
			}
			if err := s.net.Broadcast(t, v, transport.PulseClock); err != nil {
				panic(err) // structural bug: broadcast over known edges
			}
		},
		Loopback: func(t float64) {
			if err := s.net.LoopbackFunc(t, v, mainDeliver); err != nil {
				panic(err)
			}
		},
		OnPulse: onPulse,
		OnRoundStart: func(r int, t float64) {
			s.decideMode(n, r, t)
		},
	})
	if err != nil {
		return fmt.Errorf("core: node %d: %w", v, err)
	}
	n.inst = inst

	// Observers for each neighboring cluster.
	for _, b := range s.aug.NeighborClusters(c) {
		idx := len(n.obsOrder)
		obsClock := clockwork.NewLogicalClock(n.hw, p.Phi, p.Mu)
		obsDeliver := func(at float64) { n.observers[idx].HandlePulse(at, k) }
		// Observers track with γ̃ = 0 permanently; the Lynch–Welch error
		// bound E covers the full nominal envelope (Corollary 3.5).
		obs, err := cluster.New(s.eng, cluster.Config{
			Params:  p,
			F:       cfg.F,
			Members: s.aug.Members(b),
			Self:    v,
			Active:  false,
			Clock:   obsClock,
			Loopback: func(t float64) {
				if err := s.net.LoopbackFunc(t, v, obsDeliver); err != nil {
					panic(err)
				}
			},
		})
		if err != nil {
			return fmt.Errorf("core: node %d observer of %d: %w", v, b, err)
		}
		n.observers = append(n.observers, obs)
		n.obsClocks = append(n.obsClocks, obsClock)
		n.obsOrder = append(n.obsOrder, b)
	}
	n.estScratch = make([]float64, 0, len(n.obsOrder))

	// Global-skew estimator.
	if cfg.EnableGlobalSkew {
		groups := make([][]graph.NodeID, 0, 1+len(n.obsOrder))
		groups = append(groups, s.aug.Members(c))
		for _, b := range n.obsOrder {
			groups = append(groups, s.aug.Members(b))
		}
		est, err := globalskew.New(s.eng, globalskew.Config{
			Unit:   p.Delay - p.Uncertainty,
			Rho:    p.Rho,
			F:      cfg.F,
			Groups: groups,
			HW:     n.hw,
			Send: func(t float64, copies int) {
				if t >= n.crashAt {
					return
				}
				for i := 0; i < copies; i++ {
					if err := s.net.Broadcast(t, v, transport.PulseMax); err != nil {
						panic(err)
					}
				}
			},
		})
		if err != nil {
			return fmt.Errorf("core: node %d maxest: %w", v, err)
		}
		n.maxEst = est
	}

	// Pulse routing; Reset registers it with the network. Instance slot 0
	// is the node's own cluster and slot 1+i observes obsOrder[i]; the
	// estimator's groups follow the same order, K members each. Every
	// neighbor's port is resolved here, once, to its slot and its index
	// among that cluster's members.
	insts := append(make([]*cluster.Instance, 0, 1+len(n.observers)), n.inst)
	insts = append(insts, n.observers...)
	nbrs := s.aug.Net.Neighbors(v)
	ports := make([]port, len(nbrs))
	for j, u := range nbrs {
		slot := 0
		if b := s.aug.ClusterOf(u); b != c {
			slot = 1 + n.obsIdx(b)
		}
		ports[j] = port{slot: int32(slot), member: int32(s.aug.IndexIn(u))}
	}
	n.route = func(at float64, pu transport.Pulse) {
		pt := ports[pu.Port]
		if pu.Kind == transport.PulseMax {
			if n.maxEst != nil {
				n.maxEst.HandleMaxPulse(at, int(pt.slot)*k+int(pt.member))
			}
			return
		}
		insts[pt.slot].HandlePulse(at, int(pt.member))
	}
	return nil
}

// port is what a pulse arriving on one of a node's ports is for: the
// instance slot handling it and the sender's index among its cluster's
// members.
type port struct {
	slot, member int32
}

// decideMode runs the InterclusterSync decision for node n at round start.
func (s *System) decideMode(n *node, r int, t float64) {
	cfg := &s.cfg
	p := &cfg.Params

	mode := gcs.Slow
	if cfg.ModeOverride != nil {
		if g, ok := cfg.ModeOverride(n.id, n.clusterID, r); ok {
			if g == 1 {
				mode = gcs.Fast
			}
			n.main.SetGamma(t, mode.Gamma())
			n.recordRound(t)
			return
		}
	}

	own := n.main.Value(t)
	estimates := n.estScratch[:0]
	for _, oc := range n.obsClocks {
		estimates = append(estimates, oc.Value(t))
	}
	maxEst := math.NaN()
	if n.maxEst != nil {
		// A node's own clock lower-bounds L_max (Lemma C.2 relies on
		// M_w ≥ L_w); refresh before reading.
		n.maxEst.RaiseTo(t, own)
		maxEst = n.maxEst.Value(t)
	}
	d := gcs.Decide(own, estimates, maxEst, gcs.Rules{
		Kappa:   p.Kappa,
		Delta:   p.Delta,
		CGlobal: p.CGlobal,
	})
	n.gcsStats.Record(d)
	mode = d.Mode
	n.main.SetGamma(t, mode.Gamma())
	n.recordRound(t)
}

// recordRound opens the round trace entry of a round starting at t. Start
// seeds round 1's entry, so the trace stays nil unless Config.TrackRounds.
func (n *node) recordRound(t float64) {
	if n.roundTimes == nil {
		return
	}
	n.roundTimes = append(n.roundTimes, t)
	n.roundValues = append(n.roundValues, n.main.Value(t))
	n.roundPulses = append(n.roundPulses, math.NaN())
}

// Start launches every protocol instance at the current engine time
// (normally 0: the paper's simultaneous initialization).
func (s *System) Start() error {
	if s.started {
		return fmt.Errorf("core: system already started")
	}
	s.started = true
	for _, n := range s.nodes {
		if n.inst == nil {
			continue // strategy-driven Byzantine node
		}
		if s.cfg.TrackRounds {
			// Truncate-and-seed so a reset system reuses the trace arrays.
			n.roundTimes = append(n.roundTimes[:0], 0)
			n.roundValues = append(n.roundValues[:0], 0)
			n.roundPulses = append(n.roundPulses[:0], math.NaN())
		}
		n := n
		startAll := func() error {
			if err := n.inst.Start(); err != nil {
				return err
			}
			for _, obs := range n.observers {
				if err := obs.Start(); err != nil {
					return err
				}
			}
			if n.maxEst != nil {
				if err := n.maxEst.Start(); err != nil {
					return err
				}
			}
			return nil
		}
		offset := 0.0
		if s.cfg.StaggerStart > 0 && s.cfg.K > 1 {
			offset = float64(s.aug.IndexIn(n.id)) * s.cfg.StaggerStart / float64(s.cfg.K-1)
		}
		if offset <= 0 {
			if err := startAll(); err != nil {
				return err
			}
			continue
		}
		if _, err := s.eng.Schedule(s.eng.Now()+offset, "staggered-start", func(*sim.Engine) {
			if err := startAll(); err != nil {
				panic(err) // start at a scheduled instant cannot fail
			}
		}); err != nil {
			return err
		}
	}
	s.scheduleSampler()
	return nil
}

// Reset puts a wired system into the initial state of a run under the given
// seed — Algorithm 1's simultaneous initialisation: L_v(0) = 0, δ = 1,
// γ = 0, nothing started. It is the only code that writes that state:
// NewSystem ends by calling it, so a Run after Reset(seed) is
// byte-identical to a fresh NewSystem with Seed=seed by construction for
// everything derived from the seed, and what the fresh-vs-reset tests guard
// is that it also clears whatever a previous run left behind.
//
// Everything NewSystem allocated survives: the graph augmentation, neighbor
// tables, engine event slab, cluster reception buffers, and the backing
// arrays of the metric series and round traces. The engine's sequence counter
// restarts at 0. Then, in node order, each node's streams are derived from
// the seed, its rate model is built, and its pulse handler is registered —
// a Byzantine strategy's by installing it. The order is part of the
// execution: a strategy may schedule events and send from inside Install,
// and a pulse is scheduled only for a receiver that has a handler when it
// is sent.
//
// Reset must not be called while Run/RunContext is in flight. On error
// (a Byzantine strategy failed to install) the system is left half-reset
// and must be discarded.
func (s *System) Reset(seed int64) error {
	cfg := &s.cfg
	cfg.Seed = seed
	p := cfg.Params
	s.eng.Reset()
	s.delayRng.Reseed(seed, 1)
	s.net.Reset(BuildDelay(cfg.Delay, p, s.delayRng))
	s.rec.Reset()
	for _, n := range s.nodes {
		v := n.id
		n.driftRng.Reseed(seed, 100+uint64(v))
		var model clockwork.RateModel
		switch {
		case n.faulty && n.fault.OffSpecRate != 0:
			model = clockwork.Constant{Rate: n.fault.OffSpecRate}
		default:
			model = BuildDrift(cfg.Drift, p, s.aug, v, n.driftRng)
		}
		n.hw.Reset(model)
		n.main.Reset()
		n.gcsStats = gcs.Stats{}
		n.roundTimes = n.roundTimes[:0]
		n.roundValues = n.roundValues[:0]
		n.roundPulses = n.roundPulses[:0]
		handler := n.route
		if n.inst == nil {
			// Strategy-driven: if the strategy is adaptive it receives the
			// node's incoming pulses.
			n.byzRng.Reseed(seed, 900+uint64(v))
			var err error
			handler, err = n.fault.Strategy.Install(byzantine.Ctx{
				Eng:       s.eng,
				Net:       s.net,
				Self:      v,
				Params:    p,
				Rng:       n.byzRng,
				Neighbors: s.aug.Net.Neighbors(v),
			})
			if err != nil {
				return err
			}
		} else {
			n.inst.Reset()
			for i, obs := range n.observers {
				n.obsClocks[i].Reset()
				obs.Reset()
			}
			if n.maxEst != nil {
				n.maxEst.Reset()
			}
		}
		s.net.OnPulse(v, handler)
	}
	s.started = false
	return nil
}

// Run is RunContext without cancellation.
func (s *System) Run(until float64) error {
	return s.RunContext(context.Background(), until)
}

// RunContext starts the system (if needed) and advances simulated time to
// the horizon. The engine polls ctx between events and a done context
// aborts the run with ctx.Err(), leaving simulated time where the run
// stopped. The event prefix executed before cancellation is identical to
// an uncanceled run's.
func (s *System) RunContext(ctx context.Context, until float64) error {
	if !s.started {
		if err := s.Start(); err != nil {
			return err
		}
	}
	return s.eng.RunContext(ctx, until)
}

// Progress returns a snapshot of the run (events executed, current sim
// time). Safe to call from any goroutine while Run/RunContext is in
// flight.
func (s *System) Progress() sim.Progress { return s.eng.Progress() }

// --- Accessors used by experiments, examples and tests ---

// Engine exposes the simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Now returns the current simulated time.
func (s *System) Now() float64 { return s.eng.Now() }

// Aug returns the augmented topology.
func (s *System) Aug() *graph.Augmented { return s.aug }

// Diameter returns the hop diameter of the base graph.
func (s *System) Diameter() int { return s.aug.Base.Diameter() }

// Params returns the derived constants.
func (s *System) Params() params.Params { return s.cfg.Params }

// Recorder returns the metric recorder.
func (s *System) Recorder() *metrics.Recorder { return s.rec }

// Network returns the transport layer (stats).
func (s *System) Network() *transport.Network { return s.net }

// Logical returns L_v at the current simulation time.
func (s *System) Logical(v graph.NodeID) float64 {
	return s.nodes[v].main.Value(s.eng.Now())
}

// obsIdx returns the position of cluster b in the node's observer set, or
// -1 when the node observes no such cluster.
func (n *node) obsIdx(b graph.ClusterID) int {
	for i, o := range n.obsOrder {
		if o == b {
			return i
		}
	}
	return -1
}

// Estimate returns node v's estimate of cluster b's clock at the current
// time, or NaN when v has no observer for b.
func (s *System) Estimate(v graph.NodeID, b graph.ClusterID) float64 {
	n := s.nodes[v]
	if i := n.obsIdx(b); i >= 0 {
		return n.obsClocks[i].Value(s.eng.Now())
	}
	return math.NaN()
}

// clusterRange returns (min, max) of correct members' logical clocks at the
// current time; ok=false when the cluster has no correct instances.
func (s *System) clusterRange(c graph.ClusterID) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	now := s.eng.Now()
	for _, v := range s.aug.Members(c) {
		n := s.nodes[v]
		if n.faulty || n.inst == nil {
			continue
		}
		val := n.main.Value(now)
		lo = math.Min(lo, val)
		hi = math.Max(hi, val)
		ok = true
	}
	return lo, hi, ok
}

// ClusterClock returns L_C = (L_C^+ + L_C^−)/2 over correct members
// (Definition 3.3); NaN when the cluster has no correct members.
func (s *System) ClusterClock(c graph.ClusterID) float64 {
	lo, hi, ok := s.clusterRange(c)
	if !ok {
		return math.NaN()
	}
	return (lo + hi) / 2
}

// GCSStats returns node v's accumulated mode-decision statistics.
func (s *System) GCSStats(v graph.NodeID) gcs.Stats { return s.nodes[v].gcsStats }

// InstanceStats returns node v's ClusterSync statistics (zero value for
// strategy-driven Byzantine nodes).
func (s *System) InstanceStats(v graph.NodeID) cluster.Stats {
	if s.nodes[v].inst == nil {
		return cluster.Stats{}
	}
	return s.nodes[v].inst.Stats()
}

// PulseDiameters returns ‖p(r)‖ for cluster c indexed by round, read from
// the round traces of its correct members: a round counts when every one
// of them pulsed, in a cluster of at least 2 correct members. Empty unless
// Config.TrackRounds.
func (s *System) PulseDiameters(c graph.ClusterID) map[int]float64 {
	var pulses [][]float64
	rounds := math.MaxInt
	for _, v := range s.aug.Members(c) {
		if n := s.nodes[v]; !n.faulty && n.inst != nil {
			pulses = append(pulses, n.roundPulses)
			rounds = min(rounds, len(n.roundPulses))
		}
	}
	out := make(map[int]float64)
	if len(pulses) < 2 {
		return out
	}
	for i := 0; i < rounds; i++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pulses {
			lo, hi = math.Min(lo, p[i]), math.Max(hi, p[i])
		}
		if !math.IsNaN(hi - lo) { // NaN: a member has not pulsed yet
			out[i+1] = hi - lo
		}
	}
	return out
}

// RoundTrace returns node v's round trace: per round its start time, its
// logical value then and its pulse time (NaN until the pulse fires).
// Empty unless Config.TrackRounds.
func (s *System) RoundTrace(v graph.NodeID) (times, values, pulses []float64) {
	n := s.nodes[v]
	return n.roundTimes, n.roundValues, n.roundPulses
}

// InjectClockFault discontinuously shifts node v's logical clock by delta
// at the current simulation time — a transient fault (memory corruption,
// glitched oscillator) outside the algorithm's fault model. Used by the
// self-stabilization experiments: the paper's Appendix A notes the GCS
// layer recovers its skew bounds from any state within O(S/µ) time as long
// as a global skew bound holds. The instance's pending phase timers keep
// their Newtonian firing times (the node's *schedule* is intact; only its
// clock value is corrupted), which matches a value-corruption fault.
func (s *System) InjectClockFault(v graph.NodeID, delta float64) error {
	n := s.nodes[v]
	if n.inst == nil {
		return fmt.Errorf("core: node %d runs no instance", v)
	}
	n.main.Jump(s.eng.Now(), delta)
	return nil
}
