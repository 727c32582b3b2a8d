// Package baseline implements the comparison algorithms of the FTGCS
// paper's introduction.
//
// TreeSync is the "simplistic approach": a central (root) cluster runs the
// Lynch–Welch algorithm; every other cluster is *slaved* to its parent in a
// BFS tree over the cluster graph, echoing the clock pulses it receives.
// Slaves jump their logical clocks to the estimated parent time as soon as
// a pulse wave arrives and immediately re-broadcast ("echo") for their own
// children.
//
// This achieves asymptotically optimal *global* skew in a sparse network
// but offers no non-trivial *local* skew bound: when a systematic
// delay-estimation bias flips sign (the transport.PhasedDelay adversary),
// the correction wave propagates one hop per message delay and compresses
// the accumulated global skew onto the wavefront edge — local skew Θ(D·U)
// (cf. the paper's citation of [15]). Experiment E9 measures exactly this
// against the FTGCS system's O(κ·log D).
//
// The second baseline of the paper — plain (non-fault-tolerant) GCS [13] —
// needs no code here: it is the core system with K=1, F=0.
package baseline

import (
	"context"
	"fmt"
	"math"

	"ftgcs/internal/approxagree"
	"ftgcs/internal/clockwork"
	"ftgcs/internal/cluster"
	"ftgcs/internal/core"
	"ftgcs/internal/graph"
	"ftgcs/internal/metrics"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
	"ftgcs/internal/transport"
)

// Config describes a TreeSync build.
type Config struct {
	Base   *graph.Graph
	Root   graph.ClusterID
	K, F   int
	Params params.Params
	Seed   int64
	// Drift selects the rate adversary; nil means SpreadDrift.
	Drift core.DriftModel
	// Delay selects the delay adversary; nil means UniformDelayModel.
	Delay core.DelayModel
	// SampleInterval for metrics; 0 selects T/2.
	SampleInterval float64
}

// slaveNode echoes parent-cluster pulses. Its logical clock is
// L(t) = offset + (1+ϕ)·H(t): paced at the same nominal rate as the root's
// ClusterSync logical clocks, with *jump* corrections (the point of the
// baseline: unamortized corrections are what compress skew).
//
// Echo convention: a node at tree depth ℓ (re-)broadcasts wave r when its
// logical clock reaches T̄(r) + τ₁ + ℓ·σ, where σ is a fixed per-stage
// offset large enough to cover one hop's delay and collection window.
// Every node knows its own depth, so a child can reconstruct its parent's
// logical time at the wave moment exactly; systematic delay-estimation bias
// (±U/2 per hop) is then the only per-hop error — the quantity the reveal
// adversary compresses onto the wavefront.
type slaveNode struct {
	id            graph.NodeID
	depth         int
	parentMembers map[graph.NodeID]bool

	hw     *clockwork.HardwareClock
	offset float64
	pace   float64 // 1+ϕ: nominal pacing factor

	round      int // echo waves seen
	windowOpen bool
	window     map[graph.NodeID]float64 // arrival times, this wave
	windowLen  float64
	stage      float64 // σ
}

// logical returns L(t) = offset + (1+ϕ)·H(t).
func (sn *slaveNode) logical(t float64) float64 {
	return sn.offset + sn.pace*sn.hw.Read(t)
}

// System is a wired TreeSync simulation.
type System struct {
	cfg Config
	eng *sim.Engine
	aug *graph.Augmented
	net *transport.Network
	rec *metrics.Recorder
	// Handles of the three series sample appends to.
	intra, local, global *metrics.Series

	parents []graph.ClusterID // parent of each cluster; root's is -1
	depth   []int

	rootInsts  map[graph.NodeID]*cluster.Instance
	rootClocks map[graph.NodeID]*clockwork.LogicalClock
	slaves     map[graph.NodeID]*slaveNode

	started bool
}

// NewSystem builds a TreeSync system.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Base == nil || cfg.Base.N() == 0 {
		return nil, fmt.Errorf("baseline: empty base graph")
	}
	if cfg.K < 1 || (cfg.F > 0 && cfg.K < 3*cfg.F+1) {
		return nil, fmt.Errorf("baseline: K=%d F=%d invalid", cfg.K, cfg.F)
	}
	if cfg.Params.T <= 0 {
		return nil, fmt.Errorf("baseline: parameters not derived")
	}
	parents, err := cfg.Base.SpanningTreeParents(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	aug, err := graph.Augment(cfg.Base, cfg.K)
	if err != nil {
		return nil, err
	}
	p := cfg.Params

	// Wave bookkeeping requires each wave's latency to fit in a round.
	depth := make([]int, cfg.Base.N())
	maxDepth := 0
	for c := range depth {
		d := 0
		for x := c; parents[x] >= 0; x = parents[x] {
			d++
		}
		depth[c] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	windowLen := p.EG + float64(maxDepth+2)*p.Uncertainty
	stage := p.Delay + windowLen + p.Uncertainty // σ: one hop's worst latency
	latency := float64(maxDepth) * stage
	if latency > 0.8*p.T {
		return nil, fmt.Errorf("baseline: tree depth %d wave latency %.3gs exceeds 0.8·T=%.3gs; use a shallower tree or longer rounds", maxDepth, latency, 0.8*p.T)
	}

	eng := sim.NewEngine()
	net := transport.NewNetwork(eng, aug.Net, core.BuildDelay(cfg.Delay, p, sim.NewRNG(cfg.Seed, 1)))
	s := &System{
		cfg:        cfg,
		eng:        eng,
		aug:        aug,
		net:        net,
		rec:        metrics.NewRecorder(0, core.SeriesIntraSkew, core.SeriesLocalCluster, core.SeriesGlobal),
		parents:    parents,
		depth:      depth,
		rootInsts:  make(map[graph.NodeID]*cluster.Instance),
		rootClocks: make(map[graph.NodeID]*clockwork.LogicalClock),
		slaves:     make(map[graph.NodeID]*slaveNode),
	}

	s.intra = s.rec.Handle(core.SeriesIntraSkew)
	s.local = s.rec.Handle(core.SeriesLocalCluster)
	s.global = s.rec.Handle(core.SeriesGlobal)

	for v := 0; v < aug.Net.N(); v++ {
		c := aug.ClusterOf(v)
		hw := clockwork.NewHardwareClock(core.BuildDrift(cfg.Drift, p, aug, v, sim.NewRNG(cfg.Seed, 100+uint64(v))))
		if c == cfg.Root {
			if err := s.buildRootMember(v, hw); err != nil {
				return nil, err
			}
			continue
		}
		s.buildSlave(v, c, hw, windowLen, stage)
	}
	return s, nil
}

func (s *System) buildRootMember(v graph.NodeID, hw *clockwork.HardwareClock) error {
	p := s.cfg.Params
	lc := clockwork.NewLogicalClock(hw, p.Phi, p.Mu)
	inst, err := cluster.New(s.eng, cluster.Config{
		Params:  p,
		F:       s.cfg.F,
		Members: s.aug.Members(s.cfg.Root),
		Self:    v,
		Active:  true,
		Clock:   lc,
		Send: func(t float64) {
			if err := s.net.Broadcast(t, v, transport.PulseClock); err != nil {
				panic(err)
			}
		},
		Loopback: func(t float64) {
			if err := s.net.LoopbackFunc(t, v, func(at float64) {
				s.rootInsts[v].HandlePulse(at, s.aug.IndexIn(v))
			}); err != nil {
				panic(err)
			}
		},
	})
	if err != nil {
		return err
	}
	s.rootInsts[v] = inst
	s.rootClocks[v] = lc
	s.net.OnPulse(v, func(at float64, pu transport.Pulse) {
		if pu.Kind != transport.PulseClock {
			return
		}
		if s.aug.ClusterOf(pu.From) == s.cfg.Root {
			inst.HandlePulse(at, s.aug.IndexIn(pu.From))
		}
	})
	return nil
}

func (s *System) buildSlave(v graph.NodeID, c graph.ClusterID, hw *clockwork.HardwareClock, windowLen, stage float64) {
	parent := s.parents[c]
	sn := &slaveNode{
		id:            v,
		depth:         s.depth[c],
		parentMembers: make(map[graph.NodeID]bool),
		hw:            hw,
		pace:          1 + s.cfg.Params.Phi,
		window:        make(map[graph.NodeID]float64),
		windowLen:     windowLen,
		stage:         stage,
	}
	for _, w := range s.aug.Members(parent) {
		sn.parentMembers[w] = true
	}
	s.slaves[v] = sn
	s.net.OnPulse(v, func(at float64, pu transport.Pulse) {
		if pu.Kind != transport.PulseClock || !sn.parentMembers[pu.From] {
			return
		}
		s.slavePulse(sn, at, pu.From)
	})
}

// slavePulse handles a parent-cluster pulse at a slave.
func (s *System) slavePulse(sn *slaveNode, at float64, from graph.NodeID) {
	if _, dup := sn.window[from]; dup && sn.windowOpen {
		return
	}
	if !sn.windowOpen {
		sn.windowOpen = true
		sn.window = map[graph.NodeID]float64{from: at}
		s.eng.MustSchedule(at+sn.windowLen, "echo-window", func(e *sim.Engine) {
			s.slaveEcho(sn, e.Now())
		})
		return
	}
	sn.window[from] = at
}

// slaveEcho closes the collection window: estimate the parent wave moment,
// jump the clock, and echo for the children.
func (s *System) slaveEcho(sn *slaveNode, now float64) {
	sn.windowOpen = false
	sn.round++
	p := s.cfg.Params

	arrivals := make([]float64, 0, len(sn.parentMembers))
	for w := range sn.parentMembers {
		if a, ok := sn.window[w]; ok {
			arrivals = append(arrivals, a)
		} else {
			arrivals = append(arrivals, math.Inf(1))
		}
	}
	mid, err := approxagree.Midpoint(arrivals, s.cfg.F)
	if err != nil {
		return // too few parent pulses; skip this wave
	}
	// Midpoint-of-window delay assumption: the wave left d−U/2 ago. The
	// ±U/2 systematic error of this estimate is exactly what the reveal
	// adversary weaponizes.
	waveMoment := mid - (p.Delay - p.Uncertainty/2)
	// By the echo convention, the parent (depth ℓ−1) emitted the wave at
	// its logical time T̄(r) + τ₁ + (ℓ−1)·σ.
	parentLogical := float64(sn.round-1)*p.T + p.Tau1 + float64(sn.depth-1)*sn.stage
	target := parentLogical + (now - waveMoment)
	sn.offset = target - sn.pace*sn.hw.Read(now) // jump correction (not amortized)

	// Echo at own logical time T̄(r) + τ₁ + ℓ·σ (≥ now since σ covers the
	// hop latency; clamp to now if the estimate says otherwise).
	echoTarget := float64(sn.round-1)*p.T + p.Tau1 + float64(sn.depth)*sn.stage
	hTarget := (echoTarget - sn.offset) / sn.pace
	at, err := sn.hw.TimeWhen(now, hTarget)
	if err != nil {
		panic(err) // unreachable: hardware rates are positive
	}
	if at < now {
		at = now
	}
	s.eng.MustSchedule(at, "echo", func(e *sim.Engine) {
		if err := s.net.Broadcast(e.Now(), sn.id, transport.PulseClock); err != nil {
			panic(err)
		}
	})
}

// Start launches the root cluster (slaves are purely reactive).
func (s *System) Start() error {
	if s.started {
		return fmt.Errorf("baseline: already started")
	}
	s.started = true
	for _, v := range s.aug.Members(s.cfg.Root) {
		if err := s.rootInsts[v].Start(); err != nil {
			return err
		}
	}
	interval := s.cfg.SampleInterval
	if interval <= 0 {
		interval = s.cfg.Params.T / 2
	}
	var tick func(e *sim.Engine)
	tick = func(e *sim.Engine) {
		s.sample(e.Now())
		e.MustSchedule(e.Now()+interval, "baseline-sampler", tick)
	}
	s.eng.MustSchedule(interval, "baseline-sampler", tick)
	return nil
}

// RunContext starts the system (if needed) and advances the simulation
// (see sim.RunContext): a done context aborts the run with ctx.Err() after
// the in-flight event.
func (s *System) RunContext(ctx context.Context, until float64) error {
	if !s.started {
		if err := s.Start(); err != nil {
			return err
		}
	}
	return s.eng.RunContext(ctx, until)
}

// Logical returns node v's logical clock at the current time.
func (s *System) Logical(v graph.NodeID) float64 {
	now := s.eng.Now()
	if lc, ok := s.rootClocks[v]; ok {
		return lc.Value(now)
	}
	return s.slaves[v].logical(now)
}

// ClusterClock returns (max+min)/2 of the members' clocks.
func (s *System) ClusterClock(c graph.ClusterID) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range s.aug.Members(c) {
		val := s.Logical(v)
		lo = math.Min(lo, val)
		hi = math.Max(hi, val)
	}
	return (lo + hi) / 2
}

// sample records cluster-level skew metrics (same series names as core).
func (s *System) sample(t float64) {
	nc := s.aug.Clusters()
	clocks := make([]float64, nc)
	intra := math.Inf(-1)
	globalLo, globalHi := math.Inf(1), math.Inf(-1)
	for c := 0; c < nc; c++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range s.aug.Members(c) {
			val := s.Logical(v)
			lo = math.Min(lo, val)
			hi = math.Max(hi, val)
		}
		clocks[c] = (lo + hi) / 2
		intra = math.Max(intra, hi-lo)
		globalLo = math.Min(globalLo, lo)
		globalHi = math.Max(globalHi, hi)
	}
	local := 0.0
	for _, e := range s.cfg.Base.Edges() {
		local = math.Max(local, math.Abs(clocks[e[0]]-clocks[e[1]]))
	}
	s.intra.Append(t, intra)
	s.local.Append(t, local)
	s.global.Append(t, globalHi-globalLo)
}

// Recorder returns the metrics recorder.
func (s *System) Recorder() *metrics.Recorder { return s.rec }

// Summarize condenses the run through core.Summarize, the same function
// the FTGCS system uses (−Inf for series TreeSync does not record, e.g.
// node-level local skew), so experiment E9 compares the two algorithms on
// one definition.
func (s *System) Summarize(warmup float64) core.Summary {
	return core.Summarize(s.rec, s.eng.Now(), s.eng.Processed(), warmup)
}
