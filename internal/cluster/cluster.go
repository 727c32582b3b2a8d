// Package cluster implements ClusterSync (Algorithm 1 of the FTGCS paper):
// the Lynch–Welch variant with amortized clock corrections that keeps every
// cluster of k ≥ 3f+1 nodes synchronized despite up to f Byzantine members.
//
// Each round r has three phases of logical durations τ₁, τ₂, τ₃:
//
//	phase 1: wait; at its end (logical time T̄(r)+τ₁) broadcast a pulse.
//	phase 2: collect the pulses of cluster members (incl. the node's own,
//	         via loopback); at its end compute the approximate-agreement
//	         correction Δ_v(r) = (S^{f+1}+S^{k−f})/2 over the observed
//	         offsets τ_wv = L_v(t_wv) − L_v(t_vv).
//	phase 3: amortize the correction by setting
//	         δ_v = 1 − (1+1/ϕ)·Δ/(τ₃+Δ), so the nominal duration of the
//	         round becomes T+Δ (Lemma 3.1) while the logical clock stays
//	         continuous with rates in [1, ϑ_max].
//
// The same implementation doubles as the paper's estimate machinery
// (Section 3, "Cluster clocks and estimates"): a node w adjacent to cluster
// C runs a passive Instance (Active=false) that listens to C's pulses and
// simulates the algorithm without broadcasting; its logical clock is then
// the estimate L̃_wC with |L̃_wC − L_C| ≤ E (Corollary 3.5).
package cluster

import (
	"fmt"
	"math"

	"ftgcs/internal/approxagree"
	"ftgcs/internal/clockwork"
	"ftgcs/internal/graph"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
)

// Config assembles an Instance.
type Config struct {
	// Params carries τ₁, τ₂, τ₃, ϕ and friends.
	Params params.Params
	// F is the fault budget of the observed cluster.
	F int
	// Members are the node IDs of the observed cluster. For an active
	// member, the list includes Self. For an observer, Self must not be in
	// the list (the observer contributes its own virtual pulse on top).
	Members []graph.NodeID
	// Self is the node running this instance.
	Self graph.NodeID
	// Active nodes broadcast pulses; observers only simulate.
	Active bool

	// Clock is the logical clock driven by this instance. Active instances
	// drive the node's main clock; observers drive a dedicated estimate
	// clock sharing the node's hardware clock.
	Clock *clockwork.LogicalClock

	// Send broadcasts a pulse to all neighbors at time t (active only).
	Send func(t float64)
	// Loopback schedules delivery of the node's own (or virtual) pulse
	// back to this node through the delay model. Required.
	Loopback func(t float64)

	// OnRoundStart is invoked at the start of every round r ≥ 2, after
	// δ has been reset to 1 and before the next phase timer is scheduled.
	// The GCS layer sets γ here (Algorithm 2 acts "at-time L_v(t_v(r))").
	OnRoundStart func(r int, t float64)
	// OnPulse, when non-nil, is invoked when the instance (would)
	// broadcast(s) its round-r pulse; the round trace records it, and
	// pulse diameters ‖p(r)‖ are read from there.
	OnPulse func(r int, t float64)
}

// phase tracks where the instance is within its round.
type phase int

const (
	phaseWait    phase = iota + 1 // phase 1: before the pulse
	phaseCollect                  // phase 2: listening closes at compute
	phaseAdjust                   // phase 3: amortizing the correction
)

// Stats counts noteworthy conditions.
type Stats struct {
	Rounds             int
	Duplicates         uint64 // extra pulses from an already-heard sender
	LatePulses         uint64 // pulses during phase 3 buffered for next round
	StaleDropped       uint64 // offsets outside ±(τ₁+τ₂) discarded at compute
	MissingSelf        uint64 // own loopback pulse missing at compute time
	CorrectionClamped  uint64 // |Δ| > ϕτ₃ (improper execution)
	AgreementFailures  uint64 // > f missing values at compute time
	LastCorrection     float64
	AbsCorrectionSum   float64
	MaxAbsCorrection   float64
	CorrectionsApplied uint64
}

// Instance is one node's ClusterSync state machine (active or observer).
//
// Per-round state is held in dense sender-indexed slices (the member set is
// small and fixed for the lifetime of the instance): sender i < len(Members)
// is Members[i], and an observer's own virtual pulse is sender
// len(Members). The caller resolves a pulse's sender to that index once,
// at wiring time; the steady-state round loop performs no heap
// allocations.
type Instance struct {
	cfg     Config
	eng     *sim.Engine
	selfIdx int // index of Self among the senders

	round       int
	ph          phase
	roundStartL float64 // logical time T̄(r) at which round r began

	// recv and pending hold logical reception times indexed by sender
	// index; NaN marks "not received". pending buffers pulses that arrive
	// during phase 3 and seeds recv at the next round boundary (the two
	// buffers are swapped, never reallocated).
	recv    []float64
	pending []float64
	// offsets is the scratch buffer fed to approxagree.MidpointInPlace.
	offsets []float64

	stats Stats
}

// New validates the configuration and returns an unstarted instance.
func New(eng *sim.Engine, cfg Config) (*Instance, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("cluster: nil logical clock")
	}
	if cfg.Loopback == nil {
		return nil, fmt.Errorf("cluster: nil loopback")
	}
	if cfg.Active && cfg.Send == nil {
		return nil, fmt.Errorf("cluster: active instance needs Send")
	}
	selfIn := false
	for _, m := range cfg.Members {
		if m == cfg.Self {
			selfIn = true
			break
		}
	}
	if cfg.Active && !selfIn {
		return nil, fmt.Errorf("cluster: active node %d not in member list", cfg.Self)
	}
	if !cfg.Active && selfIn {
		return nil, fmt.Errorf("cluster: observer %d must not be in member list", cfg.Self)
	}
	n, selfIdx := len(cfg.Members), len(cfg.Members)
	if !selfIn {
		n++ // the observer's own virtual pulse
	}
	if n < 3*cfg.F+1 {
		return nil, fmt.Errorf("cluster: %d senders cannot tolerate f=%d (need ≥ %d)", n, cfg.F, 3*cfg.F+1)
	}
	seen := make(map[graph.NodeID]bool, len(cfg.Members))
	for i, m := range cfg.Members {
		if seen[m] {
			return nil, fmt.Errorf("cluster: duplicate member %d", m)
		}
		seen[m] = true
		if m == cfg.Self {
			selfIdx = i
		}
	}
	// One backing array for the three dense per-round buffers: systems
	// build one instance per (node, adjacent cluster), so shaving two
	// allocations per instance measurably cuts SystemBuild.
	buf := make([]float64, 3*n)
	in := &Instance{
		cfg:     cfg,
		eng:     eng,
		selfIdx: selfIdx,
		recv:    buf[:n:n],
		pending: buf[n : 2*n : 2*n],
		offsets: buf[2*n:],
	}
	in.Reset()
	return in, nil
}

// clearTimes resets a reception buffer to "nothing received".
func clearTimes(ts []float64) {
	for i := range ts {
		ts[i] = math.NaN()
	}
}

// Reset rewinds the instance to its unstarted state — round 0, empty
// reception buffers, zero counters — reusing every buffer New allocated.
// Any phase timers the instance had scheduled must be discarded by the
// caller (core resets the whole engine); the instance itself holds no
// event handles.
func (in *Instance) Reset() {
	in.round = 0
	in.ph = 0
	in.roundStartL = 0
	clearTimes(in.recv)
	clearTimes(in.pending)
	in.stats = Stats{}
}

// Start begins round 1 at the engine's current time (normally 0, matching
// the paper's simultaneous-initialization assumption).
func (in *Instance) Start() error {
	in.round = 1
	in.roundStartL = in.cfg.Clock.Value(in.eng.Now())
	in.ph = phaseWait
	in.cfg.Clock.SetDelta(in.eng.Now(), 1)
	return in.scheduleAtLogical(in.roundStartL+in.cfg.Params.Tau1, "pulse", stepPulse)
}

// Round returns the current round number (1-based; 0 before Start).
func (in *Instance) Round() int { return in.round }

// Clock exposes the instance's logical clock (the estimate L̃ for
// observers).
func (in *Instance) Clock() *clockwork.LogicalClock { return in.cfg.Clock }

// Stats returns a copy of the instance counters.
func (in *Instance) Stats() Stats { return in.stats }

// Round-boundary steps dispatched by boundaryEvent. Carrying the step as
// event data (instead of a method-value closure) keeps the per-round
// scheduling allocation-free.
const (
	stepPulse int32 = iota
	stepCompute
	stepRoundEnd
)

// boundaryEvent dispatches a scheduled round-boundary step.
func boundaryEvent(_ *sim.Engine, d sim.Data) {
	in := d.Ctx.(*Instance)
	switch d.I0 {
	case stepPulse:
		in.pulse()
	case stepCompute:
		in.compute()
	case stepRoundEnd:
		in.roundEnd()
	}
}

// scheduleAtLogical schedules the given step at the Newtonian time the
// instance's logical clock reaches target, assuming the rate multipliers
// stay fixed until then (which the round structure guarantees: δ and γ only
// change at the boundaries this function schedules).
func (in *Instance) scheduleAtLogical(target float64, label string, step int32) error {
	at, err := in.cfg.Clock.TimeWhen(in.eng.Now(), target)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", label, err)
	}
	_, err = in.eng.ScheduleData(at, label, boundaryEvent, sim.Data{Ctx: in, I0: step})
	return err
}

// pulse fires at logical time T̄(r)+τ₁: broadcast (active) and loopback.
func (in *Instance) pulse() {
	t := in.eng.Now()
	in.ph = phaseCollect
	if in.cfg.Active {
		in.cfg.Send(t)
	}
	in.cfg.Loopback(t)
	if in.cfg.OnPulse != nil {
		in.cfg.OnPulse(in.round, t)
	}
	p := &in.cfg.Params
	if err := in.scheduleAtLogical(in.roundStartL+p.Tau1+p.Tau2, "compute", stepCompute); err != nil {
		panic(err) // unreachable: target is ahead of the clock by construction
	}
}

// HandlePulse records a cluster pulse from sender i received at Newtonian
// time t: i < len(Members) is Members[i], and i == len(Members) is an
// observer's own virtual pulse.
func (in *Instance) HandlePulse(t float64, i int) {
	switch in.ph {
	case phaseWait, phaseCollect:
		if !math.IsNaN(in.recv[i]) {
			in.stats.Duplicates++
			return
		}
		in.recv[i] = in.cfg.Clock.Value(t)
	case phaseAdjust:
		// Early next-round pulse (possible from a fast sender, or from a
		// Byzantine one); buffer it for the next round.
		if !math.IsNaN(in.pending[i]) {
			in.stats.Duplicates++
			return
		}
		in.stats.LatePulses++
		in.pending[i] = in.cfg.Clock.Value(t)
	}
}

// compute fires at logical time T̄(r)+τ₁+τ₂: close the listening window,
// run approximate agreement, and amortize the correction over phase 3.
func (in *Instance) compute() {
	t := in.eng.Now()
	in.ph = phaseAdjust
	p := &in.cfg.Params

	selfL := in.recv[in.selfIdx]
	var delta float64
	if math.IsNaN(selfL) {
		// Own loopback missing: cannot form offsets. Proper executions
		// exclude this (loopback delay ≤ d < τ₂); fail safe with Δ=0.
		in.stats.MissingSelf++
		delta = 0
	} else {
		// In a proper execution every same-round offset satisfies
		// |τ_wv| ≤ τ₁+τ₂ (the pulse and its receptions all fall within
		// one round's phases 1–2). Larger magnitudes are stale pulses
		// from a severely desynchronized round (e.g. buffered phase-3
		// arrivals while recovering from excess initial skew); treating
		// them as observations would create a runaway feedback, so they
		// are discarded as missing.
		plausible := p.Tau1 + p.Tau2
		offsets := in.offsets
		for i, lw := range in.recv {
			if math.IsNaN(lw) {
				offsets[i] = math.Inf(1)
				continue
			}
			off := lw - selfL
			if math.Abs(off) > plausible {
				in.stats.StaleDropped++
				offsets[i] = math.Inf(1)
				continue
			}
			offsets[i] = off
		}
		var err error
		delta, err = approxagree.MidpointInPlace(offsets, in.cfg.F)
		if err != nil {
			in.stats.AgreementFailures++
			delta = 0
		}
	}

	// Proper execution requires |Δ| ≤ ϕ·τ₃ (Definition B.3); clamp beyond
	// it so δ stays in [0, 2/(1−ϕ)] even under attack.
	if limit := p.Phi * p.Tau3; math.Abs(delta) > limit {
		in.stats.CorrectionClamped++
		delta = math.Copysign(limit, delta)
	}

	in.stats.LastCorrection = delta
	in.stats.AbsCorrectionSum += math.Abs(delta)
	in.stats.MaxAbsCorrection = math.Max(in.stats.MaxAbsCorrection, math.Abs(delta))
	in.stats.CorrectionsApplied++

	// Algorithm 1, line 13: δ_v = 1 − (1+1/ϕ)·Δ/(τ₃+Δ).
	dv := 1 - (1+1/p.Phi)*delta/(p.Tau3+delta)
	in.cfg.Clock.SetDelta(t, dv)

	if err := in.scheduleAtLogical(in.roundStartL+p.T, "round-end", stepRoundEnd); err != nil {
		panic(err)
	}
}

// roundEnd fires at logical time T̄(r)+T: open round r+1.
func (in *Instance) roundEnd() {
	t := in.eng.Now()
	in.stats.Rounds++
	in.round++
	in.roundStartL += in.cfg.Params.T
	in.ph = phaseWait
	// Reset the listening state, seeding it with early arrivals: the two
	// buffers swap roles and the new pending buffer is wiped in place.
	in.recv, in.pending = in.pending, in.recv
	clearTimes(in.pending)
	// δ returns to 1 for phases 1–2 (Algorithm 1, line 3).
	in.cfg.Clock.SetDelta(t, 1)
	// GCS mode decision happens exactly at t_v(r) (Algorithm 2).
	if in.cfg.OnRoundStart != nil {
		in.cfg.OnRoundStart(in.round, t)
	}
	if err := in.scheduleAtLogical(in.roundStartL+in.cfg.Params.Tau1, "pulse", stepPulse); err != nil {
		panic(err)
	}
}
