// Package byzantine implements adversary strategies for faulty nodes. The
// FTGCS model places no restriction on Byzantine behavior ("we make no
// assumptions whatsoever"; in particular faulty nodes need not broadcast —
// paper Section 2, Faults). Since no implementation can quantify over all
// adversaries, this package provides the canonical attack families from the
// clock synchronization literature, including the paper's own examples:
//
//   - Silent / Crash: the benign end of the spectrum.
//   - Spam: pulses at random times to random neighbor subsets.
//   - TwoFaced: equivocation — pretend to be early to one half of the
//     neighbors and late to the other, dragging them apart (the attack the
//     f+1/k−f midpoint selection exists to blunt).
//   - Oscillate: alternate maximally-early and maximally-late pulses each
//     round, the worst case for averaging-based corrections.
//   - Lie: consistently early (or late) pulses at the edge of plausibility,
//     dragging the whole cluster when the fault budget is exceeded (used by
//     the resilience-boundary experiment E12).
//   - MaxSpam: floods global-skew max pulses, attacking the Appendix C
//     estimate machinery (defended by f+1-confirmation).
//
// Off-spec clock-rate faults (a node running the correct algorithm on a
// hardware clock outside [1, 1+ρ], the paper's introduction example) are
// realized in the core package by wiring a correct instance to an
// out-of-envelope drift model.
package byzantine

import (
	"math"

	"ftgcs/internal/graph"
	"ftgcs/internal/params"
	"ftgcs/internal/sim"
	"ftgcs/internal/transport"
)

// Ctx gives a strategy everything it may use.
type Ctx struct {
	Eng       *sim.Engine
	Net       *transport.Network
	Self      graph.NodeID
	Params    params.Params
	Rng       *sim.RNG
	Neighbors []graph.NodeID
}

// Strategy arms a faulty node's behavior at simulation start.
type Strategy interface {
	Name() string
	// Install schedules the strategy's events. Called once before the
	// simulation runs. The returned handler (may be nil) receives the
	// pulses delivered to the faulty node, letting adaptive adversaries
	// react to their victims' actual behavior.
	Install(ctx Ctx) (transport.Handler, error)
}

// Silent sends nothing, ever (a crash at time 0 from the network's
// perspective).
type Silent struct{}

// Name implements Strategy.
func (Silent) Name() string { return "silent" }

// Install implements Strategy.
func (Silent) Install(Ctx) (transport.Handler, error) { return nil, nil }

// Spam sends clock pulses at random intervals (mean MeanGap seconds) to
// random neighbor subsets.
type Spam struct {
	// MeanGap is the average spacing between bursts; 0 selects T/5.
	MeanGap float64
	// P is the per-neighbor send probability per burst (default 0.7).
	P float64
}

// Name implements Strategy.
func (Spam) Name() string { return "spam" }

// Install implements Strategy.
func (s Spam) Install(ctx Ctx) (transport.Handler, error) {
	gap := s.MeanGap
	if gap <= 0 {
		gap = ctx.Params.T / 5
	}
	p := s.P
	if p <= 0 || p > 1 {
		p = 0.7
	}
	var burst func(*sim.Engine)
	burst = func(e *sim.Engine) {
		for _, to := range ctx.Neighbors {
			if ctx.Rng.Bernoulli(p) {
				// Errors (e.g. missing edge) cannot occur for listed
				// neighbors; ignore per adversary semantics.
				_ = ctx.Net.SendTo(e.Now(), ctx.Self, to, transport.PulseClock)
			}
		}
		e.MustSchedule(e.Now()+ctx.Rng.UniformIn(0.2*gap, 1.8*gap), "byz-spam", burst)
	}
	_, err := ctx.Eng.Schedule(ctx.Eng.Now()+ctx.Rng.UniformIn(0, gap), "byz-spam", burst)
	return nil, err
}

// sendOneEvent sends one clock pulse from the strategy's node (Data.Ctx, a
// *Ctx) to neighbor Data.I0. As top-level DataFuncs, it and sendAllEvent
// let a strategy schedule its per-round sends without allocating.
func sendOneEvent(e *sim.Engine, d sim.Data) {
	c := d.Ctx.(*Ctx)
	_ = c.Net.SendTo(e.Now(), c.Self, graph.NodeID(d.I0), transport.PulseClock)
}

// sendAllEvent sends one clock pulse from the strategy's node (Data.Ctx, a
// *Ctx) to every neighbor, in neighbor order. Errors cannot occur for
// listed neighbors; an adversary ignores them anyway.
func sendAllEvent(e *sim.Engine, d sim.Data) {
	c := d.Ctx.(*Ctx)
	for _, to := range c.Neighbors {
		_ = c.Net.SendTo(e.Now(), c.Self, to, transport.PulseClock)
	}
}

// TwoFaced follows the nominal round schedule but sends its round pulse
// Offset seconds early to neighbors with even node ID and Offset late to
// the others (equivocation; faulty nodes need not broadcast).
type TwoFaced struct {
	// Offset is the equivocation magnitude; 0 selects E_G (the cluster
	// skew scale, maximally disruptive while staying plausible).
	Offset float64
}

// Name implements Strategy.
func (TwoFaced) Name() string { return "two-faced" }

// Install implements Strategy.
func (s TwoFaced) Install(ctx Ctx) (transport.Handler, error) {
	off := s.Offset
	if off <= 0 {
		off = ctx.Params.EG
	}
	p := ctx.Params
	c := &ctx
	round := 0
	var schedule func(*sim.Engine)
	schedule = func(e *sim.Engine) {
		nominal := float64(round)*p.T + p.Tau1
		early := math.Max(e.Now(), nominal-off)
		late := nominal + off
		for _, to := range ctx.Neighbors {
			at := late
			if to%2 == 0 {
				at = early
			}
			e.MustScheduleData(at, "byz-twofaced", sendOneEvent, sim.Data{Ctx: c, I0: int32(to)})
		}
		round++
		e.MustSchedule(float64(round)*p.T, "byz-twofaced-round", schedule)
	}
	_, err := ctx.Eng.Schedule(ctx.Eng.Now(), "byz-twofaced-round", schedule)
	return nil, err
}

// Oscillate broadcasts its round pulse alternately Amplitude early and
// Amplitude late, flipping every round — the worst case for midpoint-based
// corrections and the canonical plain-GCS killer (experiment E8).
type Oscillate struct {
	// Amplitude is the timing swing; 0 selects 2·E_G.
	Amplitude float64
	// PeriodRounds is the number of rounds per half-swing (default 1).
	PeriodRounds int
}

// Name implements Strategy.
func (Oscillate) Name() string { return "oscillate" }

// Install implements Strategy.
func (s Oscillate) Install(ctx Ctx) (transport.Handler, error) {
	amp := s.Amplitude
	if amp <= 0 {
		amp = 2 * ctx.Params.EG
	}
	period := s.PeriodRounds
	if period <= 0 {
		period = 1
	}
	p := ctx.Params
	c := &ctx
	round := 0
	var schedule func(*sim.Engine)
	schedule = func(e *sim.Engine) {
		sign := 1.0
		if (round/period)%2 == 0 {
			sign = -1.0
		}
		at := math.Max(e.Now(), float64(round)*p.T+p.Tau1+sign*amp)
		e.MustScheduleData(at, "byz-osc-pulse", sendAllEvent, sim.Data{Ctx: c})
		round++
		e.MustSchedule(float64(round)*p.T, "byz-osc-round", schedule)
	}
	_, err := ctx.Eng.Schedule(ctx.Eng.Now(), "byz-osc-round", schedule)
	return nil, err
}

// Lie broadcasts consistently early (Early=true) or late pulses at a fixed
// offset from the nominal schedule. A coalition of f+1 or more Lie nodes in
// one cluster overwhelms the midpoint selection and drags the cluster —
// the resilience-boundary experiment E12 uses it to show k ≥ 3f+1 is
// necessary, not just sufficient.
type Lie struct {
	Early bool
	// Offset magnitude; 0 selects ϕ·τ₃ (the largest correction a correct
	// node will apply per round).
	Offset float64
}

// Name implements Strategy.
func (l Lie) Name() string {
	if l.Early {
		return "lie-early"
	}
	return "lie-late"
}

// Install implements Strategy.
func (l Lie) Install(ctx Ctx) (transport.Handler, error) {
	off := l.Offset
	if off <= 0 {
		off = ctx.Params.Phi * ctx.Params.Tau3
	}
	if l.Early {
		off = -off
	}
	p := ctx.Params
	c := &ctx
	round := 0
	var schedule func(*sim.Engine)
	schedule = func(e *sim.Engine) {
		at := math.Max(e.Now(), float64(round)*p.T+p.Tau1+off)
		e.MustScheduleData(at, "byz-lie-pulse", sendAllEvent, sim.Data{Ctx: c})
		round++
		e.MustSchedule(float64(round)*p.T, "byz-lie-round", schedule)
	}
	_, err := ctx.Eng.Schedule(ctx.Eng.Now(), "byz-lie-round", schedule)
	return nil, err
}

// AdaptiveTwoFaced equivocates while tracking its victims: it measures
// each victim's actual pulse cadence and replies one round later shifted
// by a constant ∓Offset (ahead for half the victims, behind for the rest).
// Anchoring on the victims' own pulses keeps the lie inside their
// plausibility window forever — no matter how far the victims have been
// dragged — so a coalition of f+1 such nodes inside one cluster separates
// the correct members without bound (experiment E12). Schedule-anchored
// attacks disarm themselves once victims drift; this one never does.
type AdaptiveTwoFaced struct {
	// Offset is the per-round drag; 0 selects ϕτ₃/2 (half the maximum
	// correction a correct node applies per round — always plausible).
	Offset float64
}

// Name implements Strategy.
func (AdaptiveTwoFaced) Name() string { return "adaptive-two-faced" }

// Install implements Strategy.
func (s AdaptiveTwoFaced) Install(ctx Ctx) (transport.Handler, error) {
	off := s.Offset
	if off <= 0 {
		off = ctx.Params.Phi * ctx.Params.Tau3 / 2
	}
	p := ctx.Params
	c := &ctx
	last := make(map[graph.NodeID]float64)
	// Victims are split into "ahead" (even ID) and "behind" (odd ID)
	// halves. The split must be a deterministic function of the victim so
	// that a coalition of adaptive liars pushes every victim in the same
	// direction — uncoordinated splits cancel each other out in the
	// midpoint selection.
	handler := func(at float64, pu transport.Pulse) {
		if pu.Kind != transport.PulseClock {
			return
		}
		w := pu.From
		if w == ctx.Self {
			return
		}
		// React to the first pulse a victim sends per round, and measure
		// the victim's actual Newtonian round duration from consecutive
		// pulses — anchoring on the nominal T would drift out of the
		// victim's plausibility window (its logical clock is paced at
		// (1+ϕ)·h and accelerates when dragged).
		gap := p.T / (1 + p.Phi)
		if prev, ok := last[w]; ok {
			measured := at - prev
			if measured < p.T/2 {
				return // duplicate within the same round
			}
			if measured < 2*p.T {
				gap = measured
			}
		}
		last[w] = at
		shift := -off // pretend to be ahead of even-ID victims
		if w%2 == 1 {
			shift = off // and behind odd-ID ones
		}
		target := math.Max(at, at+gap+shift)
		ctx.Eng.MustScheduleData(target, "byz-adaptive", sendOneEvent, sim.Data{Ctx: c, I0: int32(w)})
	}
	return handler, nil
}

// CadenceTwoFaced emits an independent blind pulse train per victim: a
// faster-than-nominal cadence to half of them and a slower one to the
// rest. This is the paper's introduction example — a Byzantine node
// running its clock at off-nominal speed "without a correct node being
// able to prove this" — weaponized as equivocation. In plain GCS (k=1)
// the victims' estimates follow the cadence and diverge without bound
// (each per-round innovation ε·T stays plausible), dragging correct
// neighbors apart: the experiment E8 demonstration that no non-trivial
// skew bound survives a single Byzantine fault at k=1.
type CadenceTwoFaced struct {
	// Epsilon is the relative cadence offset; 0 selects
	// min(2ϕ, 0.5·(τ₁+τ₂)/T) (fast enough to outrun any honest rate,
	// small enough to stay inside the per-round plausibility window).
	Epsilon float64
}

// Name implements Strategy.
func (CadenceTwoFaced) Name() string { return "cadence-two-faced" }

// Install implements Strategy.
func (s CadenceTwoFaced) Install(ctx Ctx) (transport.Handler, error) {
	p := ctx.Params
	eps := s.Epsilon
	if eps <= 0 {
		eps = math.Min(2*p.Phi, 0.5*(p.Tau1+p.Tau2)/p.T)
	}
	nominal := p.T / (1 + p.Phi)
	for i, to := range ctx.Neighbors {
		to := to
		period := nominal / (1 + eps) // fast train
		if i%2 == 1 {
			period = nominal * (1 + eps) // slow train
		}
		var tick func(*sim.Engine)
		tick = func(e *sim.Engine) {
			_ = ctx.Net.SendTo(e.Now(), ctx.Self, to, transport.PulseClock)
			e.MustSchedule(e.Now()+period, "byz-cadence", tick)
		}
		if _, err := ctx.Eng.Schedule(ctx.Eng.Now()+p.Tau1+float64(i)*1e-6, "byz-cadence", tick); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// MaxSpam floods PulseMax messages, trying to inflate neighbors' global
// max-estimates M_v far beyond L_max. The f+1-confirmation rule of
// Lemma C.2 must hold the line.
type MaxSpam struct {
	// Rate is pulses per second; 0 selects 10/(d−U).
	Rate float64
}

// Name implements Strategy.
func (MaxSpam) Name() string { return "max-spam" }

// Install implements Strategy.
func (s MaxSpam) Install(ctx Ctx) (transport.Handler, error) {
	d, u := ctx.Net.Bounds()
	rate := s.Rate
	if rate <= 0 {
		rate = 10 / (d - u)
	}
	gap := 1 / rate
	var tick func(*sim.Engine)
	tick = func(e *sim.Engine) {
		for _, to := range ctx.Neighbors {
			_ = ctx.Net.SendTo(e.Now(), ctx.Self, to, transport.PulseMax)
		}
		e.MustSchedule(e.Now()+gap, "byz-maxspam", tick)
	}
	_, err := ctx.Eng.Schedule(ctx.Eng.Now()+gap, "byz-maxspam", tick)
	return nil, err
}

// Aliases returns the historical CLI spellings, alias → canonical
// strategy name. It is the single source of truth for attack aliases: the
// public ftgcs registry consumes it.
func Aliases() map[string]string {
	return map[string]string{
		"twofaced": "two-faced",
		"adaptive": "adaptive-two-faced",
		"cadence":  "cadence-two-faced",
		"maxspam":  "max-spam",
	}
}

// All returns one instance of every strategy (defaults), for sweep
// experiments.
func All() []Strategy {
	return []Strategy{
		Silent{}, Spam{}, TwoFaced{}, AdaptiveTwoFaced{}, CadenceTwoFaced{},
		Oscillate{}, Lie{Early: true}, Lie{}, MaxSpam{},
	}
}
