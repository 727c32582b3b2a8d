// Package globalskew implements the Appendix C machinery of the FTGCS
// paper: every node maintains a conservative estimate M_v of the maximum
// correct logical clock L_max, with L_max(t) ≥ M_v(t) ≥ L_max(t) − O(δD)
// (Lemma C.2). The estimate feeds Theorem C.3's catch-up rule (nodes with
// L_v ≤ M_v − cδ switch to fast mode), which bounds the global skew by
// O(δD).
//
// Mechanism:
//
//   - M_v(0) = 0 and grows at rate h_v(t)/(1+ρ) ≤ 1, so local growth can
//     never overtake L_max (whose rate is ≥ 1).
//   - Whenever M_v reaches the next multiple of d−U, v broadcasts a "max
//     pulse" (distinguishable from clock pulses).
//   - Max pulses travel ≥ d−U seconds, so a pulse for level ℓ certifies
//     that its sender's estimate was ℓ·(d−U) at least d−U ago — hence
//     (ℓ+1)·(d−U) is a safe value now, provided the sender is correct.
//   - To tolerate Byzantine senders, v only adopts level ℓ+1 once f+1
//     distinct members of some single adjacent cluster have each delivered
//     ℓ max pulses: at least one of them is correct.
//   - Adopting a level may let v skip ahead several multiples; it then
//     emits the skipped pulses too, yielding a fault-tolerant flooding
//     wave that propagates the maximum at one level per hop delay.
package globalskew

import (
	"fmt"

	"ftgcs/internal/clockwork"
	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
)

// Config assembles an Estimator.
type Config struct {
	// Unit is the level granularity d−U.
	Unit float64
	// Rho is the hardware drift bound; M grows at h/(1+ρ).
	Rho float64
	// F is the per-cluster fault budget.
	F int
	// Groups lists the member node IDs of each adjacent cluster (including
	// the node's own); a sender belongs to exactly one. Level confirmation
	// requires f+1 distinct senders within one group. HandleMaxPulse names
	// a sender by its index in the groups' concatenation.
	Groups [][]graph.NodeID
	// HW is the node's hardware clock.
	HW *clockwork.HardwareClock
	// Send broadcasts `copies` max pulses at time t.
	Send func(t float64, copies int)
}

// Estimator maintains one node's M_v.
type Estimator struct {
	cfg Config
	eng *sim.Engine

	anchorH float64 // hardware value at anchor
	anchorM float64 // M value at anchor

	sentLevel  int // highest level for which a pulse was sent
	levelTimer sim.Handle

	// Reception state is dense, O(members) per estimator: senders is laid
	// out group by group, in the order of Config.Groups.
	senders []sender
	groups  []group

	stats Stats
}

// sender is one known sender's reception state.
type sender struct {
	count int // max pulses received
	group int // index into groups
}

// group tracks one adjacent cluster's confirmed level: the largest ℓ such
// that at least f+1 members have delivered ≥ ℓ pulses, i.e. the (f+1)-th
// largest count. Counts only grow, by one, so a pulse moves it only when
// its sender's count was exactly confirmed, and then by one. With fewer
// than f+1 members, above never passes f and confirmed stays 0.
type group struct {
	lo, hi    int // members are senders[lo:hi]
	confirmed int
	above     int // members with count > confirmed; ≤ f between pulses
}

// Stats counts estimator activity.
type Stats struct {
	LocalLevels   uint64 // levels reached by local growth
	AdoptedLevels uint64 // levels adopted from neighbors
	PulsesSent    uint64
	PulsesHeard   uint64
	Ignored       uint64 // pulses with a negative sender index
}

// New validates and constructs an estimator (not yet started).
func New(eng *sim.Engine, cfg Config) (*Estimator, error) {
	if cfg.Unit <= 0 {
		return nil, fmt.Errorf("globalskew: unit %v must be positive (d−U)", cfg.Unit)
	}
	if cfg.HW == nil {
		return nil, fmt.Errorf("globalskew: nil hardware clock")
	}
	if cfg.Send == nil {
		return nil, fmt.Errorf("globalskew: nil send")
	}
	n := 0
	for _, members := range cfg.Groups {
		n += len(members)
	}
	e := &Estimator{
		cfg:     cfg,
		eng:     eng,
		senders: make([]sender, 0, n),
		groups:  make([]group, 0, len(cfg.Groups)),
	}
	seen := make(map[graph.NodeID]bool, n)
	for gi, members := range cfg.Groups {
		lo := len(e.senders)
		for _, m := range members {
			if seen[m] {
				return nil, fmt.Errorf("globalskew: sender %d listed twice", m)
			}
			seen[m] = true
			e.senders = append(e.senders, sender{group: gi})
		}
		e.groups = append(e.groups, group{lo: lo, hi: len(e.senders)})
	}
	e.Reset()
	return e, nil
}

// Reset rewinds the estimator to its unstarted state, keeping the sender
// tables allocated. The level timer handle is dropped to the zero Handle —
// the engine reset that accompanies a system reset has already discarded
// the event, and a zero Handle behaves as canceled.
func (e *Estimator) Reset() {
	e.anchorH, e.anchorM = 0, 0
	e.sentLevel = 0
	for i := range e.senders {
		e.senders[i].count = 0
	}
	for i := range e.groups {
		e.groups[i].confirmed, e.groups[i].above = 0, 0
	}
	e.levelTimer = sim.Handle{}
	e.stats = Stats{}
}

// Start begins local growth at the engine's current time.
func (e *Estimator) Start() error {
	e.anchorH = e.cfg.HW.Read(e.eng.Now())
	e.anchorM = 0
	return e.scheduleNextLevel()
}

// Value returns M_v(t). Queries must be non-decreasing in t.
func (e *Estimator) Value(t float64) float64 {
	h := e.cfg.HW.Read(t)
	return e.anchorM + (h-e.anchorH)/(1+e.cfg.Rho)
}

// Stats returns a copy of the counters.
func (e *Estimator) Stats() Stats { return e.stats }

// scheduleNextLevel arms the timer for M reaching (sentLevel+1)·unit.
func (e *Estimator) scheduleNextLevel() error {
	target := float64(e.sentLevel+1) * e.cfg.Unit
	// Hardware value at which M reaches target:
	hTarget := e.anchorH + (target-e.anchorM)*(1+e.cfg.Rho)
	at, err := e.cfg.HW.TimeWhen(e.eng.Now(), hTarget)
	if err != nil {
		return fmt.Errorf("globalskew: level timer: %w", err)
	}
	h, err := e.eng.ScheduleData(at, "max-level", levelEvent, sim.Data{Ctx: e})
	if err != nil {
		return err
	}
	e.levelTimer = h
	return nil
}

// levelEvent is the pooled level-timer callback.
func levelEvent(_ *sim.Engine, d sim.Data) {
	d.Ctx.(*Estimator).localLevel()
}

// localLevel fires when M grows past the next multiple of the unit.
func (e *Estimator) localLevel() {
	t := e.eng.Now()
	e.sentLevel++
	e.stats.LocalLevels++
	e.stats.PulsesSent++
	e.cfg.Send(t, 1)
	if err := e.scheduleNextLevel(); err != nil {
		panic(err) // unreachable: target ahead of monotone clock
	}
}

// RaiseTo lifts M_v to the node's own logical clock value (a node's own
// clock is a lower bound on L_max, and the Lemma C.2 argument relies on
// M_w ≥ L_w). Emits any level pulses the jump crosses, exactly like an
// adoption. Call it at round boundaries.
func (e *Estimator) RaiseTo(t, ownLogical float64) {
	if ownLogical <= e.Value(t) {
		return
	}
	e.anchorH = e.cfg.HW.Read(t)
	e.anchorM = ownLogical
	if newLevel := int(ownLogical / e.cfg.Unit); newLevel > e.sentLevel {
		copies := newLevel - e.sentLevel
		e.sentLevel = newLevel
		e.stats.PulsesSent += uint64(copies)
		e.cfg.Send(t, copies)
	}
	e.eng.Cancel(e.levelTimer)
	if err := e.scheduleNextLevel(); err != nil {
		panic(err) // unreachable: target ahead of monotone clock
	}
}

// HandleMaxPulse processes a max pulse from sender i, the sender's index
// in the concatenation of Config.Groups, received at time t.
func (e *Estimator) HandleMaxPulse(t float64, i int) {
	if i < 0 {
		e.stats.Ignored++
		return
	}
	e.stats.PulsesHeard++
	snd := &e.senders[i]
	g := &e.groups[snd.group]
	snd.count++
	if snd.count == g.confirmed+1 {
		// The sender just rose above the confirmed level; the f+1-th member
		// to do so confirms the next one.
		if g.above++; g.above > e.cfg.F {
			g.confirmed++
			g.above = 0
			for _, m := range e.senders[g.lo:g.hi] {
				if m.count > g.confirmed {
					g.above++
				}
			}
		}
	}
	confirmed := g.confirmed
	if confirmed == 0 {
		return
	}
	target := float64(confirmed+1) * e.cfg.Unit
	if target <= e.Value(t) {
		return
	}
	// Adopt the certified value: jump M up to target.
	e.anchorH = e.cfg.HW.Read(t)
	e.anchorM = target
	e.stats.AdoptedLevels++
	// Emit the pulses for every multiple we skipped (the flooding step).
	if newLevel := confirmed + 1; newLevel > e.sentLevel {
		copies := newLevel - e.sentLevel
		e.sentLevel = newLevel
		e.stats.PulsesSent += uint64(copies)
		e.cfg.Send(t, copies)
	}
	// Re-arm the growth timer against the new anchor.
	e.eng.Cancel(e.levelTimer)
	if err := e.scheduleNextLevel(); err != nil {
		panic(err)
	}
}
