// Package transport delivers content-less pulses over the augmented
// network with per-message delays in [d−U, d] (FTGCS paper, Section 2,
// "Communication and computation").
//
// Correct nodes broadcast: one send reaches every neighbor, each with an
// independently sampled delay. Byzantine nodes are not bound to broadcast —
// the adversary uses SendTo to equivocate (different pulses, or none, per
// neighbor). Both paths go through the same DelayModel so delay adversaries
// compose with behavioral ones.
package transport

import (
	"fmt"

	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
)

// Kind distinguishes the two pulse types of the paper.
type Kind int

const (
	// PulseClock is a ClusterSync round pulse (Algorithm 1, line 6).
	PulseClock Kind = iota + 1
	// PulseMax is a global-skew level pulse (Appendix C, Lemma C.2):
	// sent whenever M_v reaches the next multiple of d−U.
	PulseMax
)

func (k Kind) String() string {
	switch k {
	case PulseClock:
		return "clock"
	case PulseMax:
		return "max"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Pulse is a content-less message; receivers learn only the sender
// identity, the kind, and their own local reception time.
type Pulse struct {
	From graph.NodeID
	Kind Kind
	// Port is the receiver-side port the pulse arrived on: the sender's
	// position in the receiver's adjacency list, Neighbors(to)[Port] ==
	// From. A receiver can wire per-port state once and reach it with one
	// slice read per pulse.
	Port int32
}

// Handler consumes a pulse at its delivery time.
type Handler func(at float64, p Pulse)

// DelayModel samples per-message delays. Implementations must return
// values in [d−U, d]; Network validates every sample.
type DelayModel interface {
	// Sample returns the delay for a message from → to sent at time t.
	Sample(from, to graph.NodeID, t float64) float64
	// Bounds returns (d, U). The bounds must be constant for the model's
	// lifetime — they are the network's fixed physical parameters, and
	// Network caches them at construction. Adversarial variation belongs
	// in Sample (within the fixed envelope), not in Bounds.
	Bounds() (d, u float64)
}

// UniformDelay draws delays uniformly from [d−U, d].
type UniformDelay struct {
	D, U float64
	Rng  *sim.RNG
}

// Sample implements DelayModel.
func (m UniformDelay) Sample(from, to graph.NodeID, t float64) float64 {
	return m.Rng.UniformIn(m.D-m.U, m.D)
}

// Bounds implements DelayModel.
func (m UniformDelay) Bounds() (float64, float64) { return m.D, m.U }

// FixedDelay always delivers after exactly D−Frac·U (Frac ∈ [0,1]).
type FixedDelay struct {
	D, U float64
	// Frac selects the point within the uncertainty window: 0 → delay d,
	// 1 → delay d−U.
	Frac float64
}

// Sample implements DelayModel.
func (m FixedDelay) Sample(from, to graph.NodeID, t float64) float64 {
	return m.D - m.Frac*m.U
}

// Bounds implements DelayModel.
func (m FixedDelay) Bounds() (float64, float64) { return m.D, m.U }

// ExtremalDelay is the delay adversary used in skew lower-bound
// constructions: messages from lower-ID to higher-ID nodes take the
// maximum delay d while messages in the other direction take the minimum
// d−U (or vice versa when Invert is set). It maximizes the systematic
// offset-estimation error between node pairs.
type ExtremalDelay struct {
	D, U   float64
	Invert bool
}

// Sample implements DelayModel.
func (m ExtremalDelay) Sample(from, to graph.NodeID, t float64) float64 {
	slow := from < to
	if m.Invert {
		slow = !slow
	}
	if slow {
		return m.D
	}
	return m.D - m.U
}

// Bounds implements DelayModel.
func (m ExtremalDelay) Bounds() (float64, float64) { return m.D, m.U }

// PhasedDelay switches between two delay models at time SwitchAt. It
// realizes the classic skew-compression adversary: one systematic bias
// while skew silently accumulates, then the opposite bias to reveal it
// (cf. the paper's discussion of [15] in the introduction).
type PhasedDelay struct {
	Before, After DelayModel
	SwitchAt      float64
}

// Sample implements DelayModel.
func (m PhasedDelay) Sample(from, to graph.NodeID, t float64) float64 {
	if t < m.SwitchAt {
		return m.Before.Sample(from, to, t)
	}
	return m.After.Sample(from, to, t)
}

// Bounds implements DelayModel; both phases must share (d, U).
func (m PhasedDelay) Bounds() (float64, float64) { return m.Before.Bounds() }

// FuncDelay adapts an arbitrary function as a DelayModel.
type FuncDelay struct {
	D, U float64
	Fn   func(from, to graph.NodeID, t float64) float64
}

// Sample implements DelayModel.
func (m FuncDelay) Sample(from, to graph.NodeID, t float64) float64 {
	return m.Fn(from, to, t)
}

// Bounds implements DelayModel.
func (m FuncDelay) Bounds() (float64, float64) { return m.D, m.U }

// Stats counts transport activity.
type Stats struct {
	Broadcasts uint64
	Sends      uint64 // individual point-to-point deliveries scheduled
	Unheard    uint64 // sends not scheduled: the receiver had no handler at send time
	Loopbacks  uint64
	Delivered  uint64
}

// Network schedules pulse deliveries on the simulation engine.
type Network struct {
	eng      *sim.Engine
	g        *graph.Graph
	delays   DelayModel
	handlers []Handler
	stats    Stats

	// d, u cache delays.Bounds() — the bounds are fixed parameters of the
	// model, and validateDelay runs once per point-to-point send.
	d, u float64
	// delayScratch buffers sampled per-neighbor delays so Broadcast can
	// validate the whole pulse before scheduling any delivery.
	delayScratch []float64

	// ports[off[u]+j] is the receiver-side port of u's j-th edge: the
	// position of u in the adjacency list of Neighbors(u)[j].
	off   []int
	ports []int32
}

// NewNetwork constructs a network over g using the given delay model. The
// graph must not gain edges afterwards: the network numbers every edge's
// receiver-side port once, here.
func NewNetwork(eng *sim.Engine, g *graph.Graph, delays DelayModel) *Network {
	n := &Network{eng: eng, g: g, handlers: make([]Handler, g.N())}
	n.off, n.ports = reversePorts(g)
	n.Reset(delays)
	return n
}

// reversePorts numbers the receiver-side port of every directed edge in
// O(N+E), without searching any adjacency list. The first pass walks each
// list Neighbors(v), where w at position p means the edge w→v arrives on
// port p, and files the pair (v, p) in w's row, peers v ascending. The
// second pass reorders each row into w's adjacency order through a
// node-indexed scratch table.
func reversePorts(g *graph.Graph) (off []int, ports []int32) {
	n := g.N()
	off = make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + g.Degree(v)
	}
	ports = make([]int32, off[n])
	peer := make([]int32, off[n])
	fill := make([]int, n)
	for v := 0; v < n; v++ {
		for p, w := range g.Neighbors(v) {
			k := off[w] + fill[w]
			fill[w]++
			peer[k], ports[k] = int32(v), int32(p)
		}
	}
	portTo := fill // reused: portTo[v] is the current row's port at v
	for w := 0; w < n; w++ {
		for k := off[w]; k < off[w+1]; k++ {
			portTo[peer[k]] = int(ports[k])
		}
		for j, v := range g.Neighbors(w) {
			ports[off[w]+j] = int32(portTo[v])
		}
	}
	return off, ports
}

// Reset starts a run: it installs the run's delay model (stateful models
// carry RNG streams that must be re-derived from the new seed), reads and
// caches its bounds, and zeroes the counters. Every handler is cleared: a
// send is scheduled only for a receiver registered at that instant, so the
// caller registers handlers in one fixed order after every Reset and a send
// made while it does meets the same handlers each time.
func (n *Network) Reset(delays DelayModel) {
	n.delays = delays
	n.d, n.u = delays.Bounds()
	// Every delivery is due within d of the clock, so d is the window the
	// engine's time wheel must cover; the 1/8 margin keeps a delay of
	// exactly d (plus validateDelay's epsilon) inside it.
	n.eng.SetLookahead(n.d * 9 / 8)
	n.stats = Stats{}
	clear(n.handlers)
}

// OnPulse registers the pulse handler of node v (overwriting any previous
// one). A pulse sent to a node without a handler is never scheduled
// (Stats.Unheard), so a handler installed mid-run hears only later pulses.
func (n *Network) OnPulse(v graph.NodeID, h Handler) {
	n.handlers[v] = h
}

// Stats returns a copy of the transport counters.
func (n *Network) Stats() Stats { return n.stats }

// Graph returns the underlying physical graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// Bounds returns the delay parameters (d, U).
func (n *Network) Bounds() (float64, float64) { return n.d, n.u }

func (n *Network) validateDelay(delay float64, from, to graph.NodeID) error {
	const eps = 1e-12
	if delay < n.d-n.u-eps || delay > n.d+eps {
		return fmt.Errorf("transport: delay %v for %d→%d outside [d−U, d] = [%v, %v]",
			delay, from, to, n.d-n.u, n.d)
	}
	return nil
}

// kindBits is the width of the kind in a delivery's packed I2 slot; the
// receiver-side port fills the bits above it.
const kindBits = 2

// deliverEvent is the pooled delivery callback: the pulse identity travels
// as event data (from=I0, to=I1, port<<kindBits|kind=I2) instead of a
// per-send closure.
func deliverEvent(e *sim.Engine, d sim.Data) {
	n := d.Ctx.(*Network)
	h := n.handlers[d.I1]
	if h == nil {
		return
	}
	n.stats.Delivered++
	h(e.Now(), Pulse{
		From: graph.NodeID(d.I0),
		Kind: Kind(d.I2 & (1<<kindBits - 1)),
		Port: d.I2 >> kindBits,
	})
}

// loopbackFnEvent invokes a stored func(at float64) at delivery time. The
// func value itself is pointer-shaped, so carrying it in Data.Ctx does not
// allocate; callers keep the func alive across calls (see core's per-node
// loopback closures).
func loopbackFnEvent(e *sim.Engine, d sim.Data) {
	d.Ctx.(func(at float64))(e.Now())
}

// scheduleDelivery enqueues one pooled point-to-point delivery, unless the
// receiver has no handler (a Byzantine node that ignores its inbox): the
// event would be pushed, sifted and popped for nothing. The caller has
// sampled the delay regardless — models may draw from one shared stream,
// and later delays must not depend on who listens.
func (n *Network) scheduleDelivery(t, delay float64, from, to graph.NodeID, kind Kind, port int32) error {
	if n.handlers[to] == nil {
		n.stats.Unheard++
		return nil
	}
	n.stats.Sends++
	_, err := n.eng.ScheduleData(t+delay, "pulse", deliverEvent, sim.Data{
		Ctx: n, I0: int32(from), I1: int32(to), I2: port<<kindBits | int32(kind),
	})
	return err
}

// Broadcast sends a pulse from v to all its neighbors (not to itself; use
// LoopbackFunc for the sender's own observation of its pulse). This is the only
// send primitive available to correct nodes.
//
// A broadcast is atomic with respect to delay-model failures: every
// neighbor's delay is sampled and validated before any delivery is
// scheduled, so a misbehaving DelayModel cannot leave a half-sent pulse.
// Neighbors without a handler are sampled like the rest and then skipped.
func (n *Network) Broadcast(t float64, from graph.NodeID, kind Kind) error {
	n.stats.Broadcasts++
	nbrs := n.g.Neighbors(from)
	if cap(n.delayScratch) < len(nbrs) {
		n.delayScratch = make([]float64, len(nbrs))
	}
	delays := n.delayScratch[:len(nbrs)]
	for i, to := range nbrs {
		delay := n.delays.Sample(from, to, t)
		if err := n.validateDelay(delay, from, to); err != nil {
			return err
		}
		delays[i] = delay
	}
	ports := n.ports[n.off[from]:n.off[from+1]]
	for i, to := range nbrs {
		if err := n.scheduleDelivery(t, delays[i], from, to, kind, ports[i]); err != nil {
			return err
		}
	}
	return nil
}

// SendTo schedules a single point-to-point pulse delivery. Correct nodes
// never call this directly; it exists for the Byzantine adversary, which is
// "not required to communicate by broadcast" (paper, Section 2, Faults).
// A pulse to a node without a handler is sampled, counted and dropped.
func (n *Network) SendTo(t float64, from, to graph.NodeID, kind Kind) error {
	port := int32(-1)
	if from >= 0 && from < n.g.N() {
		for j, w := range n.g.Neighbors(from) {
			if w == to {
				port = n.ports[n.off[from]+j]
				break
			}
		}
	}
	if port < 0 {
		return fmt.Errorf("transport: no edge %d→%d", from, to)
	}
	delay := n.delays.Sample(from, to, t)
	if err := n.validateDelay(delay, from, to); err != nil {
		return err
	}
	return n.scheduleDelivery(t, delay, from, to, kind, port)
}

// LoopbackFunc schedules fn to run after a sampled self-delivery delay.
// Nodes running several ClusterSync instances (their own cluster plus one
// observer per neighboring cluster) use this to route each instance's
// virtual own-pulse to that instance directly — they would be
// indistinguishable if they all went through the node's single pulse
// handler.
func (n *Network) LoopbackFunc(t float64, v graph.NodeID, fn func(at float64)) error {
	delay := n.delays.Sample(v, v, t)
	if err := n.validateDelay(delay, v, v); err != nil {
		return err
	}
	n.stats.Loopbacks++
	_, err := n.eng.ScheduleData(t+delay, "loopback-fn", loopbackFnEvent, sim.Data{Ctx: fn})
	return err
}
