package ftgcs

import (
	"ftgcs/internal/byzantine"
	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
)

// Topology constructors (base cluster graphs 𝒢).

// Line returns the path graph on n clusters (diameter n−1) — the canonical
// worst case for gradient clock synchronization.
func Line(n int) *Topology { return graph.Line(n) }

// Ring returns the cycle on n clusters.
func Ring(n int) *Topology { return graph.Ring(n) }

// Grid returns the w×h grid — the System-on-Chip/Network-on-Chip topology
// motivating the paper's introduction.
func Grid(w, h int) *Topology { return graph.Grid(w, h) }

// Torus returns the w×h torus.
func Torus(w, h int) *Topology { return graph.Torus(w, h) }

// Tree returns a complete b-ary tree of the given depth.
func Tree(branching, depth int) *Topology { return graph.BalancedTree(branching, depth) }

// Clique returns the complete graph on n clusters (the Lynch–Welch
// setting, D = 1).
func Clique(n int) *Topology { return graph.Clique(n) }

// Star returns a star with one hub and n−1 leaves.
func Star(n int) *Topology { return graph.Star(n) }

// Hypercube returns the d-dimensional hypercube on 2^d clusters.
func Hypercube(d int) *Topology { return graph.Hypercube(d) }

// Random returns a connected random graph on n clusters with extra random
// edges beyond a spanning tree, deterministic in seed.
func Random(n, extra int, seed int64) *Topology {
	return graph.RandomConnected(n, extra, sim.NewRNG(seed, 0))
}

// Byzantine attack constructors (for WithAttack, WithAttackPerCluster and
// FaultSpec.Strategy).

// Silent returns the crash-at-zero adversary.
func Silent() Attack { return byzantine.Silent{} }

// Spam returns the random-pulse flooder.
func Spam() Attack { return byzantine.Spam{} }

// TwoFaced returns the schedule-anchored equivocator (early pulses to half
// the neighbors, late to the rest).
func TwoFaced() Attack { return byzantine.TwoFaced{} }

// AdaptiveTwoFaced returns the victim-tracking equivocator whose lies stay
// plausible forever.
func AdaptiveTwoFaced() Attack { return byzantine.AdaptiveTwoFaced{} }

// CadenceTwoFaced returns the off-nominal-cadence equivocator (the paper's
// "sub-nominal clock speed" example) — the strategy that breaks plain GCS.
func CadenceTwoFaced() Attack { return byzantine.CadenceTwoFaced{} }

// Oscillate returns the alternating early/late pulser.
func Oscillate() Attack { return byzantine.Oscillate{} }
