// Package spec defines the declarative, versioned, JSON-serializable
// scenario description that makes experiments *data*: a ScenarioSpec
// names its topology, adversaries and attack through the ftgcs registry
// instead of holding Go values, so remote clients (the ftgcs-serve HTTP
// API), spec files on disk (ftgcs-sim -spec) and the job manager's
// content-addressed cache all share one codec.
//
// A spec has a canonical encoding: Normalize fills every default, sorts
// the fault list, and Canonical marshals the result with a fixed field
// order and shortest-float number encoding. The SHA-256 of the canonical
// bytes is the spec's content hash — two specs that mean the same
// experiment hash identically regardless of JSON key order, field
// omission or whitespace, which is what lets the job manager dedupe and
// cache runs (the simulator is deterministic: same spec + seed ⇒
// byte-identical result).
//
// A spec is valid iff it builds. Compile checks only what the spec alone
// knows — the schema version, the service's resource bounds, registry
// names, fault-behaviour signs and the horizon shape — and then asks the
// compiled ftgcs.Scenario to validate itself, so every rule of the model
// (k ≥ 3f+1, positive physical constants with U ≤ d, analysis constants
// that derive, fault nodes in range and distinct) is stated once, by the
// layer that owns it. Validate is Compile with the scenario discarded.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ftgcs"
	"ftgcs/internal/core"
)

// Version is the current spec schema version.
const Version = 1

// ScenarioSpec is a complete, self-contained experiment description.
// Topology, drift, delay and attacks are registry names (see
// ftgcs.Registry); everything else is plain data. The zero value of any
// optional field means "default" — Normalize makes the defaults explicit.
type ScenarioSpec struct {
	// Version is the schema version; 0 is normalized to the current
	// Version.
	Version int `json:"version"`
	// Name is an optional display name (tables, logs). It does not
	// affect the content hash's identity role: two specs differing only
	// in Name are the same experiment — Name is excluded from the
	// canonical encoding.
	Name string `json:"name,omitempty"`

	Topology Topology `json:"topology"`
	Clusters Clusters `json:"clusters"`
	Physical Physical `json:"physical"`

	// Preset selects the analysis constants: "practical" (default) or
	// "paper-strict".
	Preset string `json:"preset,omitempty"`
	// Constants overrides the preset's c₂ and ε when non-zero.
	Constants *Constants `json:"constants,omitempty"`

	// Seed pins the simulation seed (0 is a valid seed).
	Seed int64 `json:"seed"`

	// Drift names the rate adversary ("spread" default).
	Drift string `json:"drift,omitempty"`
	// Delay names the message-delay adversary ("uniform" default).
	Delay string `json:"delay,omitempty"`
	// Attack plants one Byzantine member per cluster (optional).
	Attack *Attack `json:"attack,omitempty"`
	// Faults lists explicit per-node fault injections (optional).
	Faults []Fault `json:"faults,omitempty"`

	// GlobalSkew enables the Appendix C machinery; nil means enabled.
	GlobalSkew *bool `json:"globalSkew,omitempty"`
	// SampleInterval is the metrics sampling period in seconds (0 = T/2).
	SampleInterval float64 `json:"sampleInterval,omitempty"`

	Horizon Horizon `json:"horizon"`
	Track   Track   `json:"track,omitempty"`
}

// Topology names a registered topology family and its size parameter
// (clusters, side length, depth or dimension — whichever the family
// uses).
type Topology struct {
	Name string `json:"name"`
	Size int    `json:"size"`
}

// Clusters sets the cluster geometry: size k and fault budget f
// (k ≥ 3f+1). The zero value defaults to k=4, f=1.
type Clusters struct {
	K int `json:"k"`
	F int `json:"f"`
}

// Physical sets the drift bound ρ, max message delay d and delay
// uncertainty U (seconds). Zero fields default to 1e-3, 1e-3, 1e-4.
type Physical struct {
	Rho         float64 `json:"rho"`
	Delay       float64 `json:"delay"`
	Uncertainty float64 `json:"uncertainty"`
}

// Constants overrides the preset's analysis constants when non-zero
// (µ = c₂·ρ and the contraction margin ε).
type Constants struct {
	C2  float64 `json:"c2,omitempty"`
	Eps float64 `json:"eps,omitempty"`
}

// Attack plants one attacker — the last member — in each of the first
// Clusters clusters (0 = every cluster), all running the named strategy.
type Attack struct {
	Name string `json:"name"`
	// Clusters bounds how many clusters get an attacker; 0 means all.
	Clusters int `json:"clusters,omitempty"`
}

// Fault marks one node faulty: a named Byzantine strategy, a crash time,
// an off-spec clock rate, or any combination.
type Fault struct {
	Node        int     `json:"node"`
	Attack      string  `json:"attack,omitempty"`
	CrashAt     float64 `json:"crashAt,omitempty"`
	OffSpecRate float64 `json:"offSpecRate,omitempty"`
}

// Horizon sets the simulated duration: either absolute seconds or a
// multiple of the derived round length T (exactly one may be non-zero;
// both zero defaults to ftgcs.DefaultHorizon seconds).
type Horizon struct {
	Seconds float64 `json:"seconds,omitempty"`
	Rounds  float64 `json:"rounds,omitempty"`
}

// Track is accepted and ignored. It stays in the schema because every
// canonical encoding contains it, so dropping it would move every job ID;
// it goes in the next deliberate re-record.
type Track struct {
	Rounds   bool `json:"rounds,omitempty"`
	Clusters bool `json:"clusters,omitempty"`
}

// Default values made explicit by Normalize.
const (
	DefaultDrift  = "spread"
	DefaultDelay  = "uniform"
	DefaultPreset = "practical"
)

// Resource bounds enforced by Validate. Specs arrive from remote clients
// (ftgcs-serve), so a single request must not be able to allocate an
// arbitrarily large graph or pin a worker on an unbounded horizon.
const (
	// MaxTopologySize bounds the raw family size parameter. This is a
	// sanity check only: the size parameter means different things per
	// family (clusters, side length, depth, dimension), so the real
	// budget is MaxTopologyClusters on the resolved graph.
	MaxTopologySize = 2048
	// MaxTopologyClusters bounds the resolved graph's cluster count (a
	// clique of 2048 clusters is ~2M edges — generous but finite). For
	// families with a registered size estimator (all built-ins: tree is
	// 2^(depth+1)−1, hypercube 2^d, grid/torus size²) the budget is
	// checked *before* the builder runs, so an oversized parameter fails
	// validation instead of exhausting memory; families without an
	// estimator are checked after building.
	MaxTopologyClusters = 2048
	// MaxSimNodes bounds the total simulated node count, clusters × k.
	MaxSimNodes = 1 << 16
	// MaxClusterSize bounds k.
	MaxClusterSize = 1024
	// MaxHorizonSeconds bounds an absolute horizon (simulated seconds).
	MaxHorizonSeconds = 1e6
	// MaxHorizonRounds bounds a round-denominated horizon.
	MaxHorizonRounds = 1e7
)

// Normalize returns a copy with every default made explicit: version,
// cluster geometry, physical constants, adversary and preset names, the
// horizon, and the global-skew flag. Faults are sorted by node (ties by
// attack name) so canonical encodings are order-independent. Normalize is
// idempotent, and normalization is what makes the content hash stable: a
// spec that spells out a default and one that omits it hash identically.
func (s ScenarioSpec) Normalize() ScenarioSpec {
	n := s
	if n.Version == 0 {
		n.Version = Version
	}
	if n.Clusters == (Clusters{}) {
		n.Clusters = Clusters{K: 4, F: 1}
	}
	if n.Physical.Rho == 0 {
		n.Physical.Rho = 1e-3
	}
	if n.Physical.Delay == 0 {
		n.Physical.Delay = 1e-3
	}
	if n.Physical.Uncertainty == 0 {
		n.Physical.Uncertainty = 1e-4
	}
	if n.Preset == "" {
		n.Preset = DefaultPreset
	}
	if n.Constants != nil {
		if *n.Constants == (Constants{}) {
			n.Constants = nil
		} else {
			c := *n.Constants
			n.Constants = &c
		}
	}
	if n.Drift == "" {
		n.Drift = DefaultDrift
	}
	if n.Delay == "" {
		n.Delay = DefaultDelay
	}
	if n.GlobalSkew == nil {
		enabled := true
		n.GlobalSkew = &enabled
	} else {
		v := *n.GlobalSkew
		n.GlobalSkew = &v
	}
	if n.Horizon == (Horizon{}) {
		n.Horizon = Horizon{Seconds: ftgcs.DefaultHorizon}
	}
	if len(n.Faults) > 0 {
		n.Faults = append([]Fault(nil), n.Faults...)
		sort.SliceStable(n.Faults, func(i, j int) bool {
			if n.Faults[i].Node != n.Faults[j].Node {
				return n.Faults[i].Node < n.Faults[j].Node
			}
			return n.Faults[i].Attack < n.Faults[j].Attack
		})
	}
	if n.Attack != nil {
		a := *n.Attack
		n.Attack = &a
	}
	return n
}

// Canonical returns the spec's canonical encoding: normalized, with the
// display name stripped, marshaled with fixed field order (Go struct
// order) and shortest-float numbers. Specs that describe the same
// experiment — regardless of JSON key order, omitted defaults or the
// display name — produce identical canonical bytes.
func (s ScenarioSpec) Canonical() ([]byte, error) {
	n := s.Normalize()
	n.Name = ""
	return json.Marshal(n)
}

// Hash returns the spec's content hash: "sha256:" + hex of the SHA-256 of
// the canonical encoding.
func (s ScenarioSpec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// Parse decodes a spec from JSON bytes, rejecting unknown fields (a typo
// in a spec file should fail loudly, not silently run the default).
func Parse(data []byte) (ScenarioSpec, error) {
	return Decode(bytes.NewReader(data))
}

// Decode reads one spec from r, rejecting unknown fields.
func Decode(r io.Reader) (ScenarioSpec, error) {
	var s ScenarioSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ScenarioSpec{}, fmt.Errorf("spec: %w", err)
	}
	return s, nil
}

// Encode writes the spec's canonical encoding followed by a newline.
func (s ScenarioSpec) Encode(w io.Writer) error {
	c, err := s.Canonical()
	if err != nil {
		return err
	}
	if _, err := w.Write(c); err != nil {
		return err
	}
	_, err = w.Write([]byte{'\n'})
	return err
}

// Validate reports whether the spec compiles into a scenario that
// builds: it is Compile with the scenario discarded, so a spec is valid
// exactly when Build would succeed on its compiled scenario. A nil
// registry means ftgcs.DefaultRegistry.
func (s ScenarioSpec) Validate(reg *ftgcs.Registry) error {
	_, err := s.Compile(reg)
	return err
}

// Compile validates the spec and builds the runnable scenario, resolving
// every name through reg (nil means ftgcs.DefaultRegistry). Every bound
// that caps the work of rejecting a spec is checked before the topology
// is built; the rules of the model are left to Scenario.Validate. The
// topology is resolved eagerly with the spec's seed — randomized
// families draw the same graph every time the same spec compiles, which
// the job manager's dedup/caching depends on.
func (s ScenarioSpec) Compile(reg *ftgcs.Registry) (*ftgcs.Scenario, error) {
	if reg == nil {
		reg = ftgcs.DefaultRegistry
	}
	n := s.Normalize()
	if err := n.check(); err != nil {
		return nil, err
	}
	if est, ok := reg.TopologyClusters(n.Topology.Name, n.Topology.Size); ok && est > MaxTopologyClusters {
		return nil, fmt.Errorf("spec: topology %s(%d) resolves to %d clusters, exceeds limit %d",
			n.Topology.Name, n.Topology.Size, est, MaxTopologyClusters)
	}
	topo, err := reg.Topology(n.Topology.Name, n.Topology.Size, n.Seed)
	if err != nil {
		return nil, err
	}
	// Families without a size estimate are budgeted after building.
	if topo.N() > MaxTopologyClusters {
		return nil, fmt.Errorf("spec: topology %s(%d) resolves to %d clusters, exceeds limit %d",
			n.Topology.Name, n.Topology.Size, topo.N(), MaxTopologyClusters)
	}
	if total := topo.N() * n.Clusters.K; total > MaxSimNodes {
		return nil, fmt.Errorf("spec: %d clusters × k=%d is %d simulated nodes, exceeds limit %d",
			topo.N(), n.Clusters.K, total, MaxSimNodes)
	}

	preset, err := presetByName(n.Preset)
	if err != nil {
		return nil, err
	}
	drift, err := reg.Drift(n.Drift)
	if err != nil {
		return nil, err
	}
	delay, err := reg.Delay(n.Delay)
	if err != nil {
		return nil, err
	}

	opts := []ftgcs.Option{
		ftgcs.WithName("%s", n.DisplayName()),
		ftgcs.WithTopology(topo),
		ftgcs.WithClusters(n.Clusters.K, n.Clusters.F),
		ftgcs.WithPhysical(n.Physical.Rho, n.Physical.Delay, n.Physical.Uncertainty),
		ftgcs.WithPreset(preset),
		ftgcs.WithSeed(n.Seed),
		ftgcs.WithDrift(drift),
		ftgcs.WithDelay(delay),
		ftgcs.WithGlobalSkew(*n.GlobalSkew),
		ftgcs.WithSampleInterval(n.SampleInterval),
	}
	if n.Constants != nil {
		opts = append(opts, ftgcs.WithConstants(n.Constants.C2, n.Constants.Eps))
	}
	if n.Attack != nil {
		strat, err := reg.Attack(n.Attack.Name)
		if err != nil {
			return nil, err
		}
		opts = append(opts, ftgcs.WithAttackPerCluster(func() ftgcs.Attack { return strat }, n.Attack.Clusters))
	}
	if len(n.Faults) > 0 {
		faults := make([]ftgcs.FaultSpec, 0, len(n.Faults))
		for _, f := range n.Faults {
			fs := core.FaultSpec{Node: f.Node, CrashAt: f.CrashAt, OffSpecRate: f.OffSpecRate}
			if f.Attack != "" {
				strat, err := reg.Attack(f.Attack)
				if err != nil {
					return nil, err
				}
				fs.Strategy = strat
			}
			faults = append(faults, fs)
		}
		opts = append(opts, ftgcs.WithFaults(faults...))
	}
	if n.Horizon.Rounds > 0 {
		opts = append(opts, ftgcs.WithHorizonRounds(n.Horizon.Rounds))
	} else {
		opts = append(opts, ftgcs.WithHorizon(n.Horizon.Seconds))
	}
	sc := ftgcs.NewScenario(opts...)
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// check validates the facts of a normalized spec that need neither the
// registry nor the topology: the schema version, the size parameter and
// cluster-size bounds, the horizon's shape and bounds, and the signs of
// the attack and fault fields.
func (s ScenarioSpec) check() error {
	if s.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (current %d)", s.Version, Version)
	}
	if s.Topology.Name == "" {
		return fmt.Errorf("spec: missing topology name")
	}
	if s.Topology.Size < 1 {
		return fmt.Errorf("spec: topology size %d must be ≥ 1", s.Topology.Size)
	}
	if s.Topology.Size > MaxTopologySize {
		return fmt.Errorf("spec: topology size %d exceeds limit %d", s.Topology.Size, MaxTopologySize)
	}
	if s.Clusters.K > MaxClusterSize {
		return fmt.Errorf("spec: cluster size k=%d exceeds limit %d", s.Clusters.K, MaxClusterSize)
	}
	if s.Horizon.Seconds != 0 && s.Horizon.Rounds != 0 {
		return fmt.Errorf("spec: horizon sets both seconds (%g) and rounds (%g)", s.Horizon.Seconds, s.Horizon.Rounds)
	}
	if s.Horizon.Seconds < 0 || s.Horizon.Rounds < 0 {
		return fmt.Errorf("spec: negative horizon")
	}
	if s.Horizon.Seconds > MaxHorizonSeconds {
		return fmt.Errorf("spec: horizon %g s exceeds limit %g", s.Horizon.Seconds, float64(MaxHorizonSeconds))
	}
	if s.Horizon.Rounds > MaxHorizonRounds {
		return fmt.Errorf("spec: horizon %g rounds exceeds limit %g", s.Horizon.Rounds, float64(MaxHorizonRounds))
	}
	if s.SampleInterval < 0 {
		return fmt.Errorf("spec: negative sampleInterval")
	}
	if s.Attack != nil && s.Attack.Clusters < 0 {
		return fmt.Errorf("spec: attack clusters %d must be ≥ 0", s.Attack.Clusters)
	}
	for _, f := range s.Faults {
		if f.Attack == "" && f.CrashAt == 0 && f.OffSpecRate == 0 {
			return fmt.Errorf("spec: fault on node %d specifies no behavior", f.Node)
		}
		if f.CrashAt < 0 {
			return fmt.Errorf("spec: fault node %d crashAt %g must be ≥ 0", f.Node, f.CrashAt)
		}
		if f.OffSpecRate < 0 {
			return fmt.Errorf("spec: fault node %d offSpecRate %g must be ≥ 0", f.Node, f.OffSpecRate)
		}
	}
	return nil
}

// presets are the names a spec's Preset may take, spelled by
// ftgcs.Preset.String.
var presets = []ftgcs.Preset{ftgcs.PresetPractical, ftgcs.PresetPaperStrict}

func presetByName(name string) (ftgcs.Preset, error) {
	names := make([]string, len(presets))
	for i, p := range presets {
		if p.String() == name {
			return p, nil
		}
		names[i] = p.String()
	}
	return 0, fmt.Errorf("spec: unknown preset %q (have: %s)", name, strings.Join(names, ", "))
}

// DisplayName returns the label the compiled scenario (and hence the
// result) carries: the explicit Name, or "<topology>-<size>" when the
// spec is unnamed.
func (s ScenarioSpec) DisplayName() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("%s-%d", s.Topology.Name, s.Topology.Size)
}
