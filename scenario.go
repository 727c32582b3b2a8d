package ftgcs

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"

	"ftgcs/internal/core"
	"ftgcs/internal/params"
)

// Scenario describes one complete experiment: a topology, the cluster
// geometry, the physical link parameters, and up to three adversaries
// (drift, delay, Byzantine attacks). Scenarios are built with functional
// options and executed either directly (Build/Run) or in batches by the
// Sweep runner.
//
//	rep, err := ftgcs.NewScenario(
//		ftgcs.WithTopologyName("torus", 4),
//		ftgcs.WithClusters(4, 1),
//		ftgcs.WithPhysical(3e-3, 1e-3, 1e-4),
//		ftgcs.WithConstants(4, 0.25),
//		ftgcs.WithDriftName("sine"),
//		ftgcs.WithAttackName("adaptive-two-faced", 3, 7),
//		ftgcs.WithSeed(1),
//		ftgcs.WithHorizon(30),
//	).Run()
type Scenario struct {
	name string

	topology *Topology
	topoName string
	topoSize int

	buildScalars
	// derived, when set, overrides derivation entirely. A pointer so that
	// the many scenarios of a sweep share one copy of the constants; the
	// build key takes it by value.
	derived *Params

	seed    int64
	seedSet bool

	driftModel DriftModel
	delayModel DelayModel

	faults           []FaultSpec
	perClusterAttack func() Attack
	perClusterCount  int

	// Advanced instrumentation (harness experiments).
	modeOverride func(node NodeID, cluster ClusterID, round int) (int, bool)

	// Execution hooks.
	observe func(sys *System) (any, error)
	hooks   []midRunHook

	err error // first option error, surfaced at Build
}

// buildScalars holds the scalar build inputs. It is embedded in Scenario
// and included by value in buildKey, so a scalar added here is part of the
// key by construction.
type buildScalars struct {
	k, f int

	rho, maxDelay, uncertainty float64
	preset                     Preset
	c2, eps                    float64

	disableGlobalSkew bool
	sampleInterval    float64

	// horizon in seconds, or in rounds (× derived T) when horizonRounds
	// is set. Zero selects DefaultHorizon seconds.
	horizon       float64
	horizonRounds float64

	// Advanced instrumentation (harness experiments).
	staggerStart float64
	trackRounds  bool
}

type midRunHook struct {
	at float64
	fn func(sys *System) error
}

// DefaultHorizon is the simulated duration (seconds) used when no
// WithHorizon/WithHorizonRounds option is given.
const DefaultHorizon = 30.0

// Option configures a Scenario.
type Option func(*Scenario)

// NewScenario builds a scenario from options. Unset options default to
// k=4, f=1, ρ=d=1e-3, U=1e-4, spread drift, uniform delays, no faults,
// global-skew machinery enabled, Practical preset.
func NewScenario(opts ...Option) *Scenario {
	s := &Scenario{buildScalars: buildScalars{
		rho:         1e-3,
		maxDelay:    1e-3,
		uncertainty: 1e-4,
		k:           4,
		f:           1,
	}}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// With returns a copy of the scenario with additional options applied —
// convenient for generating sweep variants from a shared base.
func (s *Scenario) With(opts ...Option) *Scenario {
	c := *s
	c.faults = append([]FaultSpec(nil), s.faults...)
	c.hooks = append([]midRunHook(nil), s.hooks...)
	for _, opt := range opts {
		opt(&c)
	}
	return &c
}

// Name returns the scenario's display name.
func (s *Scenario) Name() string { return s.name }

// WithName sets the display name used in sweep tables.
func WithName(format string, args ...any) Option {
	return func(s *Scenario) { s.name = fmt.Sprintf(format, args...) }
}

// WithTopology sets the base cluster graph directly. Like every paired
// option, the last one wins: it clears any earlier WithTopologyName.
func WithTopology(t *Topology) Option {
	return func(s *Scenario) { s.topology, s.topoName, s.topoSize = t, "", 0 }
}

// WithTopologyName resolves the topology family from the default registry
// at build time (so randomized families see the scenario seed). It clears
// any earlier WithTopology.
func WithTopologyName(name string, size int) Option {
	return func(s *Scenario) { s.topology, s.topoName, s.topoSize = nil, name, size }
}

// WithClusters sets the cluster size k and fault budget f (k ≥ 3f+1).
func WithClusters(k, f int) Option {
	return func(s *Scenario) { s.k, s.f = k, f }
}

// WithPhysical sets the drift bound ρ, max delay d, and uncertainty U.
func WithPhysical(rho, delay, uncertainty float64) Option {
	return func(s *Scenario) { s.rho, s.maxDelay, s.uncertainty = rho, delay, uncertainty }
}

// WithConstants overrides the preset's analysis constants (µ = c₂·ρ and
// the contraction margin ε) when non-zero.
func WithConstants(c2, eps float64) Option {
	return func(s *Scenario) { s.c2, s.eps = c2, eps }
}

// WithPreset selects the analysis-constant preset (zero value means
// PresetPractical).
func WithPreset(p Preset) Option {
	return func(s *Scenario) { s.preset = p }
}

// WithDerivedParams supplies fully derived algorithm constants, bypassing
// the ρ/d/U derivation entirely (the harness uses this to share one
// parameter set across a sweep).
func WithDerivedParams(p Params) Option {
	return func(s *Scenario) { s.derived = &p }
}

// WithSeed pins the scenario's random seed. Scenarios without an explicit
// seed get a deterministic per-index seed from the Sweep runner.
func WithSeed(seed int64) Option {
	return func(s *Scenario) { s.seed, s.seedSet = seed, true }
}

// WithDrift sets the drift adversary.
func WithDrift(m DriftModel) Option {
	return func(s *Scenario) { s.driftModel = m }
}

// WithDriftName resolves the drift adversary from the default registry.
func WithDriftName(name string) Option {
	return func(s *Scenario) {
		m, err := DriftByName(name)
		if err != nil {
			s.fail(err)
			return
		}
		s.driftModel = m
	}
}

// WithDelay sets the message-delay adversary.
func WithDelay(m DelayModel) Option {
	return func(s *Scenario) { s.delayModel = m }
}

// WithDelayName resolves the delay adversary from the default registry.
func WithDelayName(name string) Option {
	return func(s *Scenario) {
		m, err := DelayByName(name)
		if err != nil {
			s.fail(err)
			return
		}
		s.delayModel = m
	}
}

// WithFaults appends fault specifications.
func WithFaults(faults ...FaultSpec) Option {
	return func(s *Scenario) { s.faults = append(s.faults, faults...) }
}

// WithAttack marks the given nodes Byzantine, all running the given
// attack.
func WithAttack(a Attack, nodes ...NodeID) Option {
	return func(s *Scenario) {
		for _, v := range nodes {
			s.faults = append(s.faults, FaultSpec{Node: v, Strategy: a})
		}
	}
}

// WithAttackName resolves the attack by name and marks the given nodes
// Byzantine.
func WithAttackName(name string, nodes ...NodeID) Option {
	return func(s *Scenario) {
		a, err := AttackByName(name)
		if err != nil {
			s.fail(err)
			return
		}
		WithAttack(a, nodes...)(s)
	}
}

// WithAttackPerCluster plants one attacker — the last member — in each of
// the first `clusters` clusters (0 = every cluster), each running a fresh
// instance from the constructor. Resolved at build time, when the topology
// and k are known.
func WithAttackPerCluster(ctor func() Attack, clusters int) Option {
	return func(s *Scenario) { s.perClusterAttack, s.perClusterCount = ctor, clusters }
}

// WithGlobalSkew enables or disables the Appendix C global-skew machinery
// (enabled by default).
func WithGlobalSkew(enabled bool) Option {
	return func(s *Scenario) { s.disableGlobalSkew = !enabled }
}

// WithSampleInterval sets the metrics sampling period (0 = T/2).
func WithSampleInterval(dt float64) Option {
	return func(s *Scenario) { s.sampleInterval = dt }
}

// WithHorizon sets the simulated duration in seconds.
func WithHorizon(seconds float64) Option {
	return func(s *Scenario) { s.horizon, s.horizonRounds = seconds, 0 }
}

// WithHorizonRounds sets the simulated duration as a multiple of the
// derived round length T.
func WithHorizonRounds(rounds float64) Option {
	return func(s *Scenario) { s.horizonRounds, s.horizon = rounds, 0 }
}

// WithStaggerStart staggers cluster members' protocol starts across the
// given window (see core.Config.StaggerStart).
func WithStaggerStart(window float64) Option {
	return func(s *Scenario) { s.staggerStart = window }
}

// WithRoundTracking records per-node round traces: each round's start
// time, logical value and pulse time (see core.Config.TrackRounds). Pulse
// diameters are read from them.
func WithRoundTracking() Option {
	return func(s *Scenario) { s.trackRounds = true }
}

// WithModeOverride forces GCS mode decisions (experiment machinery).
func WithModeOverride(fn func(node NodeID, cluster ClusterID, round int) (int, bool)) Option {
	return func(s *Scenario) { s.modeOverride = fn }
}

// WithObserver attaches a measurement extracted after the run; the Sweep
// runner stores its result in SweepResult.Value.
func WithObserver(fn func(sys *System) (any, error)) Option {
	return func(s *Scenario) { s.observe = fn }
}

// WithMidRunHook pauses the run at simulated time `at`, applies fn (fault
// injection, reconfiguration), and resumes to the horizon. Hooks run in
// time order.
func WithMidRunHook(at float64, fn func(sys *System) error) Option {
	return func(s *Scenario) { s.hooks = append(s.hooks, midRunHook{at: at, fn: fn}) }
}

func (s *Scenario) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Seeded reports whether an explicit seed was set, and the seed.
func (s *Scenario) Seeded() (int64, bool) { return s.seed, s.seedSet }

// resolveParams resolves the derived algorithm constants.
func (s *Scenario) resolveParams() (Params, error) {
	if s.derived != nil {
		return *s.derived, nil
	}
	p, err := deriveParams(s.preset, s.rho, s.maxDelay, s.uncertainty, s.c2, s.eps)
	if err != nil {
		return Params{}, fmt.Errorf("ftgcs: %w", err)
	}
	return p, nil
}

// Build wires the scenario into a runnable System. It refuses a scenario
// with mid-run hooks: System.Run would never fire them, so such a scenario
// runs through Scenario.Run or a Sweep.
func (s *Scenario) Build() (*System, error) {
	if len(s.hooks) > 0 {
		return nil, fmt.Errorf("ftgcs: scenario %q has mid-run hooks, which only Scenario.Run and Sweep fire; Build would drop them", s.name)
	}
	return s.build()
}

// build wires the scenario into a System, hooks or not; the runners that
// fire the hooks (RunContext, Sweep) build through it.
func (s *Scenario) build() (*System, error) {
	if s.err != nil {
		return nil, s.err
	}
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("ftgcs: %w", err)
	}
	return &System{sys: sys}, nil
}

// Validate reports the error Build's checks would return, without wiring
// a system: an option error, then the derived parameters, the topology
// and the core configuration (cluster geometry, fault targets). A
// WithTopologyName scenario resolves its graph to do so.
func (s *Scenario) Validate() error {
	if s.err != nil {
		return s.err
	}
	cfg, err := s.config()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("ftgcs: %w", err)
	}
	return nil
}

// config assembles the core configuration Build wires and Validate
// checks, so the two cannot disagree.
func (s *Scenario) config() (core.Config, error) {
	topo := s.topology
	if s.topoName != "" {
		t, err := TopologyByName(s.topoName, s.topoSize, s.seed)
		if err != nil {
			return core.Config{}, err
		}
		topo = t
	}
	if topo == nil {
		return core.Config{}, fmt.Errorf("ftgcs: scenario %q has no topology", s.name)
	}
	p, err := s.resolveParams()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Base:             topo,
		K:                s.k,
		F:                s.f,
		Params:           p,
		Seed:             s.seed,
		Drift:            s.driftModel,
		Delay:            s.delayModel,
		Faults:           s.expandFaults(topo),
		EnableGlobalSkew: !s.disableGlobalSkew,
		SampleInterval:   s.sampleInterval,
		HorizonHint:      s.Horizon(p),
		StaggerStart:     s.staggerStart,
		TrackRounds:      s.trackRounds,
		ModeOverride:     s.modeOverride,
	}, nil
}

// expandFaults resolves the scenario's full fault list against the given
// topology: the explicit WithFaults/WithAttack specs plus the per-cluster
// attack plants (one fresh constructor instance at the last member of each
// selected cluster).
func (s *Scenario) expandFaults(topo *Topology) []FaultSpec {
	count := 0
	if s.perClusterAttack != nil {
		count = s.perClusterCount
		if count <= 0 || count > topo.N() {
			count = topo.N()
		}
	}
	faults := append(make([]FaultSpec, 0, len(s.faults)+count), s.faults...)
	for c := 0; c < count; c++ {
		faults = append(faults, FaultSpec{
			Node:     c*s.k + s.k - 1,
			Strategy: s.perClusterAttack(),
		})
	}
	return faults
}

// buildKey is the one statement of "same structure": two scenarios with
// equal keys build Systems that differ at most in seed, so a system built
// from one can be Reset to the other's seed instead of rebuilt. Its fields
// fall in three classes — the pinned topology's structural digest, the
// scalar build inputs (the scenario's buildScalars, by value), and the
// adversaries (drift, delay, each expanded fault's strategy) as the
// interface value itself, compared by dynamic type and value. The seed,
// name and observer are not part of it.
type buildKey struct {
	// poolable is false only in the zero key, which stands for "not
	// poolable" and matches nothing.
	poolable bool

	topology [sha256.Size]byte

	buildScalars
	hasDerived bool
	derived    Params

	drift, delay any
	// faults is the expanded fault list (explicit specs plus per-cluster
	// plants) folded into nested faultKey values, nil when empty.
	faults any
}

// faultKey is one expanded fault plus the rest of the list.
type faultKey struct {
	node                 NodeID
	strategy             any
	crashAt, offSpecRate float64
	rest                 any
}

// comparableModel reports whether == on the model value is defined (a
// func- or slice-backed model would panic the key comparison instead).
func comparableModel(m any) bool {
	return m == nil || reflect.ValueOf(m).Comparable()
}

// buildKey derives the scenario's key, or the zero key when the scenario is
// not poolable — conservative by design, anything it cannot prove equal by
// value disqualifies reuse: an option error; an unpinned named topology
// (it resolves with the seed); a mode override (an opaque function baked
// into the built system); mid-run hooks (they mutate the system in ways
// Reset cannot account for); a drift, delay or attack value of
// non-comparable type.
func (s *Scenario) buildKey() buildKey {
	if s.err != nil || s.topology == nil ||
		s.modeOverride != nil || len(s.hooks) > 0 ||
		!comparableModel(s.driftModel) || !comparableModel(s.delayModel) {
		return buildKey{}
	}
	key := buildKey{
		poolable:     true,
		topology:     s.topology.Digest(),
		buildScalars: s.buildScalars,
		drift:        s.driftModel,
		delay:        s.delayModel,
	}
	if s.derived != nil {
		key.hasDerived, key.derived = true, *s.derived
	}
	// The expanded list, not the perClusterAttack closure: spec-compiled
	// replicates carry a fresh closure per compile that resolves to the
	// same registered strategy values.
	faults := s.expandFaults(s.topology)
	for i := len(faults) - 1; i >= 0; i-- {
		f := faults[i]
		if !comparableModel(f.Strategy) {
			return buildKey{}
		}
		key.faults = faultKey{f.Node, f.Strategy, f.CrashAt, f.OffSpecRate, key.faults}
	}
	return key
}

// Horizon returns the simulated duration in seconds for the given derived
// parameters.
func (s *Scenario) Horizon(p Params) float64 {
	if s.horizonRounds > 0 {
		return s.horizonRounds * p.T
	}
	if s.horizon > 0 {
		return s.horizon
	}
	return DefaultHorizon
}

// Run is RunContext without cancellation.
func (s *Scenario) Run() (Report, error) {
	return s.RunContext(context.Background())
}

// RunContext builds the scenario, executes any mid-run hooks in time
// order, advances to the horizon, and returns the report. A done context
// aborts the simulation with ctx.Err() after the in-flight event. The
// event prefix executed before cancellation is identical to an uncanceled
// run's — cancellation never perturbs results, it only truncates them.
func (s *Scenario) RunContext(ctx context.Context) (Report, error) {
	sys, err := s.build()
	if err != nil {
		return Report{}, err
	}
	rep, _, err := s.executeOn(ctx, sys)
	return rep, err
}

// executeOn runs an already-built system to the horizon, applying mid-run
// hooks in time order and extracting the observer value. Shared with the
// Sweep runner.
func (s *Scenario) executeOn(ctx context.Context, sys *System) (Report, any, error) {
	horizon := s.Horizon(sys.Params())
	hooks := append([]midRunHook(nil), s.hooks...)
	sort.SliceStable(hooks, func(i, j int) bool { return hooks[i].at < hooks[j].at })
	for _, h := range hooks {
		// A hook that never fires would silently invalidate the run (e.g.
		// a fault injection that was supposed to perturb the measurement).
		if h.at >= horizon {
			return Report{}, nil, fmt.Errorf("ftgcs: scenario %q: mid-run hook at %g ≥ horizon %g", s.name, h.at, horizon)
		}
		if err := sys.RunContext(ctx, h.at); err != nil {
			return Report{}, nil, err
		}
		if err := h.fn(sys); err != nil {
			return Report{}, nil, err
		}
	}
	if err := sys.RunContext(ctx, horizon); err != nil {
		return Report{}, nil, err
	}
	var value any
	if s.observe != nil {
		v, err := s.observe(sys)
		if err != nil {
			return Report{}, nil, err
		}
		value = v
	}
	return sys.Report(), value, nil
}

// deriveParams is the single place the preset → constants resolution
// happens: the zero Preset means Practical.
func deriveParams(preset Preset, rho, delay, uncertainty, c2, eps float64) (Params, error) {
	if preset == 0 {
		preset = PresetPractical
	}
	pcfg := params.PresetConfig(preset, rho, delay, uncertainty)
	if c2 != 0 {
		pcfg.C2 = c2
	}
	if eps != 0 {
		pcfg.Eps = eps
	}
	return params.Derive(pcfg)
}
