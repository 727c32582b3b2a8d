package ftgcs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ftgcs/internal/byzantine"
)

// TopologyBuilder constructs a base cluster graph from a single size
// parameter (clusters, side length, depth or dimension — whichever the
// family uses) and a seed for randomized families.
type TopologyBuilder func(size int, seed int64) (*Topology, error)

// Registry is a name-indexed catalog of scenario building blocks:
// topologies, drift models, delay models and Byzantine attacks. The CLIs
// and the Scenario builder resolve `-topology torus`, `-drift sine`,
// `-attack adaptive`, `-delay burst` through one shared registry instead of
// per-tool switch statements, so a new adversary is one self-registering
// file.
//
// All methods are safe for concurrent use. Registration of a duplicate
// name panics: registries are populated from init functions, where a
// collision is a programming error worth failing loudly on.
type Registry struct {
	mu         sync.RWMutex
	topologies catalog[TopologyBuilder]
	topoSizes  catalog[func(size int) int]
	drifts     catalog[func() DriftModel]
	delays     catalog[func() DelayModel]
	attacks    catalog[func() Attack]
	aliases    map[string]string // alias → canonical name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		topologies: newCatalog[TopologyBuilder]("topology", "topology"),
		topoSizes:  newCatalog[func(size int) int]("topology size estimator", ""),
		drifts:     newCatalog[func() DriftModel]("drift", "drift model"),
		delays:     newCatalog[func() DelayModel]("delay", "delay model"),
		attacks:    newCatalog[func() Attack]("attack", "attack"),
		aliases:    make(map[string]string),
	}
}

// catalog is one of a Registry's name → value tables. Its methods take the
// registry for the lock and the alias table the catalogs share.
type catalog[V any] struct {
	noun string // in the duplicate panic: `drift "x" registered twice`
	kind string // in the lookup error: `unknown drift model "x"`
	m    map[string]V
}

func newCatalog[V any](noun, kind string) catalog[V] {
	return catalog[V]{noun: noun, kind: kind, m: make(map[string]V)}
}

// register adds v under name. It panics when the name is empty, v is nil
// (the caller compares: V is not comparable here) or the name is taken; fn
// and arg word the first panic as the exported method documents it.
func (c *catalog[V]) register(r *Registry, fn, arg, name string, v V, isNil bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "" || isNil {
		panic(fmt.Sprintf("ftgcs: %s with empty name or nil %s", fn, arg))
	}
	if _, dup := c.m[name]; dup {
		panic(fmt.Sprintf("ftgcs: %s %q registered twice", c.noun, name))
	}
	c.m[name] = v
}

// lookup resolves name: an exact registration wins, then the shared alias
// table is consulted.
func (c *catalog[V]) lookup(r *Registry, name string) (V, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v, ok := c.m[name]; ok {
		return v, true
	}
	v, ok := c.m[r.aliases[name]] // "" for a non-alias, which nothing is registered under
	return v, ok
}

// get is lookup with the error for a miss, which lists what is available.
func (c *catalog[V]) get(r *Registry, name string) (V, error) {
	v, ok := c.lookup(r, name)
	if !ok {
		return v, fmt.Errorf("ftgcs: unknown %s %q (have: %s)", c.kind, name, strings.Join(c.names(r), ", "))
	}
	return v, nil
}

// names lists the registered names, sorted.
func (c *catalog[V]) names(r *Registry) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RegisterTopology adds a topology family under the given name. It panics
// if the name is empty or already taken.
func (r *Registry) RegisterTopology(name string, b TopologyBuilder) {
	r.topologies.register(r, "RegisterTopology", "builder", name, b, b == nil)
}

// RegisterTopologySize attaches a cluster-count estimator to a topology
// family: given the family's size parameter, it returns how many
// clusters the built graph will have. Estimators let validators budget
// the resolved graph BEFORE the builder runs — essential for families
// whose builders are super-linear in the parameter (a tree depth or
// hypercube dimension builds 2^size clusters). Estimators may saturate
// instead of overflowing for huge parameters. It panics if the name is
// empty, the estimator nil, or one is already registered.
func (r *Registry) RegisterTopologySize(name string, clusters func(size int) int) {
	r.topoSizes.register(r, "RegisterTopologySize", "estimator", name, clusters, clusters == nil)
}

// TopologyClusters estimates how many clusters the named family (alias
// or canonical) resolves to at the given size. ok is false when the
// family has no registered estimator.
func (r *Registry) TopologyClusters(name string, size int) (int, bool) {
	est, ok := r.topoSizes.lookup(r, name)
	if !ok {
		return 0, false
	}
	return est(size), true
}

// RegisterDrift adds a drift model constructor under the given name. It
// panics if the name is empty or already taken.
func (r *Registry) RegisterDrift(name string, ctor func() DriftModel) {
	r.drifts.register(r, "RegisterDrift", "constructor", name, ctor, ctor == nil)
}

// RegisterDelay adds a delay model constructor under the given name. It
// panics if the name is empty or already taken.
func (r *Registry) RegisterDelay(name string, ctor func() DelayModel) {
	r.delays.register(r, "RegisterDelay", "constructor", name, ctor, ctor == nil)
}

// RegisterAttack adds a Byzantine attack constructor under the given name.
// It panics if the name is empty or already taken.
func (r *Registry) RegisterAttack(name string, ctor func() Attack) {
	r.attacks.register(r, "RegisterAttack", "constructor", name, ctor, ctor == nil)
}

// RegisterAlias maps an alternative spelling to a canonical name (e.g.
// "adaptive" → "adaptive-two-faced"). Aliases are shared across all four
// catalogs; an exact registration under the same name always wins over an
// alias, and an alias may not shadow an existing canonical name.
func (r *Registry) RegisterAlias(alias, canonical string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if alias == "" || canonical == "" {
		panic("ftgcs: RegisterAlias with empty name")
	}
	if _, dup := r.aliases[alias]; dup {
		panic(fmt.Sprintf("ftgcs: alias %q registered twice", alias))
	}
	if r.isCanonical(alias) {
		panic(fmt.Sprintf("ftgcs: alias %q would shadow an existing registration", alias))
	}
	if !r.isCanonical(canonical) {
		panic(fmt.Sprintf("ftgcs: alias %q points at unregistered name %q (register the target first)", alias, canonical))
	}
	r.aliases[alias] = canonical
}

// isCanonical reports whether the name is directly registered in any
// catalog. Callers must hold r.mu.
func (r *Registry) isCanonical(name string) bool {
	_, t := r.topologies.m[name]
	_, dr := r.drifts.m[name]
	_, de := r.delays.m[name]
	_, a := r.attacks.m[name]
	return t || dr || de || a
}

// Topology builds the named topology family at the given size. Randomized
// families use the seed; deterministic ones ignore it.
func (r *Registry) Topology(name string, size int, seed int64) (*Topology, error) {
	b, err := r.topologies.get(r, name)
	if err != nil {
		return nil, err
	}
	return b(size, seed)
}

// Drift returns a fresh instance of the named drift model.
func (r *Registry) Drift(name string) (DriftModel, error) {
	ctor, err := r.drifts.get(r, name)
	if err != nil {
		return nil, err
	}
	return ctor(), nil
}

// Delay returns a fresh instance of the named delay model.
func (r *Registry) Delay(name string) (DelayModel, error) {
	ctor, err := r.delays.get(r, name)
	if err != nil {
		return nil, err
	}
	return ctor(), nil
}

// Attack returns a fresh instance of the named Byzantine attack.
func (r *Registry) Attack(name string) (Attack, error) {
	ctor, err := r.attacks.get(r, name)
	if err != nil {
		return nil, err
	}
	return ctor(), nil
}

// TopologyNames lists the registered topology families, sorted.
func (r *Registry) TopologyNames() []string { return r.topologies.names(r) }

// DriftNames lists the registered drift models, sorted.
func (r *Registry) DriftNames() []string { return r.drifts.names(r) }

// DelayNames lists the registered delay models, sorted.
func (r *Registry) DelayNames() []string { return r.delays.names(r) }

// AttackNames lists the registered attacks, sorted.
func (r *Registry) AttackNames() []string { return r.attacks.names(r) }

// DefaultRegistry holds every built-in topology, drift model, delay model
// and attack, and is where RegisterDrift et al. (the package-level
// convenience functions) install user extensions.
var DefaultRegistry = newBuiltinRegistry()

func newBuiltinRegistry() *Registry {
	r := NewRegistry()

	r.RegisterTopology("line", func(size int, _ int64) (*Topology, error) { return Line(size), nil })
	r.RegisterTopology("ring", func(size int, _ int64) (*Topology, error) { return Ring(size), nil })
	r.RegisterTopology("grid", func(size int, _ int64) (*Topology, error) { return Grid(size, size), nil })
	r.RegisterTopology("torus", func(size int, _ int64) (*Topology, error) { return Torus(size, size), nil })
	r.RegisterTopology("tree", func(size int, _ int64) (*Topology, error) { return Tree(2, size), nil })
	r.RegisterTopology("clique", func(size int, _ int64) (*Topology, error) { return Clique(size), nil })
	r.RegisterTopology("star", func(size int, _ int64) (*Topology, error) { return Star(size), nil })
	r.RegisterTopology("hypercube", func(size int, _ int64) (*Topology, error) { return Hypercube(size), nil })
	r.RegisterTopology("random", func(size int, seed int64) (*Topology, error) {
		return Random(size, size/2, seed), nil
	})

	// Cluster-count estimators, saturating well past any sane budget so
	// huge parameters cannot overflow. These let spec validation reject
	// an oversized graph before the builder allocates it.
	const saturated = 1 << 30
	ident := func(size int) int { return size }
	square := func(size int) int {
		if size >= 1<<15 {
			return saturated
		}
		return size * size
	}
	pow2 := func(size int) int {
		if size < 0 {
			return 0
		}
		if size >= 30 {
			return saturated
		}
		return 1 << size
	}
	for _, name := range []string{"line", "ring", "clique", "star", "random"} {
		r.RegisterTopologySize(name, ident)
	}
	r.RegisterTopologySize("grid", square)
	r.RegisterTopologySize("torus", square)
	r.RegisterTopologySize("hypercube", pow2)
	r.RegisterTopologySize("tree", func(depth int) int { // Tree(2, depth): 2^(depth+1)−1 clusters
		if depth < 0 {
			return 0
		}
		if depth >= 30 {
			return saturated
		}
		return 1<<(depth+1) - 1
	})

	r.RegisterDrift("spread", func() DriftModel { return SpreadDrift{} })
	r.RegisterDrift("gradient", func() DriftModel { return GradientDrift{} })
	r.RegisterDrift("halves", func() DriftModel { return HalvesDrift{} })
	r.RegisterDrift("alternating", func() DriftModel { return AlternatingHalvesDrift{} })
	r.RegisterDrift("randomwalk", func() DriftModel { return RandomWalkDrift{} })
	r.RegisterDrift("sine", func() DriftModel { return SineDrift{} })
	r.RegisterDrift("none", func() DriftModel { return NoDrift{} })

	r.RegisterDelay("uniform", func() DelayModel { return UniformDelayModel{} })
	r.RegisterDelay("extremal", func() DelayModel { return ExtremalDelayModel{} })
	r.RegisterDelay("fixed-mid", func() DelayModel { return FixedMidDelayModel{} })
	r.RegisterDelay("phased-reveal", func() DelayModel { return PhasedRevealDelayModel{} })

	// The byzantine package's own catalog is the single source of truth
	// for the built-in attacks; every strategy registers under its
	// self-reported name. The strategies are stateless values (state is
	// created per Install), so sharing the instance is safe.
	for _, a := range byzantine.All() {
		a := a
		r.RegisterAttack(a.Name(), func() Attack { return a })
	}

	// Historical CLI spellings.
	for alias, canonical := range byzantine.Aliases() {
		r.RegisterAlias(alias, canonical)
	}

	return r
}

// Package-level convenience wrappers over DefaultRegistry.

// RegisterTopology installs a topology family in the default registry.
func RegisterTopology(name string, b TopologyBuilder) { DefaultRegistry.RegisterTopology(name, b) }

// RegisterTopologySize attaches a cluster-count estimator in the default
// registry, letting spec validation budget a custom family's resolved
// graph before its builder runs.
func RegisterTopologySize(name string, clusters func(size int) int) {
	DefaultRegistry.RegisterTopologySize(name, clusters)
}

// RegisterDrift installs a drift model in the default registry.
func RegisterDrift(name string, ctor func() DriftModel) { DefaultRegistry.RegisterDrift(name, ctor) }

// RegisterDelay installs a delay model in the default registry.
func RegisterDelay(name string, ctor func() DelayModel) { DefaultRegistry.RegisterDelay(name, ctor) }

// RegisterAttack installs a Byzantine attack in the default registry.
func RegisterAttack(name string, ctor func() Attack) { DefaultRegistry.RegisterAttack(name, ctor) }

// TopologyByName builds a topology from the default registry.
func TopologyByName(name string, size int, seed int64) (*Topology, error) {
	return DefaultRegistry.Topology(name, size, seed)
}

// DriftByName returns a drift model from the default registry.
func DriftByName(name string) (DriftModel, error) { return DefaultRegistry.Drift(name) }

// DelayByName returns a delay model from the default registry.
func DelayByName(name string) (DelayModel, error) { return DefaultRegistry.Delay(name) }

// AttackByName returns a Byzantine attack from the default registry.
func AttackByName(name string) (Attack, error) { return DefaultRegistry.Attack(name) }
