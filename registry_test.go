package ftgcs

import (
	"strings"
	"testing"
)

// TestRegistryBuiltins checks that every built-in is resolvable and that
// each attack's registered CLI name matches its self-reported Name() (the
// name parity byzantine.All() registration relies on).
func TestRegistryBuiltins(t *testing.T) {
	reg := DefaultRegistry

	for _, name := range reg.DriftNames() {
		if _, err := reg.Drift(name); err != nil {
			t.Errorf("Drift(%q): %v", name, err)
		}
	}
	for _, name := range reg.DelayNames() {
		if _, err := reg.Delay(name); err != nil {
			t.Errorf("Delay(%q): %v", name, err)
		}
	}
	for _, name := range reg.AttackNames() {
		a, err := reg.Attack(name)
		if err != nil {
			t.Errorf("Attack(%q): %v", name, err)
			continue
		}
		if a.Name() != name {
			t.Errorf("attack %q constructs strategy named %q", name, a.Name())
		}
	}
}

// TestRegistryTopologies checks every registered family builds a graph of
// the expected size.
func TestRegistryTopologies(t *testing.T) {
	wantN := map[string]int{
		"line":      4,
		"ring":      4,
		"clique":    4,
		"star":      4,
		"grid":      16, // size is the side length
		"torus":     16,
		"hypercube": 16, // size is the dimension: 2^4
		"tree":      0,  // checked for connectivity only (size = depth)
		"random":    4,
	}
	for _, name := range DefaultRegistry.TopologyNames() {
		g, err := TopologyByName(name, 4, 1)
		if err != nil {
			t.Errorf("Topology(%q): %v", name, err)
			continue
		}
		if g.N() == 0 || g.Diameter() < 0 {
			t.Errorf("topology %q: empty or disconnected (N=%d)", name, g.N())
		}
		if want, ok := wantN[name]; !ok {
			t.Errorf("topology %q missing from size expectations", name)
		} else if want > 0 && g.N() != want {
			t.Errorf("topology %q size 4: N=%d, want %d", name, g.N(), want)
		}
	}
}

// TestRegistryAliases checks the historical CLI spellings resolve to their
// canonical attacks.
func TestRegistryAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"adaptive": "adaptive-two-faced",
		"cadence":  "cadence-two-faced",
		"twofaced": "two-faced",
		"maxspam":  "max-spam",
	} {
		a, err := AttackByName(alias)
		if err != nil {
			t.Errorf("alias %q: %v", alias, err)
			continue
		}
		if a.Name() != canonical {
			t.Errorf("alias %q resolved to %q, want %q", alias, a.Name(), canonical)
		}
	}
}

// TestRegistryUnknownNames checks unknown lookups fail with an error that
// lists what is available.
func TestRegistryUnknownNames(t *testing.T) {
	if _, err := DriftByName("nope"); err == nil || !strings.Contains(err.Error(), "spread") {
		t.Errorf("unknown drift error should list names, got: %v", err)
	}
	if _, err := DelayByName("nope"); err == nil || !strings.Contains(err.Error(), "uniform") {
		t.Errorf("unknown delay error should list names, got: %v", err)
	}
	if _, err := AttackByName("nope"); err == nil || !strings.Contains(err.Error(), "silent") {
		t.Errorf("unknown attack error should list names, got: %v", err)
	}
	if _, err := TopologyByName("nope", 4, 1); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Errorf("unknown topology error should list names, got: %v", err)
	}
}

// TestRegistryAliasPrecedence checks an exact registration beats an alias
// (a user may take over a spelling the built-ins alias), aliases don't
// leak across catalogs, and an alias cannot shadow a canonical name.
func TestRegistryAliasPrecedence(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterAttack("adaptive-two-faced", func() Attack { return AdaptiveTwoFaced() })
	reg.RegisterAlias("adaptive", "adaptive-two-faced")

	// The alias must not satisfy a different catalog's lookup…
	if _, err := reg.Drift("adaptive"); err == nil {
		t.Error("alias resolved in the wrong catalog")
	}
	// …and a later exact registration under the alias spelling wins.
	reg.RegisterDrift("adaptive", func() DriftModel { return NoDrift{} })
	if m, err := reg.Drift("adaptive"); err != nil || m != (NoDrift{}) {
		t.Errorf("exact drift registration lost to alias: %v %v", m, err)
	}
	reg.RegisterAttack("adaptive", func() Attack { return TwoFaced() })
	if a, err := reg.Attack("adaptive"); err != nil || a.Name() != "two-faced" {
		t.Errorf("exact attack registration lost to alias: %v %v", a, err)
	}

	defer func() {
		if recover() == nil {
			t.Error("alias shadowing a canonical name should panic")
		}
	}()
	reg.RegisterAlias("adaptive-two-faced", "somewhere-else")
}

// TestRegistryAliasRequiresTarget checks a typo'd canonical name fails
// loudly at registration instead of creating a dead alias.
func TestRegistryAliasRequiresTarget(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("alias to an unregistered name should panic")
		}
	}()
	reg.RegisterAlias("fast", "burst-delay") // nothing named burst-delay exists
}

// TestRegistryCustomRegistration checks the extension path: a custom model
// registered in a fresh registry resolves, and duplicates panic.
func TestRegistryCustomRegistration(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Drift("spread"); err == nil {
		t.Error("fresh registry should be empty")
	}
	reg.RegisterDrift("custom", func() DriftModel { return NoDrift{} })
	if m, err := reg.Drift("custom"); err != nil || m == nil {
		t.Errorf("custom drift: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	reg.RegisterDrift("custom", func() DriftModel { return NoDrift{} })
}
