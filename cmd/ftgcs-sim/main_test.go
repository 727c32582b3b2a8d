package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI scenarios run full simulations")
	}
	tests := [][]string{
		{"-topology", "line", "-size", "3", "-duration", "2"},
		{"-topology", "ring", "-size", "4", "-duration", "2", "-attack", "silent", "-attack-count", "2"},
		{"-topology", "clique", "-size", "3", "-duration", "2", "-drift", "randomwalk"},
		{"-topology", "star", "-size", "4", "-duration", "2", "-drift", "none"},
		{"-topology", "tree", "-size", "2", "-duration", "2", "-drift", "sine"},
		{"-topology", "hypercube", "-size", "2", "-duration", "2"},
		{"-topology", "random", "-size", "5", "-duration", "2"},
		{"-topology", "grid", "-size", "2", "-duration", "2", "-attack", "adaptive"},
		{"-topology", "torus", "-size", "3", "-duration", "2", "-k", "1", "-f", "0"},
		{"-topology", "ring", "-size", "3", "-duration", "2", "-delay", "burst"},
		{"-topology", "line", "-size", "3", "-duration", "2", "-delay", "extremal"},
		{"-topology", "line", "-size", "3", "-duration", "2", "-seeds", "3", "-workers", "2"},
		{"-list"},
	}
	for _, args := range tests {
		if err := run(context.Background(), args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	export := filepath.Join(t.TempDir(), "series")
	tests := [][]string{
		{"-topology", "nonsense"},
		{"-drift", "nonsense"},
		{"-attack", "nonsense"},
		{"-delay", "nonsense"},
		{"-k", "2", "-f", "1"}, // k < 3f+1
		{"-rho", "0"},          // invalid physical params
		{"-u", "1"},            // U > d
		{"-badflag"},           // flag parse error
		// A sweep has no single series to export.
		{"-topology", "line", "-size", "2", "-duration", "1", "-seeds", "2", "-csv", export},
		{"-topology", "line", "-size", "2", "-duration", "1", "-seeds", "2", "-json", export},
	}
	for _, args := range tests {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
	if _, err := os.Stat(export); !os.IsNotExist(err) {
		t.Errorf("a rejected export wrote %s (stat: %v)", export, err)
	}
}

// TestRunSpecFiles runs every committed example spec through the -spec
// path, exercising the same codec the experiment service uses.
func TestRunSpecFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI scenarios run full simulations")
	}
	specs, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 2 {
		t.Fatalf("want ≥ 2 committed example specs, found %v", specs)
	}
	for _, path := range specs {
		jsonOut := filepath.Join(t.TempDir(), "series.json")
		if err := run(context.Background(), []string{"-spec", path, "-json", jsonOut}); err != nil {
			t.Errorf("run(-spec %s): %v", path, err)
			continue
		}
		if data, err := os.ReadFile(jsonOut); err != nil || !strings.Contains(string(data), `"series"`) {
			t.Errorf("spec %s: JSON series export missing or malformed (%v)", path, err)
		}
	}
}

func TestRunSpecErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"topology": {"name": "moebius", "size": 3}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-spec", bad}); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Errorf("bad spec: want unknown-topology error, got %v", err)
	}
	if err := run(context.Background(), []string{"-spec", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing spec file should error")
	}
	// A spec names its own seed; a sweep over it must be refused before
	// anything runs, not silently cut to one seed.
	if err := run(context.Background(), []string{"-spec", "../../examples/specs/line-quickstart.json", "-seeds", "3"}); err == nil || !strings.Contains(err.Error(), "-seeds") {
		t.Errorf("-spec with -seeds 3: want a -seeds error, got %v", err)
	}
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"topology": {"name": "line", "size": 3}, "sede": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-spec", typo}); err == nil || !strings.Contains(err.Error(), "sede") {
		t.Errorf("typo field: want unknown-field error, got %v", err)
	}
}
