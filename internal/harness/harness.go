package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"ftgcs"
	"ftgcs/internal/params"
)

// RunConfig tunes experiment execution.
type RunConfig struct {
	// Quick shrinks sweeps and horizons (CI / benchmarks); full mode is
	// what the recorded reproduction tables use.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the scenario worker pool (≤0 selects GOMAXPROCS).
	// Results are identical for any worker count: every scenario is a
	// self-contained deterministic simulation, and rows are aggregated in
	// input order.
	Workers int
	// Progress, when non-nil, receives one line per sub-run.
	Progress io.Writer
	// NoReuse disables the sweep runner's system-reuse fast path, forcing
	// a fresh build per scenario. Tables are byte-identical either way
	// (that is the reset contract); the differential golden test runs both.
	NoReuse bool
	// Pool, when non-nil, shares built systems across this config's
	// sweeps (and with whatever else holds the pool): scenarios whose
	// build key matches a pooled system reset it instead of building.
	// Byte-invisible for the same reason NoReuse is — the pooled golden
	// test proves it across every experiment.
	Pool *ftgcs.SystemPool
	// Ctx, when non-nil, cancels in-flight simulations (the CLI wires
	// SIGINT here): the running experiment returns the context's error and
	// RunAll stops before starting the next one. Completed experiments'
	// tables are unaffected — cancellation truncates, never perturbs.
	Ctx context.Context
}

// ctx is the context every run of this config goes through: Ctx, or
// Background when the caller set none. The one place a nil context is
// tolerated; nothing below the harness ever sees one.
func (rc RunConfig) ctx() context.Context {
	if rc.Ctx != nil {
		return rc.Ctx
	}
	return context.Background()
}

func (rc RunConfig) progressf(format string, args ...any) {
	if rc.Progress != nil {
		fmt.Fprintf(rc.Progress, format+"\n", args...)
	}
}

// Experiment is one reproducible claim.
type Experiment struct {
	ID    string
	Title string
	Run   func(rc RunConfig) (*Table, error)
}

// physicalDefault returns the workhorse parameter configuration for the
// dynamic experiments. It trades the paper's proof constants (c₂=32,
// ε=1/4096 — feasible only at ρ ≲ 10⁻⁶ and with astronomically long
// rounds) for an aggressive-but-feasible corner (ρ=3·10⁻³, c₂=4, ε=1/4,
// k_stable=1) where trigger-level skews develop within simulable horizons.
// Experiments that probe the analysis constants themselves (E4, E14) also
// run the paper presets.
func physicalDefault() params.Config {
	return params.Config{
		Rho:         3e-3,
		Delay:       1e-3,
		Uncertainty: 1e-4,
		C2:          4,
		Eps:         0.25,
		KStable:     1,
		CGlobal:     8,
	}
}

// mustParams derives the default parameters; the configuration is
// validated by params tests, so failure here is a programming error.
func mustParams() params.Params {
	return params.MustDerive(physicalDefault())
}

// All returns the full experiment registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Local skew vs diameter (Theorem 1.1)", Run: runE1},
		{ID: "E2", Title: "Intra-cluster skew under attack (Corollary 3.2)", Run: runE2},
		{ID: "E3", Title: "Pulse-diameter convergence (Prop. B.14 / Eq. 9)", Run: runE3},
		{ID: "E4", Title: "Unanimous-mode amortized rates (Lemma 3.6)", Run: runE4},
		{ID: "E5", Title: "Trigger mutual exclusivity (Lemma 4.5)", Run: runE5},
		{ID: "E6", Title: "Global skew and max-estimates (Theorem C.3, Lemma C.2)", Run: runE6},
		{ID: "E7", Title: "Cluster failure probability (Inequality 1)", Run: runE7},
		{ID: "E8", Title: "One Byzantine node breaks plain GCS (§1)", Run: runE8},
		{ID: "E9", Title: "TreeSync baseline skew compression (§1, [15])", Run: runE9},
		{ID: "E10", Title: "Simulated GCS axioms (Prop. 4.11)", Run: runE10},
		{ID: "E11", Title: "Augmentation overheads (Theorem 1.1)", Run: runE11},
		{ID: "E12", Title: "Resilience boundary k ≥ 3f+1 ([3,12])", Run: runE12},
		{ID: "E13", Title: "Skew scaling in ρd+U (Theorem 1.1)", Run: runE13},
		{ID: "E14", Title: "Parameter feasibility region (Eq. 5/12)", Run: runE14},
	}
	sort.Slice(exps, func(i, j int) bool { return idNum(exps[i].ID) < idNum(exps[j].ID) })
	return exps
}

func idNum(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns the experiment (or ablation) with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range Ablations() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// RunAll executes every experiment, rendering tables to w. Completed
// tables are flushed as they finish, so a cancellation (rc.Ctx) loses
// only the experiment it interrupted.
func RunAll(rc RunConfig, w io.Writer) error {
	for _, e := range All() {
		if err := rc.ctx().Err(); err != nil {
			return err
		}
		rc.progressf("running %s: %s", e.ID, e.Title)
		tbl, err := e.Run(rc)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		tbl.Render(w)
	}
	return nil
}
