package harness

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestParallelTablesMatchSequential is the harness-level determinism
// guarantee: running the sweep-based quick experiments on a parallel
// worker pool produces byte-identical tables to the sequential path for a
// fixed seed.
func TestParallelTablesMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations twice")
	}
	ids := []string{"E2", "E3", "E12", "A3"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			exp, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(workers int) string {
				tbl, err := exp.Run(RunConfig{Quick: true, Seed: 1, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var buf bytes.Buffer
				tbl.Render(&buf)
				return buf.String()
			}
			sequential := render(1)
			parallel := render(8)
			if sequential != parallel {
				t.Errorf("tables differ between 1 and 8 workers:\n--- sequential ---\n%s--- parallel ---\n%s",
					sequential, parallel)
			}
		})
	}
}

// TestExperimentsHonorCancellation pins RunConfig.Ctx's contract: under a
// pre-canceled context every experiment and ablation that simulates — all
// but the static E5/E7/E11/E14, which only evaluate formulas — returns an
// error wrapping context.Canceled instead of running to completion.
func TestExperimentsHonorCancellation(t *testing.T) {
	static := map[string]bool{"E5": true, "E7": true, "E11": true, "E14": true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, exp := range append(All(), Ablations()...) {
		tbl, err := exp.Run(RunConfig{Quick: true, Seed: 1, Ctx: ctx})
		switch {
		case static[exp.ID]:
			if err != nil || tbl == nil {
				t.Errorf("%s (static): table %v, err %v", exp.ID, tbl != nil, err)
			}
		case !errors.Is(err, context.Canceled):
			t.Errorf("%s: err = %v, want context.Canceled", exp.ID, err)
		}
	}
}
