package harness

import (
	"fmt"

	"ftgcs"
)

// runSweep executes the experiment's scenarios through the public Sweep
// runner — a bounded worker pool — and fails the experiment on the first
// scenario error. Results come back in input order, so the caller can zip
// them with its scenario descriptions and build table rows exactly as the
// old sequential loops did: tables are byte-identical for any worker
// count.
func (rc RunConfig) runSweep(scenarios []*ftgcs.Scenario) ([]ftgcs.SweepResult, error) {
	sw := ftgcs.Sweep{Workers: rc.Workers, BaseSeed: rc.Seed, NoReuse: rc.NoReuse, Pool: rc.Pool}
	results := sw.RunContext(rc.ctx(), scenarios)
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("scenario %d (%s): %w", r.Index, r.Name, r.Err)
		}
	}
	return results, nil
}
