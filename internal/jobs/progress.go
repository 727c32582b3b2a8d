package jobs

import (
	"sync"

	"ftgcs"
)

// progressTracker aggregates live progress across one job's scenario
// runs — one for single jobs, N for replication jobs, several possibly
// in-flight at once on the sweep pool. Sweep workers write it; status
// snapshots read it concurrently. A run's contribution freezes at its
// final value when it finishes, so the aggregate is monotone.
type progressTracker struct {
	mu           sync.Mutex
	n            int // total runs (replicate count)
	inFlight     map[int]trackedRun
	doneEvents   uint64
	doneFraction float64
	doneRuns     int
	// onDone, when set, fires under mu as each run finishes with the
	// new done count — the ordering guarantee lets the manager emit
	// "running[replicate i/n]" trace phases in completion order even
	// when sweep workers finish out of order.
	onDone func(done, total int)
}

// progressSource is the slice of *ftgcs.System the tracker needs: a
// monotone, cross-goroutine-safe progress snapshot. Narrowing to an
// interface keeps the tracker testable with deterministic fakes.
type progressSource interface {
	Progress() ftgcs.Progress
}

type trackedRun struct {
	src     progressSource
	horizon float64
}

func newProgressTracker(n int) *progressTracker {
	return &progressTracker{n: n, inFlight: make(map[int]trackedRun)}
}

// runFraction is a run's share of its own horizon, clamped to [0, 1].
func runFraction(now, horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	if now >= horizon {
		return 1
	}
	return now / horizon
}

// start registers an in-flight system (Sweep.OnSystemStart).
func (p *progressTracker) start(index int, sys *ftgcs.System, horizon float64) {
	p.startRun(index, sys, horizon)
}

// startRun is start over the narrow progressSource interface.
func (p *progressTracker) startRun(index int, src progressSource, horizon float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inFlight[index] = trackedRun{src: src, horizon: horizon}
}

// done freezes a finished run's contribution (Sweep.OnScenarioDone).
// Sweep also reports interrupted and undispatched scenarios, with Err
// set; those keep the events they executed but are not completed
// replicates, so they neither count nor fire onDone.
func (p *progressTracker) done(index int, res ftgcs.SweepResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tr, ok := p.inFlight[index]; ok {
		delete(p.inFlight, index)
		sp := tr.src.Progress()
		p.doneEvents += sp.Events
		p.doneFraction += runFraction(sp.Now, tr.horizon)
	}
	if res.Err != nil {
		return
	}
	p.doneRuns++
	if p.onDone != nil {
		p.onDone(p.doneRuns, p.n)
	}
}

// snapshot sums frozen and live contributions.
func (p *progressTracker) snapshot() Progress {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr := Progress{Events: p.doneEvents, Replicate: p.doneRuns, Replicates: p.n}
	frac := p.doneFraction
	for _, tr := range p.inFlight {
		sp := tr.src.Progress()
		pr.Events += sp.Events
		frac += runFraction(sp.Now, tr.horizon)
	}
	if p.n > 0 {
		pr.SimFraction = frac / float64(p.n)
	}
	return pr
}
