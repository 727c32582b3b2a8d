package ftgcs

import (
	"context"
	"errors"
	"fmt"

	"ftgcs/internal/metrics"
	"ftgcs/internal/sim"
)

// Backend is the minimal simulation surface a Scenario needs to run to a
// horizon and be measured. It has two implementations: core.System (the
// only Algorithm 1 in the repository), which satisfies it as is, and, through
// WithBackend, internal/baseline's TreeSync — the comparison baseline of
// experiment E9, which thereby runs through the same Sweep machinery, job
// manager and result pipeline instead of a hand-rolled sequential loop.
type Backend interface {
	// RunContext advances simulated time to the given horizon (seconds).
	// Canceling ctx is the only way to stop it early: a done context
	// aborts the run with ctx.Err() after the in-flight event, leaving
	// simulated time where the run stopped. The executed event prefix is
	// byte-identical to an uncanceled run. ctx is never nil — an
	// uncancelable run receives context.Background().
	RunContext(ctx context.Context, until float64) error
	// Now returns the current simulated time.
	Now() float64
	// Progress returns a snapshot of the run (events executed, current
	// simulated time); unlike every other method it must be safe to call
	// from any goroutine while a run is in flight.
	Progress() Progress
	// Summarize condenses the run: maxima of every recorded skew series
	// after the warmup prefix.
	Summarize(warmup float64) Summary
	// Recorder exposes the recorded metric series.
	Recorder() *metrics.Recorder
	// Diameter returns the hop diameter of the base graph (bound
	// denominators in Report).
	Diameter() int
}

// ErrNotResettable is returned by System.Reset on a system driven by a
// custom Backend (WithBackend): only the standard core system carries the
// reset contract.
var ErrNotResettable = errors.New("ftgcs: backend does not support reset")

// Progress is a cross-goroutine-safe snapshot of a running system: how
// many simulation events have executed (Events) and how far simulated
// time has advanced (Now, seconds). Both fields are monotone within one
// run.
type Progress = sim.Progress

// Reset rewinds the system to a fresh pre-run state under the new seed,
// reusing every structure Build allocated. A subsequent Run produces
// output byte-identical to a freshly built System with that seed and the
// same structural build inputs — note a system built from a randomized
// named topology keeps its already-drawn graph (reset never redraws
// structure; the Sweep reuse path therefore only kicks in for scenarios
// sharing a pinned *Topology). Returns ErrNotResettable for a custom
// backend (the caller should rebuild instead); any other error leaves the
// system in an undefined state — discard it. Values read from a previous
// run that alias live system state (Series pointers, RoundTrace slices)
// are invalidated by a Reset: clone what must outlive it.
func (s *System) Reset(seed int64) error {
	if s.sys == nil {
		return ErrNotResettable
	}
	return s.sys.Reset(seed)
}

// BackendBuilder constructs a custom simulation backend from the
// scenario's resolved seed and derived algorithm constants.
type BackendBuilder func(seed int64, p Params) (Backend, error)

// WithBackend routes the scenario through a custom simulation backend
// instead of the standard core system build. The scenario's topology
// options are ignored (the backend wires its own network); physical
// parameters, preset/constants, seed and horizon apply as usual. On the
// resulting System, core-specific accessors (Logical, Estimate,
// PulseDiameters, …) are inert — Run, Report, Summary, Series and
// WriteCSV are the supported surface.
func WithBackend(build BackendBuilder) Option {
	return func(s *Scenario) { s.backend = build }
}

// buildBackend resolves parameters and constructs the custom backend.
func (s *Scenario) buildBackend() (*System, error) {
	p, err := s.resolveParams()
	if err != nil {
		return nil, err
	}
	b, err := s.backend(s.seed, p)
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("ftgcs: scenario %q backend builder returned nil", s.name)
	}
	return &System{b: b, p: p}, nil
}
