package core

import (
	"bytes"
	"fmt"
	"testing"

	"ftgcs/internal/byzantine"
	"ftgcs/internal/graph"
	"ftgcs/internal/params"
)

// TestQueueWheelEngagedOnFlood guards the mechanism on a flood-shaped
// system: with the max-estimate flood on, nearly every event is a pulse due
// within d, so nearly every filing must go straight into the time wheel and
// a loaded bucket must hold only a few events. A span that no longer
// matches the delay model, or a wheel that stopped growing, fails here.
func TestQueueWheelEngagedOnFlood(t *testing.T) {
	p := testParams(t)
	sys, err := NewSystem(Config{
		Base: graph.Line(4), K: 4, F: 1, Params: p, Seed: 1,
		Delay:            UniformDelayModel{},
		Faults:           []FaultSpec{{Node: 0, Strategy: byzantine.TwoFaced{}}},
		EnableGlobalSkew: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * p.T); err != nil {
		t.Fatal(err)
	}
	st := sys.Engine().QueueStats()
	filed := st.FiledNear + st.FiledWheel + st.FiledCoarse + st.FiledFar
	if filed == 0 || st.BucketsLoaded == 0 {
		t.Fatalf("nothing went through the queue: %+v", st)
	}
	if share := float64(st.FiledWheel) / float64(filed); share < 0.9 {
		t.Errorf("%.1f %% of %d filings went straight to the wheel, want ≥ 90 %%: %+v", 100*share, filed, st)
	}
	if per := float64(st.EntriesLoaded) / float64(st.BucketsLoaded); per >= 4 {
		t.Errorf("%.2f entries per loaded bucket, want < 4: %+v", per, st)
	}
}

// TestQueueCoarseWheelHoldsRoundTimers guards the coarse wheel on a
// gradient-shaped system: with the flood off and the benchmark's constants
// (c₂ = 4, ε = 0.25), the phase and round-end timers of Algorithm 1 lie up
// to a round T ≈ 28 d ahead — beyond the fine wheel's d·9/8 but well inside
// the coarse wheel's 64 spans. So nearly every filing beyond the fine window
// must go coarse and almost none far; a span that stops matching the delay
// model, or a coarse window that shrinks, fails here.
func TestQueueCoarseWheelHoldsRoundTimers(t *testing.T) {
	p, err := params.Derive(params.Config{Rho: 3e-3, Delay: 1e-3, Uncertainty: 1e-4, C2: 4, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Base: graph.Grid(2, 2), K: 7, F: 2, Params: p, Seed: 1,
		Delay:  UniformDelayModel{},
		Faults: []FaultSpec{{Node: 0, Strategy: byzantine.TwoFaced{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * p.T); err != nil {
		t.Fatal(err)
	}
	st := sys.Engine().QueueStats()
	filed := st.FiledNear + st.FiledWheel + st.FiledCoarse + st.FiledFar
	beyond := st.FiledCoarse + st.FiledFar
	if beyond == 0 {
		t.Fatalf("no filing went beyond the fine window: %+v", st)
	}
	if share := float64(st.FiledCoarse) / float64(beyond); share < 0.95 {
		t.Errorf("%.1f %% of %d filings beyond the fine window went coarse, want ≥ 95 %%: %+v", 100*share, beyond, st)
	}
	if share := float64(st.FiledFar) / float64(filed); share >= 0.01 {
		t.Errorf("%.2f %% of %d filings went far, want < 1 %%: %+v", 100*share, filed, st)
	}
}

// TestQueueWheelIsUnobservable runs each scenario twice — with the wheel
// the network set up, and with the wheel switched off after the build — and
// requires equal summaries (Events included) and byte-equal series: where an
// event waits must not change when it fires.
func TestQueueWheelIsUnobservable(t *testing.T) {
	p := testParams(t)
	bases := []*graph.Graph{graph.Line(4), graph.Grid(2, 2)}
	delays := []DelayModel{UniformDelayModel{}, ExtremalDelayModel{}}
	for _, base := range bases {
		for _, delay := range delays {
			for _, flood := range []bool{false, true} {
				name := fmt.Sprintf("%s/%T/flood=%v", base.Name(), delay, flood)
				run := func(wheel bool) (Summary, []byte) {
					sys, err := NewSystem(Config{
						Base: base, K: 4, F: 1, Params: p, Seed: 3,
						Delay:            delay,
						Faults:           []FaultSpec{{Node: 1, Strategy: byzantine.TwoFaced{}}},
						EnableGlobalSkew: flood,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !wheel {
						sys.Engine().SetLookahead(0)
					}
					if err := sys.Run(20 * p.T); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					st := sys.Engine().QueueStats()
					if on := st.FiledWheel+st.FiledCoarse+st.FiledFar > 0; on != wheel {
						t.Fatalf("%s: wheel on = %v, want %v: %+v", name, on, wheel, st)
					}
					var series bytes.Buffer
					if err := sys.Recorder().WriteCSV(&series); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return sys.Summarize(0), series.Bytes()
				}
				onSum, onSeries := run(true)
				offSum, offSeries := run(false)
				if onSum != offSum {
					t.Errorf("%s: summaries differ:\n on  %+v\n off %+v", name, onSum, offSum)
				}
				if !bytes.Equal(onSeries, offSeries) {
					t.Errorf("%s: series bytes differ with the wheel off", name)
				}
				if onSum.Events == 0 || len(onSeries) == 0 {
					t.Errorf("%s: empty run", name)
				}
			}
		}
	}
}
