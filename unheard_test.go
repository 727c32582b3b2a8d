package ftgcs

import (
	"bytes"
	"fmt"
	"testing"

	"ftgcs/internal/transport"
)

// listening wraps an Attack so that its node always has a pulse handler:
// wherever the inner Install returns none it supplies one that does
// nothing. Under it the transport schedules every delivery, as it did
// before it learned to skip receivers nobody listens at — the reference arm
// for "a skipped delivery is unobservable".
type listening struct{ inner Attack }

func (l listening) Name() string { return l.inner.Name() }

func (l listening) Install(ctx AttackContext) (PulseHandler, error) {
	h, err := l.inner.Install(ctx)
	if h == nil && err == nil {
		h = func(float64, transport.Pulse) {}
	}
	return h, err
}

// eagerSender pulses every neighbor from inside Install, before the nodes
// after it in build order exist. Whether those pulses are scheduled depends
// on which handlers are registered at that instant, so it is the probe for
// "Reset registers handlers in build order".
type eagerSender struct{}

func (eagerSender) Name() string { return "eager-sender" }

func (eagerSender) Install(ctx AttackContext) (PulseHandler, error) {
	for _, to := range ctx.Neighbors {
		for _, kind := range []transport.Kind{transport.PulseClock, transport.PulseMax} {
			if err := ctx.Net.SendTo(ctx.Eng.Now(), ctx.Self, to, kind); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// seriesBytes is every recorded series in both export forms.
func seriesBytes(t *testing.T, sys *System) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestUnheardDeliveriesAreUnobservable runs each scenario twice — as is,
// where sends to the handlerless attacker are never scheduled, and with the
// attacker wrapped in listening, where all of them are — and requires the
// two runs to be the same run: equal Reports and byte-equal series, apart
// from Events, which differs by exactly the skipped sends (less the ones
// that would still be in flight at the horizon). The delay models cover
// both a shared random stream, where a skipped sample would shift every
// later delay, and a deterministic one.
func TestUnheardDeliveriesAreUnobservable(t *testing.T) {
	topologies := map[string]func() *Topology{
		"line4":   func() *Topology { return Line(4) },
		"grid2x2": func() *Topology { return Grid(2, 2) },
	}
	for topoName, topo := range topologies {
		for _, attack := range []string{"two-faced", "silent"} {
			for _, delay := range []string{"uniform", "extremal"} {
				t.Run(fmt.Sprintf("%s/%s/%s", topoName, attack, delay), func(t *testing.T) {
					inner, err := AttackByName(attack)
					if err != nil {
						t.Fatal(err)
					}
					base := NewScenario(
						WithTopology(topo()),
						WithClusters(4, 1),
						WithDelayName(delay),
						WithHorizon(2),
					)
					// One attacker in each of the first two clusters.
					skipped := runFresh(t, base.With(WithAttack(inner, 3, 7)), 5)
					heard := runFresh(t, base.With(WithAttack(listening{inner}, 3, 7)), 5)

					sr, hr := skipped.Report(), heard.Report()
					ss, hs := skipped.sys.Network().Stats(), heard.sys.Network().Stats()
					if ss.Unheard == 0 || hs.Unheard != 0 {
						t.Fatalf("unheard sends: %d skipping, %d listening; want > 0 and 0", ss.Unheard, hs.Unheard)
					}
					if hs.Sends != ss.Sends+ss.Unheard || hs.Broadcasts != ss.Broadcasts {
						t.Errorf("listening run: %+v, skipping run: %+v; want equal broadcasts and sends + unheard", hs, ss)
					}
					// Core delivers nothing but sends through the handlers, so
					// sends − delivered is what the horizon cut off.
					inFlight := (hs.Sends - hs.Delivered) - (ss.Sends - ss.Delivered)
					if got, want := hr.Events-sr.Events, ss.Unheard-inFlight; got != want {
						t.Errorf("events differ by %d, want %d (%d unheard − %d in flight)", got, want, ss.Unheard, inFlight)
					}
					sr.Events, hr.Events = 0, 0
					if sr != hr {
						t.Errorf("reports differ beyond Events:\nskipping:  %+v\nlistening: %+v", sr, hr)
					}
					if seriesBytes(t, skipped) != seriesBytes(t, heard) {
						t.Error("series bytes differ between the skipping and the listening run")
					}
				})
			}
		}
	}
}

// TestInstallTimeSendsSurviveReset closes the build-order hazard of the
// send-time rule: a strategy that sends from inside Install reaches only
// the nodes built before it, so a Reset — and therefore a pooled
// acquisition — must re-register handlers in build order or it would
// schedule pulses a fresh build drops. Fresh, reset and pooled runs must
// agree on everything observable, Events and transport counters included.
func TestInstallTimeSendsSurviveReset(t *testing.T) {
	sc := NewScenario(
		WithTopology(Line(4)),
		WithClusters(4, 1),
		WithAttack(eagerSender{}, 5),
		WithHorizon(2),
	)
	const seedA, seedB = 7, 99
	fresh := runFresh(t, sc, seedB)
	want, wantStats := dumpSystem(t, fresh), fresh.sys.Network().Stats()
	if wantStats.Unheard == 0 {
		t.Fatal("the probe sent nothing to a not-yet-built node")
	}
	h := sc.Horizon(fresh.Params())

	check := func(how string, sys *System) {
		t.Helper()
		if err := sys.Run(h); err != nil {
			t.Fatal(err)
		}
		if got := sys.sys.Network().Stats(); got != wantStats {
			t.Errorf("%s: transport stats %+v, fresh build %+v", how, got, wantStats)
		}
		if got := dumpSystem(t, sys); got != want {
			t.Errorf("%s run differs from the fresh build", how)
		}
	}

	reset := runFresh(t, sc, seedA)
	if err := reset.Reset(seedB); err != nil {
		t.Fatal(err)
	}
	check("reset", reset)

	pool := NewSystemPool(1)
	pool.Release(sc, runFresh(t, sc, seedA))
	pooled := pool.Acquire(sc.With(WithSeed(seedB)))
	if pooled == nil {
		t.Fatal("the pool did not hand the system back")
	}
	check("pooled", pooled)
}
