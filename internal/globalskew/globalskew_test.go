package globalskew

import (
	"math"
	"math/rand"
	"testing"

	"ftgcs/internal/clockwork"
	"ftgcs/internal/graph"
	"ftgcs/internal/sim"
)

func singleGroup(members ...graph.NodeID) [][]graph.NodeID {
	return [][]graph.NodeID{members}
}

func TestLocalGrowthRate(t *testing.T) {
	eng := sim.NewEngine()
	rho := 1e-3
	hw := clockwork.NewHardwareClock(clockwork.Constant{Rate: 1 + rho})
	var sent int
	e, err := New(eng, Config{
		Unit: 0.1, Rho: rho, F: 1, Groups: singleGroup(1, 2, 3, 4),
		HW:   hw,
		Send: func(tt float64, copies int) { sent += copies },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(10.05); err != nil {
		t.Fatal(err)
	}
	// M grows at (1+ρ)/(1+ρ) = 1 exactly; at t=10.05, M = 10.05.
	now := eng.Now()
	if got := e.Value(now); math.Abs(got-now) > 1e-9 {
		t.Errorf("M(%v) = %v, want %v", now, got, now)
	}
	// Levels at multiples of 0.1 → 100 pulses by t=10.05 (the level-100
	// event lands at t=10 up to float rounding).
	if sent != 100 {
		t.Errorf("sent %d pulses, want 100", sent)
	}
	if e.Stats().LocalLevels != 100 {
		t.Errorf("stats: %+v", e.Stats())
	}
}

func TestSlowClockGrowsSlower(t *testing.T) {
	eng := sim.NewEngine()
	rho := 1e-3
	hw := clockwork.NewHardwareClock(clockwork.Constant{Rate: 1})
	e, err := New(eng, Config{
		Unit: 0.1, Rho: rho, F: 0, Groups: singleGroup(1),
		HW: hw, Send: func(float64, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	// M = 100/(1+ρ) < 100: conservative by construction.
	want := 100 / (1 + rho)
	if got := e.Value(100); math.Abs(got-want) > 1e-9 {
		t.Errorf("M(100) = %v, want %v", got, want)
	}
}

func TestAdoptionNeedsFPlusOne(t *testing.T) {
	eng := sim.NewEngine()
	hw := clockwork.NewHardwareClock(clockwork.Constant{Rate: 1})
	var sent int
	e, err := New(eng, Config{
		Unit: 1.0, Rho: 1e-3, F: 1, Groups: singleGroup(1, 2, 3, 4),
		HW:   hw,
		Send: func(tt float64, copies int) { sent += copies },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// One (possibly Byzantine) sender claims level 5: must NOT be adopted.
	eng.MustSchedule(0.01, "byz", func(*sim.Engine) {
		for i := 0; i < 5; i++ {
			e.HandleMaxPulse(0.01, 0) // member 1
		}
	})
	if err := eng.Run(0.02); err != nil {
		t.Fatal(err)
	}
	if got := e.Value(0.02); got > 0.1 {
		t.Errorf("M adopted a single-sender claim: %v", got)
	}
	// A second sender confirms level 5 → adopt 6·unit.
	eng.MustSchedule(0.03, "honest", func(*sim.Engine) {
		for i := 0; i < 5; i++ {
			e.HandleMaxPulse(0.03, 1) // member 2
		}
	})
	if err := eng.Run(0.04); err != nil {
		t.Fatal(err)
	}
	if got := e.Value(0.04); math.Abs(got-6) > 0.01 {
		t.Errorf("M after confirmation = %v, want ≈ 6", got)
	}
	// The jump must have emitted the skipped pulses (levels 1..6).
	if sent < 6 {
		t.Errorf("sent %d pulses after jump, want ≥ 6", sent)
	}
	if e.Stats().AdoptedLevels == 0 {
		t.Error("adoption not recorded")
	}
}

func TestUnknownSenderIgnored(t *testing.T) {
	eng := sim.NewEngine()
	hw := clockwork.NewHardwareClock(clockwork.Constant{Rate: 1})
	e, err := New(eng, Config{
		Unit: 1, Rho: 1e-3, F: 0, Groups: singleGroup(1),
		HW: hw, Send: func(float64, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	e.HandleMaxPulse(0, -1)
	if e.Stats().Ignored != 1 {
		t.Error("a negative sender index should be ignored and counted")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	hw := clockwork.NewHardwareClock(clockwork.Constant{Rate: 1})
	send := func(float64, int) {}
	if _, err := New(eng, Config{Unit: 0, Rho: 1e-3, HW: hw, Send: send}); err == nil {
		t.Error("zero unit accepted")
	}
	if _, err := New(eng, Config{Unit: 1, Rho: 1e-3, Send: send}); err == nil {
		t.Error("nil HW accepted")
	}
	if _, err := New(eng, Config{Unit: 1, Rho: 1e-3, HW: hw}); err == nil {
		t.Error("nil Send accepted")
	}
}

// confirmedLevel is the order statistic as the estimator computed it on
// every pulse before it became incremental, moved here unchanged as the
// oracle: the largest ℓ such that at least f+1 members have delivered ≥ ℓ
// pulses (0 when fewer than f+1 members have sent anything). scratch is an
// empty slice with sufficient capacity, or nil.
func confirmedLevel(members []graph.NodeID, counts map[graph.NodeID]int, f int, scratch []int) int {
	if len(members) < f+1 {
		return 0
	}
	// Collect counts and find the (f+1)-th largest.
	best := scratch
	for _, m := range members {
		best = append(best, counts[m])
	}
	// Partial selection: we need the (f+1)-th largest value.
	// Simple approach given small k: sort descending by insertion.
	for i := 1; i < len(best); i++ {
		for j := i; j > 0 && best[j] > best[j-1]; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	return best[f]
}

func TestConfirmedLevel(t *testing.T) {
	counts := map[graph.NodeID]int{1: 5, 2: 3, 3: 0, 4: 7}
	members := []graph.NodeID{1, 2, 3, 4}
	tests := []struct {
		f    int
		want int
	}{
		{0, 7}, // largest
		{1, 5}, // 2nd largest
		{2, 3},
		{3, 0},
	}
	for _, tc := range tests {
		if got := confirmedLevel(members, counts, tc.f, nil); got != tc.want {
			t.Errorf("f=%d: confirmedLevel = %d, want %d", tc.f, got, tc.want)
		}
	}
	if got := confirmedLevel([]graph.NodeID{1}, counts, 1, nil); got != 0 {
		t.Errorf("too few members should confirm 0, got %d", got)
	}
}

// TestIncrementalConfirmedMatchesOracle drives random pulse sequences
// through estimators of every small shape — k ∈ 1..7 members per group,
// f ∈ 0..2 (so groups smaller than f+1 occur), two groups with scattered
// non-contiguous IDs, negative sender indices mixed in, a Reset in the
// middle —
// and after every pulse compares each group's incrementally maintained
// confirmed level with the sort-based oracle over shadow counts. The unit
// is huge and the clock still, so no adoption ever moves M: only the
// order statistic is under test.
func TestIncrementalConfirmedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 7; k++ {
		for f := 0; f <= 2; f++ {
			// IDs are spread out and interleaved between the groups.
			groups := make([][]graph.NodeID, 2)
			for i := 0; i < k; i++ {
				groups[0] = append(groups[0], graph.NodeID(1000-37*i))
				groups[1] = append(groups[1], graph.NodeID(5+74*i))
			}
			eng := sim.NewEngine()
			e, err := New(eng, Config{
				Unit: 1e12, Rho: 1e-3, F: f, Groups: groups,
				HW:   clockwork.NewHardwareClock(clockwork.Constant{Rate: 1}),
				Send: func(float64, int) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			shadow := make(map[graph.NodeID]int)
			check := func(step int) {
				t.Helper()
				for gi, members := range groups {
					want := confirmedLevel(members, shadow, f, nil)
					if got := e.groups[gi].confirmed; got != want {
						t.Fatalf("k=%d f=%d step %d group %d: confirmed %d, oracle %d (counts %v)",
							k, f, step, gi, got, want, shadow)
					}
					if e.groups[gi].above > f {
						t.Fatalf("k=%d f=%d step %d group %d: above = %d > f", k, f, step, gi, e.groups[gi].above)
					}
				}
			}
			var heard, ignored uint64
			for step := 0; step < 600; step++ {
				if step == 300 {
					e.Reset()
					clear(shadow)
					heard, ignored = 0, 0
					check(step)
				}
				// Skewed sender choice: a few members run far ahead, as a
				// Byzantine spammer would, the rest trail.
				g := rng.Intn(2)
				pos := int(float64(k) * math.Pow(rng.Float64(), 2))
				idx := g*k + pos // the sender's index in the groups' concatenation
				if rng.Intn(10) == 0 {
					idx = -1 - rng.Intn(50) // names no sender
					ignored++
				} else {
					shadow[groups[g][pos]]++
					heard++
				}
				e.HandleMaxPulse(0, idx)
				check(step)
			}
			if st := e.Stats(); st.PulsesHeard != heard || st.Ignored != ignored {
				t.Errorf("k=%d f=%d: stats %+v, want %d heard, %d ignored", k, f, st, heard, ignored)
			}
		}
	}
}

// TestHandleMaxPulseZeroAllocs pins the flood's hot path: a max pulse
// allocates nothing, whether it only counts, confirms a level, or adopts
// one and re-arms the level timer.
func TestHandleMaxPulseZeroAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := sim.NewEngine()
	e, err := New(eng, Config{
		Unit: 1, Rho: 1e-3, F: 1, Groups: [][]graph.NodeID{{1, 2, 3, 4}, {11, 12, 13, 14}},
		HW:   clockwork.NewHardwareClock(clockwork.Constant{Rate: 1}),
		Send: func(float64, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	i := 0
	pulse := func() {
		e.HandleMaxPulse(0, i%4)   // group {1, 2, 3, 4}
		e.HandleMaxPulse(0, 4+i%4) // group {11, 12, 13, 14}
		i++
	}
	for j := 0; j < 8; j++ {
		pulse() // warm the engine's event pool
	}
	if avg := testing.AllocsPerRun(200, pulse); avg != 0 {
		t.Errorf("HandleMaxPulse allocates %.2f per call pair, want 0", avg)
	}
	if e.Stats().AdoptedLevels == 0 {
		t.Fatal("the pinned path never adopted a level")
	}
}

// TestDuplicateSenderRejected: a sender confirms levels for one group only.
func TestDuplicateSenderRejected(t *testing.T) {
	_, err := New(sim.NewEngine(), Config{
		Unit: 1, Rho: 1e-3, F: 0, Groups: [][]graph.NodeID{{1, 2}, {2, 3}},
		HW:   clockwork.NewHardwareClock(clockwork.Constant{Rate: 1}),
		Send: func(float64, int) {},
	})
	if err == nil {
		t.Error("a sender listed in two groups was accepted")
	}
}

func TestFloodingChain(t *testing.T) {
	// Three estimators in a chain of clusters; a level wave injected at
	// node 0's group propagates: estimator B adopts from group A, and its
	// re-emitted pulses let estimator C adopt from group B.
	eng := sim.NewEngine()
	mk := func(groups [][]graph.NodeID, send func(float64, int)) *Estimator {
		hw := clockwork.NewHardwareClock(clockwork.Constant{Rate: 1})
		e, err := New(eng, Config{Unit: 1, Rho: 1e-3, F: 1, Groups: groups, HW: hw, Send: send})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Group 0 = {1,2,3,4} feeds B; group 1 = {11,12,13,14} feeds C.
	var c *Estimator
	relayDelay := 0.001
	b := mk([][]graph.NodeID{{1, 2, 3, 4}}, func(tt float64, copies int) {
		// B's own pulses reach C attributed to B's ID (11) and a
		// corroborating group member (12) — modeling f+1 correct members
		// of B's cluster raising their estimates near-simultaneously.
		for i := 0; i < copies; i++ {
			eng.MustSchedule(tt+relayDelay, "relay", func(e2 *sim.Engine) {
				c.HandleMaxPulse(e2.Now(), 0) // member 11
				c.HandleMaxPulse(e2.Now(), 1) // member 12
			})
		}
	})
	c = mk([][]graph.NodeID{{11, 12, 13, 14}}, func(float64, int) {})

	// Two members of group 0 claim level 4.
	eng.MustSchedule(0.01, "inject", func(e2 *sim.Engine) {
		for i := 0; i < 4; i++ {
			b.HandleMaxPulse(e2.Now(), 0) // member 1
			b.HandleMaxPulse(e2.Now(), 1) // member 2
		}
	})
	if err := eng.Run(0.05); err != nil {
		t.Fatal(err)
	}
	// After adoption M keeps growing locally at rate ≈ 1, so by t=0.05 the
	// value is the adopted level plus up to 0.05 of local growth.
	if got := b.Value(0.05); got < 5 || got > 5.06 {
		t.Errorf("B adopted %v, want in [5, 5.06]", got)
	}
	// C heard 5 confirmed levels from B's group (both 11 and 12 delivered
	// 5 pulses) → adopts 6·unit.
	if got := c.Value(0.05); got < 6 || got > 6.06 {
		t.Errorf("C adopted %v, want in [6, 6.06]", got)
	}
}

func BenchmarkHandleMaxPulse(b *testing.B) {
	eng := sim.NewEngine()
	hw := clockwork.NewHardwareClock(clockwork.Constant{Rate: 1})
	e, err := New(eng, Config{Unit: 1e9, Rho: 1e-3, F: 2,
		Groups: singleGroup(1, 2, 3, 4, 5, 6, 7), HW: hw, Send: func(float64, int) {}})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.HandleMaxPulse(0, i%7)
	}
}
