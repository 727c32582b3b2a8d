package harness

import (
	"fmt"
	"math"
	"sort"

	"ftgcs"
	"ftgcs/internal/byzantine"
	"ftgcs/internal/core"
	"ftgcs/internal/graph"
	"ftgcs/internal/metrics"
	"ftgcs/internal/params"
)

// runE2 — Corollary 3.2: within a cluster of k ≥ 3f+1 nodes, the skew
// between correct members stays below 2·ϑ_g·E under every attack strategy.
func runE2(rc RunConfig) (*Table, error) {
	p := mustParams()
	rounds := 400.0
	if rc.Quick {
		rounds = 150
	}
	type cfg struct {
		k, f int
	}
	sizes := []cfg{{4, 1}, {7, 2}}
	if rc.Quick {
		sizes = []cfg{{4, 1}}
	}
	strategies := append([]byzantine.Strategy{nil}, byzantine.All()...)

	type variant struct {
		k, f int
		name string
	}
	var variants []variant
	var scenarios []*ftgcs.Scenario
	for _, sz := range sizes {
		for _, strat := range strategies {
			name := "none"
			var faults []core.FaultSpec
			if strat != nil {
				name = strat.Name()
				for i := 0; i < sz.f; i++ {
					faults = append(faults, core.FaultSpec{
						Node:     sz.k - 1 - i, // last f members
						Strategy: strat,
					})
				}
			}
			variants = append(variants, variant{sz.k, sz.f, name})
			scenarios = append(scenarios, ftgcs.NewScenario(
				ftgcs.WithName("k=%d f=%d %s", sz.k, sz.f, name),
				ftgcs.WithTopology(graph.Line(1)),
				ftgcs.WithClusters(sz.k, sz.f),
				ftgcs.WithDerivedParams(p),
				ftgcs.WithSeed(rc.Seed+int64(sz.k*100+len(name))),
				ftgcs.WithDrift(ftgcs.SpreadDrift{}),
				ftgcs.WithFaults(faults...),
				ftgcs.WithGlobalSkew(false),
				ftgcs.WithHorizonRounds(rounds),
			))
		}
	}
	results, err := rc.runSweep(scenarios)
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:     "E2",
		Title:  "Intra-cluster skew under Byzantine attack (single cluster)",
		Claim:  "Corollary 3.2: |L_v − L_w| ≤ 2ϑ_g·E for correct v,w in one cluster",
		Header: []string{"k", "f", "attack", "max intra skew", "bound 2ϑgE", "ratio", "within"},
	}
	bound := p.ClusterSkewBound()
	for i, v := range variants {
		sum := results[i].Summary
		tbl.AddRow(fmt.Sprintf("%d", v.k), fmt.Sprintf("%d", v.f), v.name,
			f3(sum.MaxIntraSkew), f3(bound), f3(sum.MaxIntraSkew/bound),
			okFail(sum.MaxIntraSkew <= bound))
		rc.progressf("  E2 k=%d f=%d %s: intra=%.3g", v.k, v.f, v.name, sum.MaxIntraSkew)
	}
	tbl.AddNote("drift: member i at constant rate 1+ρ·i/(k−1) (max intra-cluster spread)")
	return tbl, nil
}

// runE3 — Proposition B.14 / Eq. (9): the pulse diameter contracts per
// round, e(r+1) ≤ α_g·e(r) + β_g, towards the steady state E. We inject an
// initial desynchronization (staggered protocol starts) and watch ‖p(r)‖
// converge; the fitted contraction must not exceed the paper's α_g, and
// the steady state must stay below E.
func runE3(rc RunConfig) (*Table, error) {
	p := mustParams()
	rounds := 400
	if rc.Quick {
		rounds = 150
	}
	staggers := []float64{0, p.EG, 2.5 * p.EG}
	scenarios := make([]*ftgcs.Scenario, 0, len(staggers))
	for _, st := range staggers {
		base, faults := lineWithFaults(1, 4, func() byzantine.Strategy { return byzantine.Silent{} })
		scenarios = append(scenarios, ftgcs.NewScenario(
			ftgcs.WithName("stagger=%.3g", st),
			ftgcs.WithTopology(base),
			ftgcs.WithClusters(4, 1),
			ftgcs.WithDerivedParams(p),
			ftgcs.WithSeed(rc.Seed+30),
			ftgcs.WithDrift(ftgcs.SpreadDrift{}),
			ftgcs.WithFaults(faults...),
			ftgcs.WithGlobalSkew(false),
			ftgcs.WithStaggerStart(st),
			ftgcs.WithRoundTracking(),
			ftgcs.WithHorizonRounds(float64(rounds)),
			ftgcs.WithObserver(func(sys *ftgcs.System) (any, error) {
				return sys.PulseDiameters(0), nil
			}),
		))
	}
	results, err := rc.runSweep(scenarios)
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:     "E3",
		Title:  "Pulse-diameter convergence from initial desynchronization (k=4, f=1 silent)",
		Claim:  "Prop. B.14 / Eq. (9): ‖p(r+1)‖ ≤ α·‖p(r)‖ + β with steady state E = β/(1−α)",
		Header: []string{"‖p(1)‖≈", "rounds→≤1.5E", "steady mean", "steady max", "E (bound)", "within"},
	}
	for i, st := range staggers {
		diams := results[i].Value.(map[int]float64)
		seq := diameterSequence(diams, rounds)
		if len(seq) < rounds/2 {
			return nil, fmt.Errorf("E3: only %d rounds of pulse data", len(seq))
		}
		converged := -1
		for r, v := range seq {
			if v <= 1.5*p.EG {
				converged = r + 1
				break
			}
		}
		tail := seq[len(seq)/2:]
		var w metrics.Welford
		maxTail := 0.0
		for _, v := range tail {
			w.Add(v)
			maxTail = math.Max(maxTail, v)
		}
		tbl.AddRow(f3(seq[0]), fmt.Sprintf("%d", converged), f3(w.Mean()), f3(maxTail),
			f3(p.EG), okFail(maxTail <= p.EG))
		rc.progressf("  E3 stagger=%.3g: p(1)=%.3g steady=%.3g", st, seq[0], w.Mean())
	}
	tbl.AddNote("α_g (predicted contraction) = %.3f, β_g = %.3g, E = β/(1−α) = %.3g", p.AlphaG, p.BetaG, p.EG)
	tbl.AddNote("initial desync injected by staggering member start times; recovery is clamp-rate limited (|Δ| ≤ ϕτ₃ = %.3g/round) then geometric", p.Phi*p.Tau3)
	return tbl, nil
}

// diameterSequence flattens the per-round diameter map into a dense slice
// starting at round 1.
func diameterSequence(diams map[int]float64, maxRound int) []float64 {
	rounds := make([]int, 0, len(diams))
	for r := range diams {
		if r <= maxRound {
			rounds = append(rounds, r)
		}
	}
	sort.Ints(rounds)
	out := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		out = append(out, diams[r])
	}
	return out
}

// e4rates is the per-window rate measurement one E4 scenario observes.
type e4rates struct {
	fastMin, slowMin, slowMax float64
}

// runE4 — Lemma 3.6: after enough unanimous rounds, a fast cluster's
// amortized rate is ≥ (1+ϕ)(1+⅞µ) and a slow cluster's sits within
// (1+ϕ)(1±⅛µ). Per-round rates carry correction jitter ∝ (E+U)/T, so we
// report the bounds over several averaging windows; the paper's constants
// (c₂=32, ε=1/4096) make even W=1 work, the aggressive experiment preset
// needs W ≳ 10 (an honest constant-size finding).
func runE4(rc RunConfig) (*Table, error) {
	rounds := 400
	if rc.Quick {
		rounds = 160
	}
	presets := []struct {
		name string
		cfg  params.Config
	}{
		{"experiment(ρ=3e-3,c₂=4)", physicalDefault()},
		{"practical(ρ=1e-4,c₂=8)", params.PresetConfig(params.Practical, 1e-4, 1e-3, 1e-4)},
		// The paper's own constants: rounds last hours of simulated time
		// (free in a DES); the ε=1/4096 margin suppresses per-round
		// correction jitter far below µ/8, so even W=1 passes.
		{"paper(ρ=8e-7,c₂=32,ε=1/4096)", params.PresetConfig(params.PaperStrict, 8e-7, 1e-3, 1e-4)},
	}
	windows := []int{1, 10, 30}

	scenarios := make([]*ftgcs.Scenario, 0, len(presets))
	for _, pr := range presets {
		p, err := params.Derive(pr.cfg)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, ftgcs.NewScenario(
			ftgcs.WithName("%s", pr.name),
			ftgcs.WithTopology(graph.Line(2)),
			ftgcs.WithClusters(4, 0),
			ftgcs.WithDerivedParams(p),
			ftgcs.WithSeed(rc.Seed+40),
			ftgcs.WithDrift(ftgcs.SpreadDrift{}),
			ftgcs.WithGlobalSkew(false),
			ftgcs.WithModeOverride(func(v graph.NodeID, c graph.ClusterID, r int) (int, bool) {
				if c == 0 {
					return 1, true
				}
				return 0, true
			}),
			ftgcs.WithRoundTracking(),
			ftgcs.WithHorizonRounds(float64(rounds)),
			ftgcs.WithObserver(func(sys *ftgcs.System) (any, error) {
				// Measure windowed amortized rates per window size over
				// the fast cluster (nodes 0–3) and slow cluster (4–7).
				out := make(map[int]e4rates, len(windows))
				for _, w := range windows {
					m := e4rates{
						fastMin: math.Inf(1),
						slowMin: math.Inf(1),
						slowMax: math.Inf(-1),
					}
					for v := 0; v < 8; v++ {
						times, values, _ := sys.RoundTrace(v)
						lo, hi := windowedRateRange(times, values, w, len(times)/4)
						if v < 4 {
							m.fastMin = math.Min(m.fastMin, lo)
						} else {
							m.slowMin = math.Min(m.slowMin, lo)
							m.slowMax = math.Max(m.slowMax, hi)
						}
					}
					out[w] = m
				}
				return out, nil
			}),
		))
	}
	results, err := rc.runSweep(scenarios)
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:    "E4",
		Title: "Amortized logical rates of unanimously fast/slow clusters",
		Claim: "Lemma 3.6: fast ≥ (1+ϕ)(1+⅞µ); slow ∈ (1+ϕ)(1±⅛µ) after k unanimous rounds",
		Header: []string{"preset", "W (rounds)", "min fast rate", "fast floor", "fast ok",
			"slow range", "slow window", "slow ok"},
	}
	for i, pr := range presets {
		p, err := params.Derive(pr.cfg)
		if err != nil {
			return nil, err
		}
		rates := results[i].Value.(map[int]e4rates)
		for _, w := range windows {
			m := rates[w]
			fastOK := m.fastMin >= p.FastRateFloor()
			slowOK := m.slowMin >= p.SlowRateFloor() && m.slowMax <= p.SlowRateCeil()
			tbl.AddRow(pr.name, fmt.Sprintf("%d", w),
				f3(m.fastMin), f3(p.FastRateFloor()), okFail(fastOK),
				fmt.Sprintf("[%s, %s]", f3(m.slowMin), f3(m.slowMax)),
				fmt.Sprintf("[%s, %s]", f3(p.SlowRateFloor()), f3(p.SlowRateCeil())),
				okFail(slowOK))
		}
		rc.progressf("  E4 %s done", pr.name)
	}
	tbl.AddNote("cluster 0 forced unanimously fast, cluster 1 unanimously slow; rates measured over W-round windows after warmup")
	tbl.AddNote("per-round (W=1) jitter is Θ((E+U)/T) = Θ(ϕ); the paper's ε=1/4096 suppresses it, aggressive presets need averaging")
	return tbl, nil
}

// windowedRateRange returns the (min, max) amortized logical rate over all
// W-round windows after skipping the warmup prefix.
func windowedRateRange(times, values []float64, w, warmup int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := warmup; i+w < len(times); i++ {
		dt := times[i+w] - times[i]
		if dt <= 0 {
			continue
		}
		rate := (values[i+w] - values[i]) / dt
		lo = math.Min(lo, rate)
		hi = math.Max(hi, rate)
	}
	return lo, hi
}
