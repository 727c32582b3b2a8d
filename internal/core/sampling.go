package core

import (
	"math"

	"ftgcs/internal/metrics"
	"ftgcs/internal/sim"
)

// Metric series names recorded by the sampler.
const (
	// SeriesIntraSkew is the max over clusters of the intra-cluster skew
	// among correct members (Corollary 3.2's subject).
	SeriesIntraSkew = "skew/intra"
	// SeriesLocalCluster is the max over base edges of |L_B − L_C|
	// (Theorem 4.10's subject).
	SeriesLocalCluster = "skew/local-cluster"
	// SeriesLocalNode is the max over physical edges between correct
	// nodes of |L_v − L_w| (Theorem 1.1's subject).
	SeriesLocalNode = "skew/local-node"
	// SeriesGlobal is the max skew between any two correct nodes.
	SeriesGlobal = "skew/global"
	// SeriesMaxEstLag is the max over correct nodes of L_max − M_v
	// (Lemma C.2: should stay O(δD)).
	SeriesMaxEstLag = "maxest/lag"
	// SeriesMaxEstViolations counts nodes with M_v > L_max (must be 0).
	SeriesMaxEstViolations = "maxest/violations"
	// SeriesFastFraction is the fraction of correct nodes in fast mode.
	SeriesFastFraction = "gcs/fast-fraction"
)

// sampled holds the handles of the series the sampler appends to, in
// declaration order; the maxest ones are nil unless global skew is on.
type sampled struct {
	intra, localCluster, localNode, global, fastFraction *metrics.Series
	maxEstLag, maxEstViolations                          *metrics.Series
}

// declareSeries builds the recorder with the series this configuration
// samples. With a HorizonHint each is sized for the expected sample count
// (+2: the fencepost and a final sample at the horizon itself).
func (s *System) declareSeries() {
	names := []string{SeriesIntraSkew, SeriesLocalCluster, SeriesLocalNode, SeriesGlobal, SeriesFastFraction}
	if s.cfg.EnableGlobalSkew {
		names = append(names, SeriesMaxEstLag, SeriesMaxEstViolations)
	}
	capacity := 0
	if s.cfg.HorizonHint > 0 {
		capacity = int(s.cfg.HorizonHint/s.sampleInterval) + 2
	}
	s.rec = metrics.NewRecorder(capacity, names...)
	s.ser = sampled{
		intra:            s.rec.Handle(SeriesIntraSkew),
		localCluster:     s.rec.Handle(SeriesLocalCluster),
		localNode:        s.rec.Handle(SeriesLocalNode),
		global:           s.rec.Handle(SeriesGlobal),
		fastFraction:     s.rec.Handle(SeriesFastFraction),
		maxEstLag:        s.rec.Handle(SeriesMaxEstLag),
		maxEstViolations: s.rec.Handle(SeriesMaxEstViolations),
	}
}

func (s *System) scheduleSampler() {
	var tick func(e *sim.Engine)
	tick = func(e *sim.Engine) {
		s.sample(e.Now())
		e.MustSchedule(e.Now()+s.sampleInterval, "sampler", tick)
	}
	s.eng.MustSchedule(s.eng.Now()+s.sampleInterval, "sampler", tick)
}

// sample computes all skew metrics at time t. The per-cluster working
// arrays are reused across ticks (see System scratch fields).
func (s *System) sample(t float64) {
	nc := s.aug.Clusters()
	lows := s.sampleLows
	highs := s.sampleHighs
	clocks := s.sampleClocks
	valid := s.sampleValid

	intraMax := math.Inf(-1)
	globalLo, globalHi := math.Inf(1), math.Inf(-1)
	for c := 0; c < nc; c++ {
		lo, hi, ok := s.clusterRange(c)
		lows[c], highs[c], valid[c] = lo, hi, ok
		if !ok {
			clocks[c] = math.NaN()
			continue
		}
		clocks[c] = (lo + hi) / 2
		intraMax = math.Max(intraMax, hi-lo)
		globalLo = math.Min(globalLo, lo)
		globalHi = math.Max(globalHi, hi)
	}

	localCluster := 0.0
	localNode := intraMax // cluster edges are physical edges too
	for _, e := range s.baseEdges {
		b, c := e[0], e[1]
		if !valid[b] || !valid[c] {
			continue
		}
		localCluster = math.Max(localCluster, math.Abs(clocks[b]-clocks[c]))
		// Node-level over the complete bipartite edge set:
		localNode = math.Max(localNode, highs[b]-lows[c])
		localNode = math.Max(localNode, highs[c]-lows[b])
	}

	s.ser.intra.Append(t, intraMax)
	s.ser.localCluster.Append(t, localCluster)
	s.ser.localNode.Append(t, localNode)
	s.ser.global.Append(t, globalHi-globalLo)

	// Fast-mode fraction.
	total, fast := 0, 0
	for _, n := range s.nodes {
		if n.faulty || n.inst == nil {
			continue
		}
		total++
		if n.main.Gamma() == 1 {
			fast++
		}
	}
	if total > 0 {
		s.ser.fastFraction.Append(t, float64(fast)/float64(total))
	}

	// Global max-estimate health.
	if s.cfg.EnableGlobalSkew {
		lag := math.Inf(-1)
		violations := 0.0
		for _, n := range s.nodes {
			if n.faulty || n.maxEst == nil {
				continue
			}
			m := n.maxEst.Value(t)
			if m > globalHi+1e-9 {
				violations++
			}
			lag = math.Max(lag, globalHi-m)
		}
		s.ser.maxEstLag.Append(t, lag)
		s.ser.maxEstViolations.Append(t, violations)
	}
}

// Summary condenses a finished run for reports.
type Summary struct {
	Horizon          float64
	MaxIntraSkew     float64
	MaxLocalCluster  float64
	MaxLocalNode     float64
	MaxGlobal        float64
	MaxMaxEstLag     float64
	MaxEstViolations float64
	Events           uint64
}

// Summarize computes the run summary, excluding samples before warmup
// (pass 0 to include everything).
func (s *System) Summarize(warmup float64) Summary {
	return Summarize(s.rec, s.eng.Now(), s.eng.Processed(), warmup)
}

// Summarize condenses a recorded run of the FTGCS system or of a
// comparison baseline (internal/baseline): the maximum of every skew
// series after warmup (−Inf for a series rec does not hold), with the
// run's horizon and event count.
func Summarize(rec *metrics.Recorder, horizon float64, events uint64, warmup float64) Summary {
	get := func(name string) float64 {
		if ser := rec.Series(name); ser != nil {
			return ser.MaxAfter(warmup)
		}
		return math.Inf(-1)
	}
	return Summary{
		Horizon:          horizon,
		MaxIntraSkew:     get(SeriesIntraSkew),
		MaxLocalCluster:  get(SeriesLocalCluster),
		MaxLocalNode:     get(SeriesLocalNode),
		MaxGlobal:        get(SeriesGlobal),
		MaxMaxEstLag:     get(SeriesMaxEstLag),
		MaxEstViolations: get(SeriesMaxEstViolations),
		Events:           events,
	}
}
