// Package telemetry is a small, dependency-free metrics layer for the
// experiment service: atomic counters, gauges and fixed-bucket
// histograms collected in a Registry that writes the Prometheus text
// exposition format, plus per-job lifecycle traces (trace.go).
//
// Design constraints, in order:
//
//   - zero dependencies — the module stays stdlib-only;
//   - cheap at event time — counters and gauges are single atomic ops,
//     a histogram observation is a binary search plus two atomics, and
//     none of them allocate, so instrumenting the job pipeline cannot
//     perturb it;
//   - the registry is the single source of truth: the JSON endpoint
//     /v1/healthz derives its numbers from the same instruments /metrics
//     scrapes, so the two views cannot drift.
//
// Instruments are registered once (by name, panicking on duplicates —
// the same contract as ftgcs.Registry) and then updated lock-free.
// Scrapes flatten every instrument into sorted, label-stable sample
// lines, so the exposition output for a given set of observations is
// byte-stable — testable with a golden string.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets is the default histogram bucketing for wall-clock
// durations in seconds: 1ms to 1 minute, roughly logarithmic. Queue
// waits, run durations and HTTP latencies all share it so dashboards
// can overlay them.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// sample is one exposition line: name suffix, ordered labels, value.
type sample struct {
	suffix string
	labels []Label
	value  float64
}

// Label is one name="value" pair on a sample.
type Label struct{ Name, Value string }

// metric is anything the registry can scrape.
type metric interface {
	// samples flattens the instrument's current state. Implementations
	// must return label sets in a deterministic order.
	samples() []sample
}

// registered pairs an instrument with its metadata.
type registered struct {
	name, help, typ string
	m               metric
}

// Registry holds named instruments and writes them out. Registration
// takes a lock; instrument updates after registration are lock-free on
// the instruments themselves.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]struct{}
	metrics []registered
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// register validates and records an instrument, panicking on an invalid
// or duplicate name — misregistration is a programming error, caught at
// startup, exactly like a duplicate ftgcs.Registry entry.
func (r *Registry) register(name, help, typ string, m metric) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.byName[name] = struct{}{}
	r.metrics = append(r.metrics, registered{name: name, help: help, typ: typ, m: m})
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	// Same shape as metric names minus the colon (reserved for rules).
	return validName(s) && !strings.Contains(s, ":")
}

// --- Counter ---

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) samples() []sample {
	return []sample{{value: float64(c.v.Load())}}
}

// Counter registers and returns a new counter. The exposition name
// should end in _total by Prometheus convention.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", c)
	return c
}

// --- Gauge ---

// Gauge is an integer gauge (a value that can go up and down).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) samples() []sample {
	return []sample{{value: float64(g.v.Load())}}
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", g)
	return g
}

// funcMetric samples a callback at scrape time — the bridge for state
// that already lives elsewhere (queue depths, store stats) and would be
// double bookkeeping as a live instrument.
type funcMetric struct{ f func() float64 }

func (fm funcMetric) samples() []sample { return []sample{{value: fm.f()}} }

// GaugeFunc registers a gauge whose value is read from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, "gauge", funcMetric{f})
}

// CounterFunc registers a counter whose cumulative value is read from f
// at scrape time; f must be monotone for the TYPE to be honest.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(name, help, "counter", funcMetric{f})
}

// --- Histogram ---

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive, le), strictly increasing; an implicit +Inf bucket
// catches the rest. Observe is lock- and allocation-free.
type Histogram struct {
	uppers  []float64
	counts  []atomic.Uint64 // len(uppers)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not strictly increasing at %v", buckets[i]))
		}
	}
	uppers := append([]float64(nil), buckets...)
	return &Histogram{uppers: uppers, counts: make([]atomic.Uint64, len(uppers)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose upper bound holds v.
	lo, hi := 0, len(h.uppers)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.uppers[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// histogramSamples flattens one histogram under the given base labels:
// cumulative _bucket lines (le last, by convention), then _sum and
// _count.
func histogramSamples(h *Histogram, base []Label) []sample {
	out := make([]sample, 0, len(h.uppers)+3)
	var cum uint64
	for i, ub := range h.uppers {
		cum += h.counts[i].Load()
		out = append(out, sample{
			suffix: "_bucket",
			labels: append(append([]Label(nil), base...), Label{"le", formatFloat(ub)}),
			value:  float64(cum),
		})
	}
	cum += h.counts[len(h.uppers)].Load()
	out = append(out, sample{
		suffix: "_bucket",
		labels: append(append([]Label(nil), base...), Label{"le", "+Inf"}),
		value:  float64(cum),
	})
	out = append(out,
		sample{suffix: "_sum", labels: base, value: h.Sum()},
		sample{suffix: "_count", labels: base, value: float64(h.count.Load())},
	)
	return out
}

func (h *Histogram) samples() []sample { return histogramSamples(h, nil) }

// Histogram registers and returns a new histogram with the given bucket
// upper bounds (nil: DurationBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	h := newHistogram(buckets)
	r.register(name, help, "histogram", h)
	return h
}

// --- Vectors (labeled children) ---

// vec is the shared child index for labeled instruments.
type vec[T any] struct {
	labelNames []string
	mu         sync.Mutex
	children   map[string]*child[T]
	mk         func() *T
}

type child[T any] struct {
	values []string
	inst   *T
}

func newVec[T any](labelNames []string, mk func() *T) *vec[T] {
	if len(labelNames) == 0 {
		panic("telemetry: vector instruments need at least one label")
	}
	for _, n := range labelNames {
		if !validLabelName(n) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", n))
		}
	}
	return &vec[T]{
		labelNames: append([]string(nil), labelNames...),
		children:   make(map[string]*child[T]),
		mk:         mk,
	}
}

// with returns the child for the given label values, creating it on
// first use.
func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("telemetry: got %d label values, want %d (%v)", len(values), len(v.labelNames), v.labelNames))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c.inst
	}
	c := &child[T]{values: append([]string(nil), values...), inst: v.mk()}
	v.children[key] = c
	return c.inst
}

// sorted returns the children ordered by label values, for byte-stable
// exposition.
func (v *vec[T]) sorted() []*child[T] {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*child[T], 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func (v *vec[T]) baseLabels(c *child[T]) []Label {
	ls := make([]Label, len(v.labelNames))
	for i, n := range v.labelNames {
		ls[i] = Label{n, c.values[i]}
	}
	return ls
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ v *vec[Counter] }

// With returns the counter for the given label values (one per label
// name, in registration order), creating it on first use.
func (cv *CounterVec) With(values ...string) *Counter { return cv.v.with(values...) }

func (cv *CounterVec) samples() []sample {
	var out []sample
	for _, c := range cv.v.sorted() {
		out = append(out, sample{labels: cv.v.baseLabels(c), value: float64(c.inst.Value())})
	}
	return out
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	cv := &CounterVec{v: newVec(labelNames, func() *Counter { return &Counter{} })}
	r.register(name, help, "counter", cv)
	return cv
}

// HistogramVec is a histogram family keyed by label values; every child
// shares one bucket layout.
type HistogramVec struct{ v *vec[Histogram] }

// With returns the histogram for the given label values, creating it on
// first use.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.v.with(values...) }

func (hv *HistogramVec) samples() []sample {
	var out []sample
	for _, c := range hv.v.sorted() {
		out = append(out, histogramSamples(c.inst, hv.v.baseLabels(c))...)
	}
	return out
}

// HistogramVec registers a labeled histogram family with the given
// bucket upper bounds (nil: DurationBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DurationBuckets
	}
	hv := &HistogramVec{v: newVec(labelNames, func() *Histogram { return newHistogram(buckets) })}
	r.register(name, help, "histogram", hv)
	return hv
}

// --- Exposition ---

// WritePrometheus writes every registered instrument in the Prometheus
// text exposition format (version 0.0.4), families sorted by metric
// name, children sorted by label values. Output for a fixed set of
// observations is byte-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]registered(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, s := range f.m.samples() {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			if len(s.labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.value))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
