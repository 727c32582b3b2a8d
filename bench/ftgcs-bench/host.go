package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark runs in is a small virtual machine on a
// shared host, and the host's speed moves by 20–40 % in phases that last
// from seconds to many minutes (its neighbours on the same cores).
// Two runs of the same commit minutes apart therefore differ by more than
// any regression worth catching, and nothing measured on the workload
// alone can tell a slow host from slow code.
//
// The hostGauge separates the two. It owns a fixed piece of work that is
// the harness's, not the program's: a slice of a binary-heap event loop,
// the same kind of work the simulator does. Sampling it tells how fast the
// host is at that moment, as the slice's duration over the time it takes on
// the reference machine (the host factor, 1 = reference speed). Every
// workload samples the gauge all through its set-ups and its measured
// window, right beside the operations it times, and reports every duration
// divided by the median factor of the samples taken around it: time on the
// reference machine's clock. A slow phase slows the slices and the
// operations alike and cancels; slower code under test slows only the
// operations and shows in full.

const (
	// sliceEvents is the fixed work of one slice: events popped and pushed.
	sliceEvents = 90_000
	// sliceRef is how long one slice takes on the reference machine (see
	// README.md) in its median state. It only fixes the scale: the metrics
	// read like wall-clock time on that machine.
	sliceRef = 9 * time.Millisecond
	// gaugeWindow is how far around a measured interval the samples that
	// normalise it are taken from. One slice lasts ten milliseconds and the
	// host's speed flickers on that scale, so a single sample is a noisy
	// reading; the several within half a second are a steady one.
	gaugeWindow = 500 * time.Millisecond
	// trackEvery is the sampling interval of a gauge that runs on a timer
	// instead of between a workload's operations.
	trackEvery = 250 * time.Millisecond
)

// hostGauge samples the host's speed on as many lanes as the workload
// keeps threads busy, so that the slices meet the contention the workload
// meets. The gauge and the workload take turns: a slice is timed by the
// wall clock, so nothing of the workload's may run beside it. A nil
// *hostGauge samples nothing and its factor is 1: the traced runs share
// the workload code without the gauge.
type hostGauge struct {
	lanes []*lane
	at    []time.Time
	h     []float64
	// frozen holds the stretches during which track had the workload
	// stopped; they are taken out of every duration.
	frozen []interval
}

// lane is the state of one thread's event loop.
type lane struct {
	heap []gaugeEvent
	recs [][8]float64
	x    uint64
}

type gaugeEvent struct {
	at  float64
	rec uint32
}

func newHostGauge(threads int) *hostGauge {
	g := &hostGauge{}
	for i := 0; i < threads; i++ {
		l := &lane{recs: make([][8]float64, 4096), x: 88172645463325252 + uint64(i)}
		for j := 0; j < 1024; j++ {
			l.push(gaugeEvent{at: float64(l.rnd()%1000) / 1000, rec: uint32(l.rnd() % 4096)})
		}
		g.lanes = append(g.lanes, l)
	}
	return g
}

// sample runs one slice on every lane at once and records the host
// factor: the lanes' mean duration over sliceRef. quiet, if not nil, runs
// when every lane has a thread and is waiting to start, to silence whatever
// else is running. Only one goroutine may sample at a time.
func (g *hostGauge) sample(quiet func()) {
	if g == nil {
		return
	}
	var up, done sync.WaitGroup
	var start atomic.Bool
	took := make([]time.Duration, len(g.lanes))
	run := func(i int) {
		// Spinning, not sleeping: a virtual CPU that went idle takes
		// milliseconds to come back and runs slowly at first.
		for !start.Load() {
		}
		t0 := time.Now()
		g.lanes[i].slice()
		took[i] = time.Since(t0)
	}
	for i := 1; i < len(g.lanes); i++ {
		up.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			up.Done()
			run(i)
		}()
	}
	up.Wait()
	if quiet != nil {
		quiet()
	}
	at := time.Now()
	start.Store(true)
	run(0)
	done.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	g.at = append(g.at, at)
	g.h = append(g.h, float64(sum)/float64(len(took))/float64(sliceRef))
}

// track samples every trackEvery until the returned function is called
// (calling it again does nothing), for a workload that runs in another
// process and leaves no gap to sample in: freeze stops that process for the
// length of a slice and thaw lets it go on.
func (g *hostGauge) track(freeze, thaw func()) (stop func()) {
	if g == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(trackEvery)
		defer t.Stop()
		for {
			t0 := time.Now()
			g.sample(freeze)
			thaw()
			g.frozen = append(g.frozen, interval{t0, time.Now()})
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit); <-done }) }
}

// factor is the median host factor of the samples taken from gaugeWindow
// before `from` to gaugeWindow after `to`, or the nearest sample if there
// is none. The median, because now and then a slice is descheduled and
// reads several times too long.
func (g *hostGauge) factor(from, to time.Time) float64 {
	if g == nil || len(g.h) == 0 {
		return 1
	}
	lo, hi := from.Add(-gaugeWindow), to.Add(gaugeWindow)
	var near []float64
	nearest, gap := 0, time.Duration(1<<62)
	for i, at := range g.at {
		if !at.Before(lo) && !at.After(hi) {
			near = append(near, g.h[i])
		}
		if d := at.Sub(from).Abs(); d < gap {
			nearest, gap = i, d
		}
	}
	if len(near) == 0 {
		return g.h[nearest]
	}
	return median(near)
}

// norm is the duration of [from, to] on the reference machine's clock:
// less the time the workload was frozen, over the host factor.
func (g *hostGauge) norm(from, to time.Time) time.Duration {
	d := to.Sub(from)
	if g == nil {
		return d
	}
	for _, f := range g.frozen {
		lo, hi := f.from, f.to
		if lo.Before(from) {
			lo = from
		}
		if hi.After(to) {
			hi = to
		}
		if hi.After(lo) {
			d -= hi.Sub(lo)
		}
	}
	return time.Duration(float64(d) / g.factor(from, to))
}

// wasFrozen reports whether the workload was frozen at any time in iv.
func (g *hostGauge) wasFrozen(iv interval) bool {
	if g == nil {
		return false
	}
	for _, f := range g.frozen {
		if f.from.Before(iv.to) && iv.from.Before(f.to) {
			return true
		}
	}
	return false
}

func (l *lane) slice() {
	for i := 0; i < sliceEvents; i++ {
		e := l.pop()
		l.recs[e.rec][i&7] += e.at
		l.push(gaugeEvent{at: e.at + float64(l.rnd()%1000)/1e5, rec: uint32(l.rnd() % 4096)})
	}
}

func (l *lane) rnd() uint64 {
	l.x ^= l.x << 13
	l.x ^= l.x >> 7
	l.x ^= l.x << 17
	return l.x
}

func (l *lane) push(e gaugeEvent) {
	l.heap = append(l.heap, e)
	for i := len(l.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if l.heap[p].at <= l.heap[i].at {
			break
		}
		l.heap[p], l.heap[i] = l.heap[i], l.heap[p]
		i = p
	}
}

func (l *lane) pop() gaugeEvent {
	h := l.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	l.heap = h
	return top
}
