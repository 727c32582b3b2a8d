package sim

import "testing"

// benchTick re-arms itself one second later forever; the benchmarks bound
// it with Run's horizon.
func benchTick(e *Engine, d Data) {
	e.MustScheduleData(e.Now()+1, "tick", benchTick, d)
}

// BenchmarkEngineScheduleFire measures one pooled schedule→fire cycle
// through the data path (the transport delivery shape). Expected steady
// state: 0 allocs/op.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	const lanes = 16
	for i := 0; i < lanes; i++ {
		e.MustScheduleData(float64(i)/lanes, "tick", benchTick, Data{})
	}
	e.Run(16) // warm pool
	b.ReportAllocs()
	b.ResetTimer()
	horizon := 16.0
	for i := 0; i < b.N; i += lanes {
		horizon++
		if err := e.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScheduleFireClosure is the same cycle through the legacy
// closure path: the event slot is pooled but each closure still allocates.
func BenchmarkEngineScheduleFireClosure(b *testing.B) {
	e := NewEngine()
	var tick func(*Engine)
	tick = func(e *Engine) { e.MustSchedule(e.Now()+1, "tick", tick) }
	const lanes = 16
	for i := 0; i < lanes; i++ {
		e.MustSchedule(float64(i)/lanes, "tick", tick)
	}
	e.Run(16)
	b.ReportAllocs()
	b.ResetTimer()
	horizon := 16.0
	for i := 0; i < b.N; i += lanes {
		horizon++
		if err := e.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCancelReschedule measures the globalskew level-timer
// shape: cancel a pending event and re-arm it.
func BenchmarkEngineCancelReschedule(b *testing.B) {
	e := NewEngine()
	h := e.MustScheduleData(1, "timer", benchTick, Data{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(h)
		h = e.MustScheduleData(e.Now()+1, "timer", benchTick, Data{})
	}
}

// benchRoundTimer is one lane of BenchmarkEngineRoundTimers: it re-arms
// itself 1–25 spans ahead (I0 is the lane, I1 counts re-arms) and sends
// eight deliveries due 0.9–1.0 spans ahead, like a cluster pulse.
func benchRoundTimer(e *Engine, d Data) {
	now := e.Now()
	for j := 0; j < 8; j++ {
		e.MustScheduleData(now+0.9+0.0125*float64(j), "delivery", benchDelivery, Data{})
	}
	d.I1++
	lead := 1 + float64((d.I0+7*d.I1)%25) + float64(d.I0%16)/16
	e.MustScheduleData(now+lead, "timer", benchRoundTimer, d)
}

func benchDelivery(*Engine, Data) {}

// BenchmarkEngineRoundTimers measures one event of gradient_grid's shape on
// an engine with a span of 1: 400 round timers re-armed 1–25 spans ahead —
// beyond the fine wheel — among dense deliveries due within one span.
// Expected steady state: 0 allocs/op.
func BenchmarkEngineRoundTimers(b *testing.B) {
	e := NewEngine()
	e.SetLookahead(1)
	const lanes = 400
	for i := 0; i < lanes; i++ {
		e.MustScheduleData(25*float64(i)/lanes, "timer", benchRoundTimer, Data{I0: int32(i)})
	}
	horizon := 100.0
	e.Run(horizon) // warm pool and wheel
	b.ReportAllocs()
	b.ResetTimer()
	for start := e.Processed(); e.Processed()-start < uint64(b.N); {
		horizon++
		if err := e.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
}
