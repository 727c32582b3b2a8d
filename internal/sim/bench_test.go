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
