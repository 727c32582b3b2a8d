package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"ftgcs/internal/sim"
	"ftgcs/internal/spec"
)

// stressSpec is cheap to build and quick to run — the stress test cares
// about index contention, not simulation depth.
func stressSpec(seed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Topology: spec.Topology{Name: "line", Size: 2},
		Seed:     seed,
		Horizon:  spec.Horizon{Seconds: 0.1},
	}
}

// TestLifecycleStress hammers every public lifecycle entry point of the
// job index from many goroutines at once — Submit, Wait/Get/Cancel/Stats
// racing each other and the workers, then Close racing a late burst of
// submissions. The test's teeth are the race detector and the absence of
// deadlock; the assertions pin the error contract (only documented
// errors escape) and the terminal invariant (nothing left running after
// Close).
func TestLifecycleStress(t *testing.T) {
	m := NewManager(Options{Workers: 2, CacheSize: 24, QueueDepth: 128, SweepWorkers: 1})

	waitErrOK := func(err error) bool {
		return err == nil || errors.Is(err, ErrCanceled) || errors.Is(err, ErrClosed) ||
			errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrEvicted) || errors.Is(err, context.DeadlineExceeded)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 48; i++ {
				// 16 distinct specs against 24 cache slots: plenty of
				// coalescing and cache hits alongside fresh work.
				seed := int64(1 + (g+i*goroutines)%16)
				st, err := m.Submit(Request{Spec: stressSpec(seed)})
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("submit: unexpected error %v", err)
					}
					continue
				}
				switch i % 4 {
				case 0:
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					if _, err := m.Wait(ctx, st.ID); !waitErrOK(err) {
						t.Errorf("wait: unexpected error %v", err)
					}
					cancel()
				case 1:
					m.Get(st.ID)
					m.Trace(st.ID)
				case 2:
					if _, err := m.Cancel(st.ID); err != nil &&
						!errors.Is(err, ErrCompleted) && !errors.Is(err, ErrUnknownJob) {
						t.Errorf("cancel: unexpected error %v", err)
					}
				case 3:
					m.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	// Close races a late burst: submissions observe either acceptance,
	// backpressure, or ErrClosed — never a panic or a hung Wait.
	var cwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cwg.Add(1)
		go func(g int) {
			defer cwg.Done()
			for i := 0; i < 12; i++ {
				st, err := m.Submit(Request{Spec: stressSpec(int64(100 + g*12 + i))})
				if err != nil {
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrClosed) {
						t.Errorf("submit during close: unexpected error %v", err)
					}
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if _, err := m.Wait(ctx, st.ID); !waitErrOK(err) {
					t.Errorf("wait during close: unexpected error %v", err)
				}
				cancel()
			}
		}(g)
	}
	m.Close()
	cwg.Wait()
	if s := m.Stats(); s.Running != 0 || s.Queued != 0 {
		t.Fatalf("work left after close: %+v", s)
	}
}

// TestPoolDifferentialAcrossJobs is the cross-job analogue of
// TestReplicatedJobReuseDifferential: distinct-seed jobs sharing one
// build key run through a pooling manager (systems built for earlier
// jobs are reset for later ones) and a rebuilding one, and every
// serialized response must be byte-identical. It also asserts the
// pooled arm actually exercised the pool, so the equality is a real
// differential rather than two rebuild arms.
func TestPoolDifferentialAcrossJobs(t *testing.T) {
	run := func(noReuse bool) (out []string, hits uint64) {
		m := NewManager(Options{Workers: 1, SweepWorkers: 1, NoReuse: noReuse, PoolSize: 4})
		defer m.Close()
		for seed := int64(1); seed <= 6; seed++ {
			st, err := m.Submit(Request{Spec: benchSpec(seed), Replicate: 2})
			if err != nil {
				t.Fatal(err)
			}
			final := waitDone(t, m, st.ID)
			if final.State != StateDone {
				t.Fatalf("job state %v: %+v", final.State, final)
			}
			b, err := json.Marshal(final)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out, m.Pool().Hits
	}
	pooled, hits := run(false)
	rebuilt, _ := run(true)
	if hits == 0 {
		t.Fatal("pooling arm never hit the pool; differential is vacuous")
	}
	for i := range pooled {
		if pooled[i] != rebuilt[i] {
			t.Errorf("job %d: pool changed the served bytes:\npooled:  %s\nrebuilt: %s", i+1, pooled[i], rebuilt[i])
		}
	}
}

// cachedHit returns a manager holding one completed job and the prepared
// request that hits it.
func cachedHit(tb testing.TB) (*Manager, PreparedRequest) {
	tb.Helper()
	m := NewManager(Options{Workers: 1})
	tb.Cleanup(m.Close)
	p, err := PrepareRequest(Request{Spec: quickSpec(1)})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := m.SubmitPrepared(p)
	if err != nil {
		tb.Fatal(err)
	}
	waitDone(tb, m, st.ID)
	return m, p
}

// TestSubmitCachedHotAllocs pins the cache-hit path at zero allocations:
// a pre-hashed resubmission of a cached result plus its encoding into a
// reused buffer (what BenchmarkSubmitCachedHot times).
func TestSubmitCachedHotAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, p := cachedHit(t)
	buf := make([]byte, 0, 1<<16)
	allocs := testing.AllocsPerRun(200, func() {
		hit, err := m.SubmitPrepared(p)
		if err != nil || hit.Cached != TierMemory {
			t.Fatalf("cached submit: %+v, %v", hit, err)
		}
		if buf, err = hit.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached submit + encode allocated %.1f times per hit, want 0", allocs)
	}
}

// BenchmarkSubmitCachedHot is the serving fast path end to end at the
// jobs layer: a pre-hashed resubmission of a cached result plus its
// zero-copy encoding into a reused buffer. This is what a hot GET/POST
// of a completed experiment costs before HTTP framing.
func BenchmarkSubmitCachedHot(b *testing.B) {
	m, p := cachedHit(b)
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, err := m.SubmitPrepared(p)
		if err != nil {
			b.Fatal(err)
		}
		buf, err = hit.AppendJSON(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(buf) == 0 {
		b.Fatal("empty encoding")
	}
}

// BenchmarkSubmitFreshPooled pushes distinct-seed fresh jobs (one build
// key) through the manager: the pooled arm resets a pooled system per
// job where the rebuild arm constructs one from scratch — the cross-job
// counterpart of BenchmarkReplicatedJob's within-job reuse.
func BenchmarkSubmitFreshPooled(b *testing.B) {
	for _, arm := range []struct {
		name    string
		noReuse bool
	}{{"pooled", false}, {"rebuild", true}} {
		b.Run(arm.name, func(b *testing.B) {
			m := NewManager(Options{Workers: 1, SweepWorkers: 1, NoReuse: arm.noReuse, CacheSize: 4})
			defer m.Close()
			// Warm the pool (and every lazy manager structure) outside the
			// timed region: the first job's full Build would otherwise be
			// amortized over b.N, making allocs/op depend on the iteration
			// count the harness picks.
			runToDone(b, m, Request{Spec: benchSpec(0)})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runToDone(b, m, Request{Spec: benchSpec(int64(1 + i))})
			}
		})
	}
}

// TestSubmitFreshPooledAllocs pins BenchmarkSubmitFreshPooled/pooled at a
// fixed iteration count: with the pool warm, a fresh distinct-seed job is
// one reset of the pooled system plus queueing, running, summarising and
// caching it.
func TestSubmitFreshPooledAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := NewManager(Options{Workers: 1, SweepWorkers: 1, CacheSize: 4})
	defer m.Close()
	runToDone(t, m, Request{Spec: benchSpec(0)})
	seed := int64(0)
	allocs := testing.AllocsPerRun(30, func() {
		seed++
		runToDone(t, m, Request{Spec: benchSpec(seed)})
	})
	if allocs > 490 {
		t.Errorf("pooled fresh job allocates %.0f, want ≤ 490 (474 measured)", allocs)
	}
}
