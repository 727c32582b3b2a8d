package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftgcs"
	"ftgcs/internal/spec"
)

func quickSpec(seed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Topology: spec.Topology{Name: "line", Size: 2},
		Seed:     seed,
		Horizon:  spec.Horizon{Seconds: 3},
	}
}

func waitDone(t testing.TB, m *Manager, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

func TestSubmitRunAndCacheHit(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	st, err := m.Submit(Request{Spec: quickSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Cached != "" {
		t.Fatalf("fresh submission should be queued and uncached: %+v", st)
	}
	if !strings.HasPrefix(st.ID, "sha256:") || !strings.HasPrefix(st.SpecHash, "sha256:") {
		t.Fatalf("ids must be content hashes: %+v", st)
	}

	final := waitDone(t, m, st.ID)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("job did not complete: %+v", final)
	}
	if final.Result.Report.Events == 0 {
		t.Fatal("result carries an empty report")
	}
	first, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}

	// Second submission: served from cache, work not re-run,
	// byte-identical payload.
	st2, err := m.Submit(Request{Spec: quickSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != TierMemory || st2.State != StateDone || st2.Result == nil {
		t.Fatalf("resubmission should be a cache hit: %+v", st2)
	}
	second, err := json.Marshal(st2.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit result not byte-identical:\n%s\n%s", first, second)
	}
	if s := m.Stats(); s.Runs != 1 || s.CacheHits == 0 || s.CacheMisses != 1 {
		t.Fatalf("want exactly 1 run, ≥1 cache hit and exactly 1 miss (the first submission), got %+v", s)
	}
}

// TestCacheHitCarriesCallerName: the display name is excluded from job
// identity, so submissions differing only in name share one run — but
// each submitter gets its own name back, not the first submitter's, and
// the stored result is never mutated.
func TestCacheHitCarriesCallerName(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	a := quickSpec(5)
	a.Name = "first"
	st, err := m.Submit(Request{Spec: a})
	if err != nil {
		t.Fatal(err)
	}
	if done := waitDone(t, m, st.ID); done.Result.Name != "first" {
		t.Fatalf("fresh run name = %q, want \"first\"", done.Result.Name)
	}

	b := quickSpec(5)
	b.Name = "second"
	st2, err := m.Submit(Request{Spec: b})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != TierMemory || st2.Result == nil {
		t.Fatalf("same experiment under a new name should cache-hit: %+v", st2)
	}
	if st2.Result.Name != "second" {
		t.Fatalf("cache hit name = %q, want the caller's \"second\"", st2.Result.Name)
	}

	// An unnamed submission gets the default label, not a stale one.
	c := quickSpec(5)
	st3, err := m.Submit(Request{Spec: c})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Result == nil || st3.Result.Name != c.DisplayName() {
		t.Fatalf("unnamed cache hit result = %+v, want name %q", st3.Result, c.DisplayName())
	}

	// A poll by ID carries no caller name; it reports the submission
	// that actually ran.
	got, ok := m.Get(st.ID)
	if !ok || got.Result == nil || got.Result.Name != "first" {
		t.Fatalf("stored result mutated: %+v", got)
	}
	if s := m.Stats(); s.Runs != 1 {
		t.Fatalf("want exactly 1 run, got %+v", s)
	}
}

// TestReplicationPinsTopology: a replicated run measures seed variance
// on one experiment, so every replicate must run the base seed's graph
// even for randomized topology families.
func TestReplicationPinsTopology(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	defer m.Close()

	s := spec.ScenarioSpec{
		Topology: spec.Topology{Name: "random", Size: 8},
		Seed:     3,
		Horizon:  spec.Horizon{Seconds: 2},
	}
	st, err := m.Submit(Request{Spec: s, Replicate: 3})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, st.ID)
	if final.State != StateDone || final.Result == nil || final.Result.Replicates == nil {
		t.Fatalf("replicated job did not complete: %+v", final)
	}
	reports := final.Result.Replicates.Reports

	// Replicate 1 ran seed 4; its report must match a hand-built run of
	// seed 4 on seed 3's topology draw.
	topo, err := ftgcs.TopologyByName("random", 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	s4 := s
	s4.Seed = 4
	sc, err := s4.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.With(ftgcs.WithTopology(topo)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if reports[1] != want {
		t.Fatalf("replicate 1 did not run on the base topology:\n got %+v\nwant %+v", reports[1], want)
	}

	// And it must NOT match seed 4's own topology draw (the behavior
	// this test guards against).
	sc4, err := s4.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	ownDraw, err := sc4.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reports[1] == ownDraw {
		t.Fatal("replicate 1 ran on its own per-seed topology draw; graphs are not pinned (or the draws coincide — pick different seeds)")
	}
}

// TestReplicateBuildsTopologyOnce: the graph is resolved once at Submit
// and shared by every replicate; neither validation nor the per-seed
// compiles rebuild it.
func TestReplicateBuildsTopologyOnce(t *testing.T) {
	var builds atomic.Int32
	reg := ftgcs.NewRegistry()
	reg.RegisterTopology("counted", func(size int, _ int64) (*ftgcs.Topology, error) {
		builds.Add(1)
		return ftgcs.Line(size), nil
	})
	reg.RegisterDrift("spread", func() ftgcs.DriftModel { return ftgcs.SpreadDrift{} })
	reg.RegisterDelay("uniform", func() ftgcs.DelayModel { return ftgcs.UniformDelayModel{} })

	m := NewManager(Options{Workers: 1, Registry: reg})
	defer m.Close()
	s := spec.ScenarioSpec{
		Topology: spec.Topology{Name: "counted", Size: 2},
		Seed:     1,
		Horizon:  spec.Horizon{Seconds: 2},
	}
	st, err := m.Submit(Request{Spec: s, Replicate: 3})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, m, st.ID); final.State != StateDone {
		t.Fatalf("replicated job did not complete: %+v", final)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("topology built %d times for 3 replicates, want 1", n)
	}
}

// TestCloseCancelsQueuedJobs: Close must cancel work still on the queue,
// not let workers race it onto fresh simulation runs — and canceled work
// is never cached, so the IDs vanish entirely.
func TestCloseCancelsQueuedJobs(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 8})
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	m.TestHookBeforeRun = func() {
		entered <- struct{}{}
		<-gate
	}

	ids := make([]string, 4)
	for i := range ids {
		st, err := m.Submit(Request{Spec: quickSpec(100 + int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	<-entered // the single worker now holds job 0; jobs 1–3 are queued

	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	// Release the worker only once Close has committed (quit closed,
	// submissions rejected), so the worker's next loop observes the
	// shutdown alongside the non-empty queue.
	bad := Request{Spec: spec.ScenarioSpec{Topology: spec.Topology{Name: "moebius", Size: 1}}}
	for {
		if _, err := m.Submit(bad); errors.Is(err, ErrClosed) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-done

	if s := m.Stats(); s.Runs != 1 {
		t.Fatalf("queued jobs must be canceled on Close, not run: %+v", s)
	}
	// Everything — the interrupted in-flight job and the queued ones —
	// ends canceled, and canceled work never enters the result cache.
	if s := m.Stats(); s.Canceled != uint64(len(ids)) || s.Completed != 0 || s.Failed != 0 {
		t.Fatalf("all %d jobs should be canceled on Close: %+v", len(ids), s)
	}
	for _, id := range ids {
		if st, ok := m.Get(id); ok {
			t.Fatalf("canceled job must not be cached after Close: %+v", st)
		}
	}
}

func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	defer m.Close()

	// Hold the workers until every submission has landed, so all of them
	// observe the same in-flight job.
	gate := make(chan struct{})
	m.TestHookBeforeRun = func() { <-gate }

	const clients = 16
	req := Request{Spec: quickSpec(3)}
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(gate)

	results := make([][]byte, clients)
	for i, id := range ids {
		st := waitDone(t, m, id)
		if st.State != StateDone {
			t.Fatalf("client %d: %+v", i, st)
		}
		b, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = b
	}
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("identical requests got different job ids: %s vs %s", ids[i], ids[0])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatal("coalesced clients saw different result bytes")
		}
	}
	s := m.Stats()
	if s.Runs != 1 {
		t.Fatalf("identical concurrent submissions must run once, ran %d times", s.Runs)
	}
	if s.Submitted != 1 || s.Coalesced != clients-1 {
		t.Fatalf("want 1 submitted + %d coalesced, got %+v", clients-1, s)
	}
}

func TestQueueFull(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 1})
	defer m.Close()
	gate := make(chan struct{})
	m.TestHookBeforeRun = func() { <-gate }
	defer close(gate)

	// First fills the worker, second fills the queue; distinct specs so
	// nothing coalesces.
	if _, err := m.Submit(Request{Spec: quickSpec(10)}); err != nil {
		t.Fatal(err)
	}
	// The worker may or may not have popped the first job yet; submit
	// until the queue is truly full, then expect ErrQueueFull.
	var err error
	for i := int64(11); i < 20; i++ {
		if _, err = m.Submit(Request{Spec: quickSpec(i)}); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
}

func TestValidationErrorsNeverCreateJobs(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	bad := spec.ScenarioSpec{Topology: spec.Topology{Name: "moebius", Size: 3}}
	if _, err := m.Submit(Request{Spec: bad}); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Fatalf("want registry unknown-name error, got %v", err)
	}
	if _, err := m.Submit(Request{Spec: quickSpec(1), Replicate: MaxReplicate + 1}); err == nil {
		t.Fatal("oversized replication must be rejected")
	}
	if s := m.Stats(); s.Submitted != 0 || s.Runs != 0 {
		t.Fatalf("rejected submissions must not create work: %+v", s)
	}
}

// TestStrictLRUAtDefaultOptions pins what CacheSize means: exactly that
// many results are kept, the least recently used is the one evicted, and
// nothing about the IDs (they are hashes) decides which results survive.
func TestStrictLRUAtDefaultOptions(t *testing.T) {
	m := NewManager(Options{CacheSize: 4})
	defer m.Close()

	const n = 20
	ids := make([]string, n)
	for i := range ids {
		st, err := m.Submit(Request{Spec: quickSpec(int64(100 + i))})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		waitDone(t, m, st.ID)
	}
	if s := m.Stats(); s.CacheLen != 4 || s.Evicted != n-4 {
		t.Fatalf("want 4 cached and %d evicted, got %+v", n-4, s)
	}
	for i, id := range ids {
		if _, ok := m.Get(id); ok != (i >= n-4) {
			t.Errorf("job %d of %d: cached = %v", i+1, n, ok)
		}
	}
}

func TestLRUEvictionRecomputes(t *testing.T) {
	m := NewManager(Options{Workers: 1, CacheSize: 2})
	defer m.Close()

	ids := make([]string, 3)
	for i := range ids {
		st, err := m.Submit(Request{Spec: quickSpec(int64(20 + i))})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		waitDone(t, m, st.ID)
	}
	s := m.Stats()
	if s.Evicted != 1 || s.CacheLen != 2 {
		t.Fatalf("want 1 eviction with cache at capacity 2, got %+v", s)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("evicted job should be unknown")
	}
	if _, ok := m.Get(ids[2]); !ok {
		t.Fatal("recent job should still be cached")
	}

	// Resubmitting the evicted spec recomputes (content-addressed, so it
	// just becomes a fresh job with the same ID).
	st, err := m.Submit(Request{Spec: quickSpec(20)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != "" {
		t.Fatal("evicted result cannot be served from cache")
	}
	if st.ID != ids[0] {
		t.Fatalf("content-addressed ID changed across eviction: %s vs %s", st.ID, ids[0])
	}
	waitDone(t, m, st.ID)
	if s := m.Stats(); s.Runs != 4 {
		t.Fatalf("want 4 runs after recompute, got %+v", s)
	}
}

func TestReplication(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	st, err := m.Submit(Request{Spec: quickSpec(5), Replicate: 3})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, st.ID)
	r := final.Result.Replicates
	if r == nil || r.N != 3 || len(r.Reports) != 3 {
		t.Fatalf("want 3 replicates, got %+v", final.Result)
	}
	wantSeeds := []int64{5, 6, 7}
	for i, s := range r.Seeds {
		if s != wantSeeds[i] {
			t.Fatalf("seeds = %v, want %v", r.Seeds, wantSeeds)
		}
	}
	// The aggregate must match a direct computation over the reports.
	var sum float64
	for _, rep := range r.Reports {
		sum += rep.MaxLocalSkew
	}
	mean := sum / 3
	if math.Abs(r.Aggregate.LocalSkew.Mean-mean) > 1e-12 {
		t.Fatalf("aggregate mean %g, want %g", r.Aggregate.LocalSkew.Mean, mean)
	}
	if r.Aggregate.LocalSkew.N != 3 || math.IsNaN(r.Aggregate.LocalSkew.Std) {
		t.Fatalf("bad aggregate: %+v", r.Aggregate.LocalSkew)
	}
	if r.Aggregate.LocalSkew.CI95 <= 0 && r.Aggregate.LocalSkew.Std > 0 {
		t.Fatalf("bad CI: %+v", r.Aggregate.LocalSkew)
	}

	// Replicate=1 and Replicate=0 collapse to the same single-run job.
	a, err := Request{Spec: quickSpec(5), Replicate: 1}.ID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Request{Spec: quickSpec(5)}.ID()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("replicate 0 and 1 should share a job ID")
	}
	if a == st.ID {
		t.Fatal("replicated and single runs must have distinct job IDs")
	}
}

func TestIncludeSeries(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	st, err := m.Submit(Request{Spec: quickSpec(6), IncludeSeries: true})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, st.ID)
	if len(final.Result.Series) == 0 {
		t.Fatalf("want recorded series in result, got %+v", final.Result)
	}
	names := make(map[string]bool)
	for _, s := range final.Result.Series {
		names[s.Name] = true
		if s.Len() == 0 {
			t.Fatalf("series %q is empty", s.Name)
		}
	}
	if !names["skew/intra"] || !names["skew/global"] {
		t.Fatalf("unexpected series set: %v", names)
	}

	// The series flag is part of the content address.
	plain, err := Request{Spec: quickSpec(6)}.ID()
	if err != nil {
		t.Fatal(err)
	}
	if plain == st.ID {
		t.Fatal("includeSeries must change the job ID")
	}
}

func TestDeterministicFailuresAreCached(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	// Valid spec that fails at build time: k=1 requires f=0, but a
	// per-cluster attack on k=1 makes the only member Byzantine... use a
	// horizon hook instead: line(1) with globalSkew and huge sample...
	// Simplest deterministic runtime failure: clique topology of size 1
	// with an attack on every cluster and k=1 — the cluster has no
	// correct members.
	s := spec.ScenarioSpec{
		Topology: spec.Topology{Name: "line", Size: 1},
		Clusters: spec.Clusters{K: 1, F: 0},
		Attack:   &spec.Attack{Name: "silent"},
		Horizon:  spec.Horizon{Seconds: 2},
	}
	st, err := m.Submit(Request{Spec: s})
	if err != nil {
		// If validation already rejects this, pick a different failure
		// path: that's fine too, but the test wants a runtime failure.
		t.Fatalf("expected submission to be accepted, got %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, werr := m.Wait(ctx, st.ID)
	if werr != nil {
		t.Fatal(werr)
	}
	if final.State != StateFailed || final.Error == "" {
		t.Skipf("spec unexpectedly runnable (%+v); failure-caching path not exercised", final.State)
	}
	// Resubmission of a deterministic failure is served from cache.
	st2, err := m.Submit(Request{Spec: s})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != TierMemory || st2.State != StateFailed || st2.Error != final.Error {
		t.Fatalf("failed jobs should be cached: %+v", st2)
	}
	if s := m.Stats(); s.Runs != 1 {
		t.Fatalf("failure recomputed: %+v", s)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	m.Close()
	if _, err := m.Submit(Request{Spec: quickSpec(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	m.Close() // idempotent
}
