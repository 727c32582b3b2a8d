package jobs

import (
	"syscall"
	"testing"
	"time"

	"ftgcs/internal/cas"
)

// openFaultStore opens a store whose disk can be broken and healed by
// the returned FaultFS.
func openFaultStore(t *testing.T, dir string) (*cas.Store, *cas.FaultFS) {
	t.Helper()
	ffs := &cas.FaultFS{}
	s, err := cas.Open(dir, cas.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	return s, ffs
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStoreDegradesToMemoryOnPersistentFailure is the degradation
// ladder's first rung: a disk that fails every write trips the breaker
// after the configured number of failed items, the manager reports
// StoreDegraded, and — the actual point — jobs keep completing and serving
// from the memory tier the whole time.
func TestStoreDegradesToMemoryOnPersistentFailure(t *testing.T) {
	store, ffs := openFaultStore(t, t.TempDir())
	ffs.FailWrites(syscall.ENOSPC)
	m := NewManager(Options{
		Workers: 1, Store: store,
		StoreRetries: 1, StoreRetryBackoff: time.Millisecond,
		StoreFailureThreshold: 2, StoreCooldown: time.Hour, // no recovery in this test
	})
	defer m.Close()

	for seed := int64(1); seed <= 3; seed++ {
		st, err := m.Submit(Request{Spec: quickSpec(seed)})
		if err != nil {
			t.Fatalf("submission under store failure rejected: %v", err)
		}
		if got := waitDone(t, m, st.ID); got.State != StateDone {
			t.Fatalf("job under store failure ended %s, want done", got.State)
		}
	}
	waitFor(t, "breaker to open", m.degraded.Load)

	s := m.Stats()
	if !s.StoreDegraded || s.StoreErrors == 0 {
		t.Fatalf("stats do not reflect the open breaker: %+v", s)
	}
	if s.DiskStored != 0 {
		t.Fatalf("nothing could have been stored: %+v", s)
	}

	// Memory-only service: the completed results still serve as hits.
	st, err := m.Submit(Request{Spec: quickSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != TierMemory || st.State != StateDone {
		t.Fatalf("degraded manager should serve from memory: %+v", st)
	}
	// And fresh work still runs (dropped from the write-behind queue, not
	// blocked by it).
	st2, err := m.Submit(Request{Spec: quickSpec(9)})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, m, st2.ID); got.State != StateDone {
		t.Fatalf("fresh job under open breaker ended %s, want done", got.State)
	}
}

// TestStoreBreakerRecovers: after the disk heals and the cooldown
// elapses, the next result acts as a probe write; its success closes the
// breaker and durability resumes.
func TestStoreBreakerRecovers(t *testing.T) {
	store, ffs := openFaultStore(t, t.TempDir())
	ffs.FailWrites(syscall.ENOSPC)
	m := NewManager(Options{
		Workers: 1, Store: store,
		StoreRetries: 1, StoreRetryBackoff: time.Millisecond,
		StoreFailureThreshold: 1, StoreCooldown: 10 * time.Millisecond,
	})
	defer m.Close()

	st, err := m.Submit(Request{Spec: quickSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	waitFor(t, "breaker to open", m.degraded.Load)

	ffs.Heal()
	time.Sleep(20 * time.Millisecond) // let the cooldown elapse

	st2, err := m.Submit(Request{Spec: quickSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st2.ID)
	waitFor(t, "breaker to close after a successful probe", func() bool { return !m.degraded.Load() })
	waitFor(t, "probe result to be durable", func() bool { return m.Stats().DiskStored >= 1 })
	if _, ok := store.Get(st2.ID); !ok {
		t.Fatal("probe result not on disk after recovery")
	}
	if s := m.Stats(); s.StoreDegraded {
		t.Fatalf("stats still degraded after recovery: %+v", s)
	}
}

// TestStorerSurvivesPanic: a panic out of the store write path (poisoned
// encoder, broken disk driver) is recovered and counted — the storer
// goroutine keeps draining, and later results still reach disk.
func TestStorerSurvivesPanic(t *testing.T) {
	store, ffs := openFaultStore(t, t.TempDir())
	ffs.PanicWrites(true)
	m := NewManager(Options{
		Workers: 1, Store: store,
		StoreRetries: 1, StoreRetryBackoff: time.Millisecond,
		StoreFailureThreshold: 100, StoreCooldown: time.Hour, // panics alone must not trip it here
	})
	defer m.Close()

	st, err := m.Submit(Request{Spec: quickSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	waitFor(t, "recovered panic to be counted", func() bool { return m.Stats().StoreErrors >= 1 })
	if m.degraded.Load() {
		t.Fatal("one panicking item below the threshold must not trip the breaker")
	}

	ffs.Heal()
	st2, err := m.Submit(Request{Spec: quickSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st2.ID)
	waitFor(t, "storer to keep working after the panic", func() bool { return m.Stats().DiskStored >= 1 })
	if _, ok := store.Get(st2.ID); !ok {
		t.Fatal("post-panic result not on disk: the storer goroutine died")
	}
}

// TestCloseDoesNotBlockOnBrokenStore: Close must return promptly even
// when the store fails every write and the retry schedule would
// otherwise sleep for seconds — the flush interrupts backoff and every
// pending item gets at most one attempt.
func TestCloseDoesNotBlockOnBrokenStore(t *testing.T) {
	store, ffs := openFaultStore(t, t.TempDir())
	ffs.FailWrites(syscall.ENOSPC)
	m := NewManager(Options{
		Workers: 1, Store: store,
		// A schedule that would take ≥ 4s per item if Close waited it out.
		StoreRetries: 8, StoreRetryBackoff: 500 * time.Millisecond,
		StoreFailureThreshold: 100, StoreCooldown: time.Hour,
	})

	st, err := m.Submit(Request{Spec: quickSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)

	start := time.Now()
	m.Close()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Close took %v against a broken store; the retry schedule was not interrupted", elapsed)
	}
}
