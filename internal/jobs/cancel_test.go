package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// longSpec is validation-legal but heavy: tens of millions of events. It
// exists to still be running when the tests cancel it.
func longSpec(seed int64) Request {
	s := quickSpec(seed)
	s.Horizon.Seconds = 50000
	return Request{Spec: s}
}

// waitRunning polls until the job reports the running state.
func waitRunning(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id)
		if ok && st.State == StateRunning {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
	return JobStatus{}
}

// TestCancelRunningJob is the headline acceptance path: canceling a
// running long-horizon job returns promptly with the canceled state,
// frees the worker slot, and leaves nothing in the result cache.
func TestCancelRunningJob(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	st, err := m.Submit(longSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)

	start := time.Now()
	final, err := m.Cancel(st.ID)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state after Cancel = %v, want canceled: %+v", final.State, final)
	}
	if !final.Retryable {
		t.Fatalf("canceled snapshot should be marked retryable: %+v", final)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("Cancel of a running job took %v, want < 250ms", elapsed)
	}

	// Never cached: the ID is gone, and resubmitting runs the work again.
	if got, ok := m.Get(st.ID); ok {
		t.Fatalf("canceled job still visible: %+v", got)
	}
	re, err := m.Submit(longSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if re.Cached != "" || re.Coalesced {
		t.Fatalf("resubmission of a canceled spec must run afresh: %+v", re)
	}
	if _, err := m.Cancel(re.ID); err != nil {
		t.Fatalf("cancel resubmission: %v", err)
	}

	// The worker slot is free: an unrelated quick job completes.
	quick, err := m.Submit(Request{Spec: quickSpec(7)})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, m, quick.ID); final.State != StateDone {
		t.Fatalf("worker slot not freed after cancel: %+v", final)
	}

	if s := m.Stats(); s.Canceled != 2 {
		t.Fatalf("stats.Canceled = %d, want 2: %+v", s.Canceled, s)
	}
}

// TestCanceledReplicatedJobCompletesNoReplicates: Sweep reports the
// interrupted replicate and every undispatched one to OnScenarioDone, with
// the context error. None of them completed, so a replicated job canceled
// during its first replicate must leave the completed-replicates counter
// at zero.
func TestCanceledReplicatedJobCompletesNoReplicates(t *testing.T) {
	m := NewManager(Options{Workers: 1, SweepWorkers: 1})
	defer m.Close()

	req := longSpec(43)
	req.Replicate = 8
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)
	final, err := m.Cancel(st.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state after Cancel = %v, want canceled: %+v", final.State, final)
	}
	if runs := m.met.runs.Value(); runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
	if n := m.met.replicates.Value(); n != 0 {
		t.Fatalf("replicates completed = %d for a job canceled during replicate 1, want 0", n)
	}
}

// TestCancelQueuedJob: a job canceled before any worker picks it up is
// finished on the spot and never runs.
func TestCancelQueuedJob(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 8})
	defer m.Close()
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	m.TestHookBeforeRun = func() {
		entered <- struct{}{}
		<-gate
	}

	first, err := m.Submit(Request{Spec: quickSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // worker holds job 1; everything below stays queued
	queued, err := m.Submit(Request{Spec: quickSpec(2)})
	if err != nil {
		t.Fatal(err)
	}

	st, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job state after Cancel = %v, want canceled", st.State)
	}

	close(gate)
	if final := waitDone(t, m, first.ID); final.State != StateDone {
		t.Fatalf("held job should complete: %+v", final)
	}
	// The canceled job's stale queue entry is skipped, not executed.
	if s := m.Stats(); s.Runs != 1 || s.Canceled != 1 {
		t.Fatalf("canceled queued job must never run: %+v", s)
	}
	if _, ok := m.Get(queued.ID); ok {
		t.Fatal("canceled queued job must not be cached")
	}
}

// TestCancelTerminalAndUnknown: completed work reports ErrCompleted (the
// cached result stays valid), unknown IDs report ErrUnknownJob.
func TestCancelTerminalAndUnknown(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	st, err := m.Submit(Request{Spec: quickSpec(5)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	got, err := m.Cancel(st.ID)
	if !errors.Is(err, ErrCompleted) {
		t.Fatalf("Cancel of done job: err = %v, want ErrCompleted", err)
	}
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("Cancel of done job should return the cached result: %+v", got)
	}
	if _, err := m.Cancel("sha256:nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel of unknown job: err = %v, want ErrUnknownJob", err)
	}
}

// TestWaitersOfCanceledJobGetRetryableError: coalesced waiters blocked on
// a job that gets canceled are released with a retryable error, not a
// cache miss.
func TestWaitersOfCanceledJobGetRetryableError(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	st, err := m.Submit(longSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)

	const waiters = 4
	errs := make([]error, waiters)
	stats := make([]JobStatus, waiters)
	var wg, entered sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		entered.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			entered.Done()
			stats[i], errs[i] = m.Wait(ctx, st.ID)
		}(i)
	}
	// Give every waiter time to block on the job before canceling it (a
	// waiter that arrives after the cancel would see an unknown ID —
	// canceled jobs are dropped entirely, which is its own contract).
	entered.Wait()
	time.Sleep(100 * time.Millisecond)
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if !errors.Is(errs[i], ErrCanceled) {
			t.Fatalf("waiter %d: err = %v, want ErrCanceled", i, errs[i])
		}
		if !Retryable(errs[i]) {
			t.Fatalf("waiter %d: cancellation must be retryable", i)
		}
		if stats[i].State != StateCanceled {
			t.Fatalf("waiter %d: state = %v, want canceled", i, stats[i].State)
		}
	}
}

// TestRunLimitBudget: a manager-level wall-clock budget cancels a heavy
// job on its own, with an error naming the limit; the result is not
// cached.
func TestRunLimitBudget(t *testing.T) {
	// The budget must be comfortably above a quick job's runtime (even
	// under -race) yet far below the long job's.
	m := NewManager(Options{Workers: 1, RunLimit: 2 * time.Second})
	defer m.Close()

	st, err := m.Submit(longSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, st.ID)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait on budget-canceled job: err = %v, want ErrCanceled", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %v, want canceled: %+v", final.State, final)
	}
	if !strings.Contains(final.Error, "run limit") {
		t.Fatalf("error should name the budget: %+v", final)
	}
	if _, ok := m.Get(st.ID); ok {
		t.Fatal("budget-canceled job must not be cached")
	}

	// The budget does not touch jobs that fit inside it.
	quick, err := m.Submit(Request{Spec: quickSpec(12)})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, m, quick.ID); final.State != StateDone {
		t.Fatalf("quick job should beat the budget: %+v", final)
	}
}

// TestProgressMonotone: a running job's status exposes progress that only
// ever advances, and replication jobs report replicate counts.
func TestProgressMonotone(t *testing.T) {
	m := NewManager(Options{Workers: 1, SweepWorkers: 2})
	defer m.Close()

	req := longSpec(21)
	req.Replicate = 2
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel(st.ID)

	var last Progress
	sampled := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && sampled < 50 {
		got, ok := m.Get(st.ID)
		if !ok {
			t.Fatal("job disappeared while running")
		}
		if got.State != StateRunning || got.Progress == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		p := *got.Progress
		if p.Events < last.Events || p.SimFraction < last.SimFraction || p.Replicate < last.Replicate {
			t.Fatalf("progress went backwards: %+v after %+v", p, last)
		}
		if p.Replicates != 2 {
			t.Fatalf("Replicates = %d, want 2", p.Replicates)
		}
		if p.SimFraction < 0 || p.SimFraction > 1 {
			t.Fatalf("SimFraction out of range: %+v", p)
		}
		last = p
		sampled++
	}
	if sampled == 0 {
		t.Fatal("never observed running progress")
	}
	if last.Events == 0 {
		t.Fatal("progress never advanced past zero events")
	}
}
