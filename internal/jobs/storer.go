package jobs

import (
	"encoding/json"
	"fmt"
	"time"
)

// storeItem is one completed result awaiting its disk write. payload,
// when non-nil, is the result's already-marshaled canonical body (the
// same bytes served to clients), so persisting costs a name splice
// instead of a full re-marshal. endSpan closes the job trace's
// "storing" span once the bytes are durable.
type storeItem struct {
	id      string
	res     *Result
	payload *resultPayload
	endSpan func()
}

// storer is the write-behind goroutine of the disk tier: it drains
// pendingStore batches and writes each result's canonical bytes to the
// store. Encoding and IO happen outside m.mu. It exits only when Close
// has set storeClosing AND the backlog is empty, so every result that
// finished before Close returns is durable (on a healthy store).
//
// The loop is hardened against a misbehaving store: each item's write is
// retried with capped exponential backoff and any panic out of the
// encode/Put path is recovered and counted as a failed attempt — one bad
// object can never kill the goroutine and silently end disk persistence
// for every job after it. When storeFailureThreshold consecutive items
// fail every attempt, a breaker opens (Stats().StoreDegraded is true, healthz
// shows "degraded", ftgcs_store_degraded is 1) and the manager runs
// memory-only: results stay served from the LRU, nothing blocks, items
// are dropped from the write-behind queue instead of piling up. After
// storeCooldown the next item is written as a probe; success closes the
// breaker, failure re-arms the cooldown.
func (m *Manager) storer() {
	defer m.storeWg.Done()
	for {
		m.storeMu.Lock()
		for len(m.pendingStore) == 0 && !m.storeClosing {
			m.storeCond.Wait()
		}
		if len(m.pendingStore) == 0 {
			m.storeMu.Unlock()
			return
		}
		batch := m.pendingStore
		m.pendingStore = nil
		m.storeMu.Unlock()

		for _, it := range batch {
			m.storeOne(it)
		}
	}
}

// storeBackoffCap bounds the storer's exponential retry backoff.
const storeBackoffCap = time.Second

// storeOne persists one result, applying the retry/breaker policy; it
// always ends the item's "storing" trace span, stored or not.
func (m *Manager) storeOne(it storeItem) {
	defer func() {
		if it.endSpan != nil {
			it.endSpan()
		}
	}()
	closing := m.storerInterrupted()
	if m.degraded.Load() {
		if closing || time.Since(m.storeDownSince) < m.storeCooldown {
			return // breaker open: memory-only, drop the disk write
		}
		// Cooldown elapsed: fall through and use this item as the
		// half-open probe (single attempt — see below).
	}
	attempts := m.storeRetries
	if closing || m.degraded.Load() {
		// During shutdown — or as a breaker probe — each item gets exactly
		// one try: Close must never wait out a retry schedule, and a probe
		// that fails should not hammer a store already known to be sick.
		attempts = 1
	}
	backoff := m.storeBackoff
	for i := 0; i < attempts; i++ {
		if m.storeAttempt(it) == nil {
			m.met.diskStored.Inc()
			m.storeFails = 0
			if m.degraded.CompareAndSwap(true, false) {
				m.storeDownSince = time.Time{}
			}
			return
		}
		m.met.storeErrors.Inc()
		if i+1 < attempts {
			if !m.storerSleep(backoff) {
				break // Close interrupted the backoff: give up on this item
			}
			backoff = min(backoff*2, storeBackoffCap)
		}
	}
	// The item failed every attempt it was allowed.
	m.storeFails++
	if m.degraded.Load() || m.storeFails >= m.storeThreshold {
		m.degraded.Store(true)
		m.storeDownSince = time.Now()
	}
}

// storeAttempt is one encode+write try, with panics converted to errors
// so a poisoned payload cannot take the storer goroutine down. When the
// item carries the result's pre-marshaled body the disk bytes are built
// by splicing the runner's name into it — byte-identical to a full
// json.Marshal of the result, but without re-walking the struct.
func (m *Manager) storeAttempt(it storeItem) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: store write panicked: %v", r)
		}
	}()
	var payload []byte
	if it.payload != nil {
		payload = it.payload.appendNamed(make([]byte, 0, it.payload.namedLen(it.res.Name)), it.res.Name)
	} else {
		payload, err = json.Marshal(it.res)
		if err != nil {
			return err
		}
	}
	return m.store.Put(it.id, payload)
}

// storerSleep waits d or until Close interrupts, whichever is first;
// false means interrupted.
func (m *Manager) storerSleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.storerInterrupt:
		return false
	case <-t.C:
		return true
	}
}

// storerInterrupted reports whether Close has begun flushing the store.
func (m *Manager) storerInterrupted() bool {
	select {
	case <-m.storerInterrupt:
		return true
	default:
		return false
	}
}

// flushStore tells the storer to drain everything still pending and
// waits for it: after Close returns, every result that completed before
// the shutdown is durable on disk. No-op without a store.
func (m *Manager) flushStore() {
	if m.store == nil {
		return
	}
	close(m.storerInterrupt) // cut any in-flight retry backoff short
	m.storeMu.Lock()
	m.storeClosing = true
	m.storeCond.Broadcast()
	m.storeMu.Unlock()
	m.storeWg.Wait()
}
