package ftgcs

import "sync"

// PoolStats is a SystemPool's cumulative and instantaneous state.
// Hits/Misses/Evictions are monotone (suitable for counter bridging);
// Entries is the current pool occupancy.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// SystemPool is the reuse mechanism: it holds idle built Systems under
// their scenario's build key, so a run whose key matches pays a Reset
// (~17µs) instead of a Build (~720µs). Every Sweep runs through one — its
// own for the call, or a shared Sweep.Pool that carries reuse across
// sweeps and the jobs that own them.
//
// The key compares by value: the pinned topology contributes a structural
// digest (independently constructed equal graphs share it; a graph
// mutated after its system was pooled no longer matches), scalar build
// inputs are plain fields, and the drift, delay and attack values compare
// as interface values (dynamic type and value — a pointer-typed attack by
// identity). A scenario with an option error, an unpinned named
// topology, a mode override, mid-run hooks or an adversary of
// non-comparable type is not poolable: Acquire misses and Release
// drops the system.
//
// The pool is bounded: Release evicts the least-recently-returned entry
// past capacity, so it can never pin more than cap built systems. All
// methods are safe for concurrent use, and every method on a nil
// *SystemPool is a no-op — a nil pool simply disables reuse.
type SystemPool struct {
	mu  sync.Mutex
	cap int
	// entries is ordered oldest → newest; Acquire scans newest-first so
	// the hottest build key wins, and eviction drops the oldest.
	entries                 []poolEntry
	hits, misses, evictions uint64
}

// poolEntry is an idle system under the key of the scenario that built
// (or last reset) it.
type poolEntry struct {
	key buildKey
	sys *System
}

// NewSystemPool returns a pool bounded to capacity idle systems
// (≤0 selects 8).
func NewSystemPool(capacity int) *SystemPool {
	if capacity <= 0 {
		capacity = 8
	}
	return &SystemPool{cap: capacity}
}

// Acquire removes and returns a pooled system whose build key equals
// sc's, already Reset to sc's seed and ready to run — or nil when no such
// system is pooled (the caller builds). A system whose Reset fails is
// dropped, never handed out.
func (p *SystemPool) Acquire(sc *Scenario) *System {
	if sc == nil {
		return nil
	}
	return p.acquire(sc.buildKey(), sc.seed)
}

// acquire is Acquire on an already-derived key.
func (p *SystemPool) acquire(key buildKey, seed int64) *System {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	// The zero (not poolable) key equals no entry: release never stores it.
	for i := len(p.entries) - 1; i >= 0; i-- {
		if p.entries[i].key != key {
			continue
		}
		sys := p.entries[i].sys
		p.entries = append(p.entries[:i], p.entries[i+1:]...)
		p.mu.Unlock()
		// Reset outside the lock: it touches the whole system arena and
		// must not serialize unrelated Acquires.
		if err := sys.Reset(seed); err != nil {
			p.note(&p.misses)
			return nil
		}
		p.note(&p.hits)
		return sys
	}
	p.misses++
	p.mu.Unlock()
	return nil
}

// Release returns an idle system to the pool under sc's build key. A nil
// system and a scenario that is not poolable are dropped silently. Past
// capacity the oldest entry is evicted.
func (p *SystemPool) Release(sc *Scenario, sys *System) {
	if sc == nil {
		return
	}
	p.release(sc.buildKey(), sys)
}

// release is Release on an already-derived key.
func (p *SystemPool) release(key buildKey, sys *System) {
	if p == nil || !key.poolable || sys == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		if e.sys == sys {
			return // already pooled; never double-insert one system
		}
	}
	p.entries = append(p.entries, poolEntry{key: key, sys: sys})
	for len(p.entries) > p.cap {
		copy(p.entries, p.entries[1:])
		p.entries = p.entries[:len(p.entries)-1]
		p.evictions++
	}
}

// Stats snapshots the pool's counters and occupancy.
func (p *SystemPool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, Entries: len(p.entries)}
}

// note bumps one of the pool's counters under the lock.
func (p *SystemPool) note(c *uint64) {
	p.mu.Lock()
	*c++
	p.mu.Unlock()
}
