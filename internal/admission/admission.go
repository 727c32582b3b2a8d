// Package admission is the experiment service's load-shedding front
// door: a policy consulted before any work reaches the jobs queue. The
// queue already rejects overload (503 when full), but by then the
// request has been decoded and its topology budgeted — and a full queue
// punishes every client equally, so one client flooding submissions can
// starve everyone else. An admission policy rejects earlier, cheaper,
// and *attributably*: every rejection names which budget was exhausted
// (the service-wide rate or the caller's own fair share) and carries a
// machine-readable RetryAfter hint, so a well-behaved client backs off
// for exactly as long as the deficit demands instead of hammering.
//
// Two policies ship:
//
//   - AlwaysAdmit — the no-op default; overload handling falls back to
//     queue backpressure alone.
//   - TokenBucket — a service-wide token bucket plus optional per-client
//     buckets keyed by caller identity. The per-client bucket caps any
//     single client's sustained rate below the service-wide one, which
//     is what makes the sharing *fair*: a client saturating its own
//     share runs out of its own tokens and is rejected with scope
//     ScopeClient while everyone else still draws from the global pool.
//
// The clock is injectable, so token accounting is testable without
// sleeping; all methods are safe for concurrent use.
package admission

import (
	"sync"
	"time"
)

// Scope names the budget that rejected a request.
type Scope string

const (
	// ScopeGlobal: the service-wide rate was exhausted — the service as a
	// whole is saturated; everyone should slow down.
	ScopeGlobal Scope = "global"
	// ScopeClient: the caller's own fair share was exhausted — this
	// client should slow down; others are unaffected.
	ScopeClient Scope = "client"
)

// Decision is a policy's verdict on one request.
type Decision struct {
	// OK is true when the request may proceed.
	OK bool
	// RetryAfter, on rejection, is how long the caller must wait before
	// the limiting bucket can cover the same request again. Servers
	// surface it as the Retry-After header (rounded up to whole seconds).
	RetryAfter time.Duration
	// Scope, on rejection, names the exhausted budget.
	Scope Scope
}

// Policy decides whether a client's request enters the service. Cost is
// the request's weight in tokens — 1 for a single submission, the item
// count for a batch — so one batch cannot launder a burst past the
// accounting.
type Policy interface {
	Admit(client string, cost int) Decision
}

// AlwaysAdmit admits everything: the default when no admission rate is
// configured.
type AlwaysAdmit struct{}

// Admit implements Policy.
func (AlwaysAdmit) Admit(string, int) Decision { return Decision{OK: true} }

// TokenBucketOptions configures a TokenBucket.
type TokenBucketOptions struct {
	// Rate is the service-wide sustained admission rate in requests per
	// second. Must be > 0.
	Rate float64
	// Burst is the service-wide bucket capacity (how far the service may
	// briefly exceed Rate). ≤ 0 defaults to max(Rate, 1).
	Burst float64
	// PerClientRate caps any single client's sustained rate; ≤ 0 disables
	// per-client accounting (the global bucket is the only limit).
	PerClientRate float64
	// PerClientBurst is each client's bucket capacity; ≤ 0 defaults to
	// max(PerClientRate, 1).
	PerClientBurst float64
	// MaxClients bounds the tracked-client index (≤ 0: 4096). When the
	// index is full, clients whose buckets have fully refilled — which
	// are indistinguishable from clients never seen — are dropped first,
	// then the longest-idle; accounting degrades gracefully, it never
	// grows without bound under client-ID churn.
	MaxClients int
	// Now overrides the clock in tests; nil means time.Now.
	Now func() time.Time
}

// TokenBucket is a Policy built from a service-wide token bucket plus
// optional per-client buckets. Admission takes cost tokens from the
// caller's bucket and the global bucket atomically: a request is either
// fully admitted or charged nothing, so rejected requests never leak
// tokens.
type TokenBucket struct {
	rate, burst       float64
	perRate, perBurst float64
	maxClients        int
	now               func() time.Time

	mu      sync.Mutex
	global  bucket
	clients map[string]*clientBucket
}

// bucket is one token bucket; refills lazily from elapsed time.
type bucket struct {
	tokens float64
	last   time.Time
}

func (b *bucket) refill(now time.Time, rate, burst float64) {
	if now.After(b.last) {
		b.tokens = min(burst, b.tokens+rate*now.Sub(b.last).Seconds())
		b.last = now
	}
}

type clientBucket struct {
	bucket
	lastSeen time.Time
}

// NewTokenBucket builds the policy. It panics on a non-positive Rate —
// a zero-rate bucket admits nothing forever, which is a configuration
// error, not a policy.
func NewTokenBucket(o TokenBucketOptions) *TokenBucket {
	if o.Rate <= 0 {
		panic("admission: token bucket needs Rate > 0")
	}
	if o.Burst <= 0 {
		o.Burst = max(o.Rate, 1)
	}
	if o.PerClientRate > 0 && o.PerClientBurst <= 0 {
		o.PerClientBurst = max(o.PerClientRate, 1)
	}
	if o.MaxClients <= 0 {
		o.MaxClients = 4096
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	t := &TokenBucket{
		rate:       o.Rate,
		burst:      o.Burst,
		perRate:    o.PerClientRate,
		perBurst:   o.PerClientBurst,
		maxClients: o.MaxClients,
		now:        o.Now,
	}
	t.global = bucket{tokens: t.burst, last: t.now()}
	if t.perRate > 0 {
		t.clients = make(map[string]*clientBucket)
	}
	return t
}

// Admit implements Policy. The effective charge is min(cost, burst):
// a batch larger than the burst drains the bucket to empty rather than
// being unadmittable forever (the bucket cannot go negative, so the
// overage is bounded by one batch).
func (t *TokenBucket) Admit(client string, cost int) Decision {
	if cost < 1 {
		cost = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.global.refill(now, t.rate, t.burst)

	var cb *clientBucket
	if t.perRate > 0 {
		cb = t.clientLocked(client, now)
		cb.refill(now, t.perRate, t.perBurst)
		need := min(float64(cost), t.perBurst)
		if cb.tokens < need {
			return Decision{
				RetryAfter: deficitWait(need-cb.tokens, t.perRate),
				Scope:      ScopeClient,
			}
		}
	}
	need := min(float64(cost), t.burst)
	if t.global.tokens < need {
		return Decision{
			RetryAfter: deficitWait(need-t.global.tokens, t.rate),
			Scope:      ScopeGlobal,
		}
	}
	// Both budgets cover the request: charge them together.
	t.global.tokens -= need
	if cb != nil {
		cb.tokens -= min(float64(cost), t.perBurst)
	}
	return Decision{OK: true}
}

// clientLocked returns (creating if needed) the caller's bucket,
// evicting to stay under maxClients; callers hold t.mu.
func (t *TokenBucket) clientLocked(client string, now time.Time) *clientBucket {
	if cb, ok := t.clients[client]; ok {
		cb.lastSeen = now
		return cb
	}
	if len(t.clients) >= t.maxClients {
		t.evictLocked(now)
	}
	// New clients start with a full bucket: identity that has never (or
	// not recently) submitted has its whole share available.
	cb := &clientBucket{bucket: bucket{tokens: t.perBurst, last: now}, lastSeen: now}
	t.clients[client] = cb
	return cb
}

// evictLocked drops fully-refilled buckets (semantically identical to
// never-seen clients), then the longest-idle one if still at capacity.
func (t *TokenBucket) evictLocked(now time.Time) {
	var oldestKey string
	var oldest time.Time
	for k, cb := range t.clients {
		cb.refill(now, t.perRate, t.perBurst)
		if cb.tokens >= t.perBurst {
			delete(t.clients, k)
			continue
		}
		if oldestKey == "" || cb.lastSeen.Before(oldest) {
			oldestKey, oldest = k, cb.lastSeen
		}
	}
	if len(t.clients) >= t.maxClients && oldestKey != "" {
		delete(t.clients, oldestKey)
	}
}

// deficitWait converts a token deficit at a refill rate into a wait,
// with a 1ms floor so a rejection never advertises an instant retry.
func deficitWait(deficit, rate float64) time.Duration {
	d := time.Duration(deficit / rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
