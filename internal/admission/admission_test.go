package admission

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable, manually-advanced clock shared by a
// bucket and its test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestAlwaysAdmit(t *testing.T) {
	var p Policy = AlwaysAdmit{}
	for i := 0; i < 100; i++ {
		if d := p.Admit("anyone", 1); !d.OK {
			t.Fatal("AlwaysAdmit rejected")
		}
	}
}

// TestTokenBucketBurstThenRefill: a frozen clock admits exactly Burst
// requests, then rejects with a RetryAfter matching the deficit; after
// advancing the clock past it, admission resumes.
func TestTokenBucketBurstThenRefill(t *testing.T) {
	clock := newFakeClock()
	tb := NewTokenBucket(TokenBucketOptions{Rate: 2, Burst: 3, Now: clock.Now})

	for i := 0; i < 3; i++ {
		if d := tb.Admit("a", 1); !d.OK {
			t.Fatalf("admission %d rejected within burst", i)
		}
	}
	d := tb.Admit("a", 1)
	if d.OK {
		t.Fatal("fourth admission should exceed the burst")
	}
	if d.Scope != ScopeGlobal {
		t.Fatalf("scope = %q, want global", d.Scope)
	}
	// Deficit is 1 token at 2 tokens/s: 500ms.
	if d.RetryAfter != 500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 500ms", d.RetryAfter)
	}

	clock.Advance(d.RetryAfter)
	if d := tb.Admit("a", 1); !d.OK {
		t.Fatalf("admission after the advertised wait still rejected: %+v", d)
	}
	// The bucket is empty again; a partial refill is not enough for the
	// next request.
	clock.Advance(100 * time.Millisecond)
	if d := tb.Admit("a", 1); d.OK {
		t.Fatal("admission with 0.2 tokens should be rejected")
	}
}

// TestTokenBucketPerClientFairShare is the fairness core: client A
// saturating its own share is rejected with scope "client" while client
// B — and the global budget — are untouched.
func TestTokenBucketPerClientFairShare(t *testing.T) {
	clock := newFakeClock()
	tb := NewTokenBucket(TokenBucketOptions{
		Rate: 100, Burst: 100,
		PerClientRate: 1, PerClientBurst: 2,
		Now: clock.Now,
	})

	for i := 0; i < 2; i++ {
		if d := tb.Admit("A", 1); !d.OK {
			t.Fatalf("A's admission %d rejected within its share", i)
		}
	}
	d := tb.Admit("A", 1)
	if d.OK || d.Scope != ScopeClient {
		t.Fatalf("A's third admission should reject with scope client: %+v", d)
	}
	if d.RetryAfter != time.Second {
		t.Fatalf("A's RetryAfter = %v, want 1s (deficit 1 token at 1/s)", d.RetryAfter)
	}

	// B is a different identity: full share available.
	for i := 0; i < 2; i++ {
		if d := tb.Admit("B", 1); !d.OK {
			t.Fatalf("B starved by A's saturation: %+v", d)
		}
	}

	// A's share refills independently of B's spending.
	clock.Advance(time.Second)
	if d := tb.Admit("A", 1); !d.OK {
		t.Fatalf("A not admitted after its share refilled: %+v", d)
	}
}

// TestTokenBucketBatchCost: a batch charges one token per item, and a
// batch larger than the burst drains the bucket instead of being
// unadmittable forever.
func TestTokenBucketBatchCost(t *testing.T) {
	clock := newFakeClock()
	tb := NewTokenBucket(TokenBucketOptions{Rate: 1, Burst: 4, Now: clock.Now})

	if d := tb.Admit("a", 3); !d.OK {
		t.Fatal("batch of 3 within burst rejected")
	}
	if d := tb.Admit("a", 2); d.OK {
		t.Fatal("batch of 2 with 1 token left should be rejected")
	}
	if d := tb.Admit("a", 1); !d.OK {
		t.Fatal("single with 1 token left rejected")
	}

	// Oversized batch: cost clamps to the burst, so a full bucket covers
	// it (and is fully drained).
	clock.Advance(10 * time.Second)
	if d := tb.Admit("a", 100); !d.OK {
		t.Fatal("oversized batch against a full bucket should drain it, not reject forever")
	}
	if d := tb.Admit("a", 1); d.OK {
		t.Fatal("bucket should be empty after the oversized batch")
	}
}

// TestTokenBucketRejectionChargesNothing: a request rejected by the
// global bucket must not have consumed the client's own tokens.
func TestTokenBucketRejectionChargesNothing(t *testing.T) {
	clock := newFakeClock()
	tb := NewTokenBucket(TokenBucketOptions{
		Rate: 1, Burst: 1,
		PerClientRate: 10, PerClientBurst: 10,
		Now: clock.Now,
	})

	if d := tb.Admit("other", 1); !d.OK {
		t.Fatal("first admission rejected")
	}
	// Global now empty. A's rejections must not drain A's bucket.
	for i := 0; i < 5; i++ {
		if d := tb.Admit("A", 1); d.OK || d.Scope != ScopeGlobal {
			t.Fatalf("expected global rejection: %+v", d)
		}
	}
	// One global token refills; A must still have its full share (the
	// admission takes 1 from each, which a drained client bucket could
	// not cover).
	clock.Advance(time.Second)
	if d := tb.Admit("A", 1); !d.OK {
		t.Fatalf("A's bucket was drained by rejected requests: %+v", d)
	}
}

// TestTokenBucketClientEviction: the tracked-client index stays bounded
// under client-ID churn, and dropping a fully-refilled bucket does not
// grant extra tokens (a full bucket is indistinguishable from a fresh
// one).
func TestTokenBucketClientEviction(t *testing.T) {
	clock := newFakeClock()
	tb := NewTokenBucket(TokenBucketOptions{
		Rate: 1e9, Burst: 1e9,
		PerClientRate: 1, PerClientBurst: 1,
		MaxClients: 8,
		Now:        clock.Now,
	})

	for i := 0; i < 100; i++ {
		tb.Admit(fmt.Sprintf("client-%d", i), 1)
	}
	if n := len(tb.clients); n > 8 {
		t.Fatalf("tracked clients = %d, want ≤ 8", n)
	}
	// A drained client evicted under churn gets a fresh (full) bucket —
	// it can over-admit by at most one burst, never accumulate more.
	if d := tb.Admit("client-0", 1); !d.OK {
		t.Fatalf("evicted client should restart with a full share: %+v", d)
	}
	if d := tb.Admit("client-0", 1); d.OK {
		t.Fatal("restarted client must still be capped at its burst")
	}
}

// TestTokenBucketConcurrentAccounting is the -race test of token
// accounting: with a frozen clock and burst B, exactly B of the
// concurrent admissions may succeed — no lost updates, no double
// spends — and per-client caps hold under the same contention.
func TestTokenBucketConcurrentAccounting(t *testing.T) {
	clock := newFakeClock()
	const (
		burst      = 64
		goroutines = 16
		perG       = 32
	)
	tb := NewTokenBucket(TokenBucketOptions{
		Rate: 1, Burst: burst,
		PerClientRate: 1, PerClientBurst: 8,
		Now: clock.Now,
	})

	var admitted, clientRej, globalRej atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", g)
			for i := 0; i < perG; i++ {
				switch d := tb.Admit(client, 1); {
				case d.OK:
					admitted.Add(1)
				case d.Scope == ScopeClient:
					clientRej.Add(1)
				default:
					globalRej.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	// Each of the 16 clients is capped at 8 tokens = 128 > burst, so the
	// global bucket is the binding limit: exactly 64 admissions.
	if got := admitted.Load(); got != burst {
		t.Fatalf("admitted %d, want exactly %d (frozen clock, burst %d)", got, burst, burst)
	}
	// Every client spends its 8 tokens before its 32 attempts run out,
	// so both rejection scopes must appear.
	if clientRej.Load()+globalRej.Load() != goroutines*perG-burst {
		t.Fatalf("rejections %d+%d do not cover the remainder",
			clientRej.Load(), globalRej.Load())
	}
}

// TestTokenBucketConcurrentPerClientCap: per-client accounting holds
// exactly under contention on a single client key.
func TestTokenBucketConcurrentPerClientCap(t *testing.T) {
	clock := newFakeClock()
	tb := NewTokenBucket(TokenBucketOptions{
		Rate: 1e6, Burst: 1e6,
		PerClientRate: 1, PerClientBurst: 16,
		Now: clock.Now,
	})

	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if tb.Admit("hot", 1).OK {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 16 {
		t.Fatalf("single client admitted %d, want exactly its burst 16", got)
	}
}

func TestNewTokenBucketValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rate ≤ 0 must panic")
		}
	}()
	NewTokenBucket(TokenBucketOptions{Rate: 0})
}
