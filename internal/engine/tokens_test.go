package engine

import "testing"

// TestTryTokenSingleWorker: a 1-worker pool has a zero-capacity bucket, and
// TryToken must succeed trivially — batch dispatch on a GOMAXPROCS=1 box
// would otherwise deadlock against a bucket that never holds a token.
func TestTryTokenSingleWorker(t *testing.T) {
	p := New(1)
	for i := 0; i < 3; i++ {
		release, ok := p.TryToken(1)
		if !ok {
			t.Fatalf("TryToken on 1-worker pool failed (iteration %d)", i)
		}
		release()
		release() // no-op release must also be idempotent
	}
}

// TestTryTokenReserveClamped: reserve must clamp to cap-1 so that a fully
// idle pool always yields at least one token to background work. A 2-worker
// pool has a 1-token bucket, and the jobs manager's default reserve is 1;
// unclamped, TryToken(1) would fail forever on a 2-vCPU host and submitted
// jobs would hang while the scheduler busy-looped.
func TestTryTokenReserveClamped(t *testing.T) {
	p := New(2) // bucket capacity 1
	release, ok := p.TryToken(1)
	if !ok {
		t.Fatal("TryToken(1) failed on an idle 2-worker pool: reserve not clamped to cap-1")
	}
	// The bucket is empty now; a second claim must still fail.
	if _, ok := p.TryToken(1); ok {
		t.Fatal("TryToken(1) succeeded on an empty bucket")
	}
	release()
	// Over-large reserves clamp the same way.
	release2, ok := p.TryToken(100)
	if !ok {
		t.Fatal("TryToken(100) failed on an idle 2-worker pool: reserve not clamped")
	}
	release2()
	if got := p.idle(); got != 1 {
		t.Fatalf("after releases: %d idle tokens, want 1", got)
	}
}

// TestTryTokenReserve: reservation keeps the last tokens for interactive
// Maps — acquisition stops while len(tokens) <= reserve.
func TestTryTokenReserve(t *testing.T) {
	p := New(3) // bucket capacity 2
	r1, ok := p.TryToken(1)
	if !ok {
		t.Fatal("first TryToken(1) failed with 2 tokens free")
	}
	if _, ok := p.TryToken(1); ok {
		t.Fatal("TryToken(1) succeeded with only the reserved token left")
	}
	r2, ok := p.TryToken(0)
	if !ok {
		t.Fatal("TryToken(0) failed with 1 token free")
	}
	if _, ok := p.TryToken(0); ok {
		t.Fatal("TryToken(0) succeeded on an empty bucket")
	}
	if _, ok := p.TryToken(-5); ok {
		t.Fatal("negative reserve should clamp to 0, not go below empty")
	}
	r2()
	r1()
	if got := p.idle(); got != 2 {
		t.Fatalf("after releases: %d idle tokens, want 2", got)
	}
}

// TestTryTokenReleaseIdempotent: double-release must not mint tokens.
func TestTryTokenReleaseIdempotent(t *testing.T) {
	p := New(2) // bucket capacity 1
	release, ok := p.TryToken(0)
	if !ok {
		t.Fatal("TryToken failed on a fresh pool")
	}
	release()
	release()
	release()
	if got := p.idle(); got != 1 {
		t.Fatalf("idempotent release violated: %d idle tokens, want 1", got)
	}
	// The bucket is whole again: exactly one acquisition fits.
	if _, ok := p.TryToken(0); !ok {
		t.Fatal("re-acquire after release failed")
	}
	if _, ok := p.TryToken(0); ok {
		t.Fatal("double-release minted an extra token")
	}
}
