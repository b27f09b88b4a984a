package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"flexrpc/internal/clock"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// The FakeClock's own behaviour is tested where it lives, in
// internal/clock; this package only re-exports it. The assertions pin
// the aliases to the one implementation.
var (
	_ Clock      = (*clock.FakeClock)(nil)
	_ *FakeClock = clock.NewFakeClock()
	_ Clock      = clock.WallClock
)

func clockPres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("c.idl", `interface C { long echo(in long n); };`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("C"), pres.StyleCORBA)
	if err := pdl.ApplyLoose(p, "c.pdl", "interface C {\n    [idempotent] echo();\n};\n"); err != nil {
		t.Fatal(err)
	}
	return p
}

// failNConn returns corrupt session replies for the first n calls,
// then delegates to ok (a closure building a valid frame).
type failNConn struct {
	n     int
	calls int
	ok    func(opIdx int, req, replyBuf []byte) ([]byte, error)
}

func (c *failNConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	c.calls++
	if c.calls <= c.n {
		return []byte{0, 0}, nil // short frame: ErrCorruptReply, retryable
	}
	return c.ok(opIdx, req, replyBuf)
}

func (c *failNConn) Close() error { return nil }

// TestRobustBackoffScheduleFakeClock verifies the retry loop's
// backoff schedule — exponential, jittered in [d/2, d], capped —
// without sleeping a nanosecond of wall time.
func TestRobustBackoffScheduleFakeClock(t *testing.T) {
	p := clockPres(t)
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	conn := &failNConn{
		n:  5,
		ok: func(int, []byte, []byte) ([]byte, error) { return nil, errors.New("done") },
	}
	policy := RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Seed:        7,
	}
	r := NewRobustConn(conn, p, RobustOptions{ClientID: 1, AtMostOnce: true, Policy: policy, Clock: fc})
	e := stats.New([]string{"echo"})
	r.SetStats(e)

	start := time.Now()
	_, err := r.Call(0, []byte("req"), nil)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("fake-clock retries burned %v of wall time", took)
	}
	if err == nil || err.Error() != "done" {
		t.Fatalf("err = %v, want the final attempt's error", err)
	}
	if conn.calls != 6 {
		t.Fatalf("conn saw %d calls, want 6", conn.calls)
	}

	// The un-jittered schedule is 10, 20, 40, 50, 50ms (capped); each
	// recorded sleep must fall in [d/2, d].
	want := []time.Duration{10, 20, 40, 50, 50}
	sleeps := fc.Sleeps()
	if len(sleeps) != len(want) {
		t.Fatalf("got %d sleeps %v, want %d", len(sleeps), sleeps, len(want))
	}
	for i, s := range sleeps {
		d := want[i] * time.Millisecond
		if s < d/2 || s > d {
			t.Fatalf("sleep %d = %v outside jitter window [%v, %v]", i, s, d/2, d)
		}
	}

	snap := e.Snapshot()
	if snap.Ops[0].Retries != 5 {
		t.Fatalf("retries = %d, want 5", snap.Ops[0].Retries)
	}
	if snap.CorruptReplies != 5 {
		t.Fatalf("corrupt replies = %d, want 5", snap.CorruptReplies)
	}
}

// stuckConn never answers; it expires the pending attempt deadline
// itself, standing in for a server that went silent.
type stuckConn struct {
	fc      *FakeClock
	timeout time.Duration
	release chan struct{}
}

func (c *stuckConn) Call(int, []byte, []byte) ([]byte, error) {
	c.fc.Advance(c.timeout)
	<-c.release
	return nil, errors.New("released")
}

func (c *stuckConn) Close() error { return nil }

// TestRobustAttemptTimeoutFakeClock verifies each attempt is carved
// its own deadline from the fake clock and that expiry is classified
// retryable, again with zero wall-clock sleeping.
func TestRobustAttemptTimeoutFakeClock(t *testing.T) {
	p := clockPres(t)
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	conn := &stuckConn{fc: fc, timeout: 30 * time.Millisecond, release: make(chan struct{})}
	t.Cleanup(func() { close(conn.release) })
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID:   2,
		AtMostOnce: true,
		Policy: RetryPolicy{
			MaxAttempts:    3,
			AttemptTimeout: 30 * time.Millisecond,
			BaseBackoff:    time.Millisecond,
			Seed:           3,
		},
		Clock: fc,
	})
	e := stats.New([]string{"echo"})
	r.SetStats(e)

	_, err := r.Call(0, []byte("req"), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if snap := e.Snapshot(); snap.Ops[0].Retries != 2 {
		t.Fatalf("retries = %d, want 2 (3 attempts)", snap.Ops[0].Retries)
	}
}

// TestRobustOverallDeadlineFakeClock verifies that the backoff sleeps
// themselves consume the call's fake deadline: when it expires
// mid-backoff the loop stops early instead of using up MaxAttempts.
func TestRobustOverallDeadlineFakeClock(t *testing.T) {
	p := clockPres(t)
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	conn := &failNConn{
		n:  1000, // never succeeds
		ok: func(int, []byte, []byte) ([]byte, error) { return nil, errors.New("unreachable") },
	}
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID:   3,
		AtMostOnce: true,
		Policy: RetryPolicy{
			MaxAttempts: 100,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
			Seed:        9,
		},
		Clock: fc,
	})
	ctx, cancel := fc.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err := r.CallContext(ctx, 0, []byte("req"), nil)
	if err == nil {
		t.Fatal("call under an expired deadline succeeded")
	}
	// Sleeps are at least BaseBackoff/2 = 5ms each, so a 60ms budget
	// admits at most a dozen attempts of the configured hundred.
	if n := len(fc.Sleeps()); n >= 12 {
		t.Fatalf("%d sleeps recorded; deadline did not stop the loop", n)
	}
	if conn.calls >= 100 {
		t.Fatalf("conn saw %d calls; deadline did not stop the loop", conn.calls)
	}
}

// TestRobustJitterFollowsSeed draws a run of backoff sleeps from conns
// seeded alike and apart: the same seed draws the same jitter, another
// seed other jitter, and every draw stays in [d/2, d].
func TestRobustJitterFollowsSeed(t *testing.T) {
	p := clockPres(t)
	const d = 100 * time.Millisecond
	draw := func(seed int64) []time.Duration {
		fc := NewFakeClock()
		fc.AutoAdvance(true)
		r := NewRobustConn(&fixedConn{}, p, RobustOptions{Policy: RetryPolicy{Seed: seed}, Clock: fc})
		for i := 0; i < 16; i++ {
			if err := r.sleep(context.Background(), d); err != nil {
				t.Fatal(err)
			}
		}
		sleeps := fc.Sleeps()
		for i, s := range sleeps {
			if s < d/2 || s > d {
				t.Fatalf("seed %d: sleep %d = %v outside [%v, %v]", seed, i, s, d/2, d)
			}
		}
		return sleeps
	}
	a, again, b := draw(7), draw(7), draw(8)
	if len(a) != 16 {
		t.Fatalf("drew %d sleeps, want 16", len(a))
	}
	same, differ := true, false
	for i := range a {
		same = same && a[i] == again[i]
		differ = differ || a[i] != b[i]
	}
	if !same {
		t.Fatalf("seed 7 drew %v, then %v", a, again)
	}
	if !differ {
		t.Fatalf("seeds 7 and 8 drew the same jitter %v", a)
	}
}
