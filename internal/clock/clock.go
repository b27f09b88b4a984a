// Package clock is the one time abstraction the session layer's retry
// machinery (internal/runtime) and the Sun RPC server's accept limiter
// (internal/sunrpc) share: a leaf package, so neither imports the other.
package clock

import (
	"context"
	"sync"
	"time"
)

// A Clock abstracts the time operations the retry machinery needs —
// sleeping between attempts and carving per-attempt deadlines — so
// tests can drive backoff schedules and timeouts synchronously
// instead of sleeping wall-clock time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep waits d, or less if ctx is done first, returning ctx's
	// error in that case.
	Sleep(ctx context.Context, d time.Duration) error
	// WithTimeout derives a context that is done d from now. The
	// returned cancel must be called to release resources, exactly
	// like context.WithTimeout.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// WallClock is the real time.Now/time.NewTimer clock every
// production path uses.
var WallClock Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (wallClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// A FakeClock is a manually advanced Clock for tests. Time moves
// only through Advance (or automatically through Sleep when
// AutoAdvance is on), so a retry schedule that would take seconds of
// wall time runs in microseconds and cannot flake under load.
//
// Contexts from WithTimeout fire when the fake time passes their
// deadline. They propagate a fake parent's earlier deadline (the
// effective deadline is the minimum) but do not watch a foreign
// parent's Done channel; tests drive cancellation through the clock.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	auto    bool
	sleeps  []time.Duration
	waiters []*fakeWaiter
	ctxs    []*fakeTimeoutCtx
}

type fakeWaiter struct {
	at time.Time
	ch chan struct{}
}

// NewFakeClock returns a fake clock at an arbitrary fixed epoch.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// AutoAdvance makes Sleep advance the clock by the requested
// duration and return immediately — the mode for testing backoff
// schedules, where nothing else needs to run "during" the sleep.
func (f *FakeClock) AutoAdvance(on bool) {
	f.mu.Lock()
	f.auto = on
	f.mu.Unlock()
}

// Now implements Clock.
func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleeps returns every duration passed to Sleep, in order — the
// jittered backoff schedule, as the retry loop computed it.
func (f *FakeClock) Sleeps() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.sleeps...)
}

// Advance moves the clock forward, waking sleeps and expiring
// timeout contexts whose time has come.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.advanceLocked(d)
	f.mu.Unlock()
}

func (f *FakeClock) advanceLocked(d time.Duration) {
	if d > 0 {
		f.now = f.now.Add(d)
	}
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.at.After(f.now) {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	f.waiters = kept
	keptCtx := f.ctxs[:0]
	for _, c := range f.ctxs {
		if !c.deadline.After(f.now) {
			c.fire(context.DeadlineExceeded)
		} else {
			keptCtx = append(keptCtx, c)
		}
	}
	f.ctxs = keptCtx
}

// Sleep implements Clock. In auto-advance mode it records d,
// advances the clock and returns; otherwise it blocks until an
// Advance covers d or ctx is done.
func (f *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	f.sleeps = append(f.sleeps, d)
	if f.auto {
		f.advanceLocked(d)
		f.mu.Unlock()
		return ctx.Err()
	}
	w := &fakeWaiter{at: f.now.Add(d), ch: make(chan struct{})}
	f.waiters = append(f.waiters, w)
	f.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WithTimeout implements Clock. The context's Err is
// context.DeadlineExceeded once the fake time passes the deadline —
// the distinction Retryable depends on (a Canceled context means the
// caller gave up; an exceeded deadline is retryable).
func (f *FakeClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	f.mu.Lock()
	deadline := f.now.Add(d)
	if p, ok := ctx.Deadline(); ok && p.Before(deadline) {
		deadline = p
	}
	c := &fakeTimeoutCtx{Context: ctx, deadline: deadline, done: make(chan struct{})}
	if !deadline.After(f.now) {
		c.fire(context.DeadlineExceeded)
	} else {
		f.ctxs = append(f.ctxs, c)
	}
	f.mu.Unlock()
	return c, func() { c.fire(context.Canceled) }
}

type fakeTimeoutCtx struct {
	context.Context
	deadline time.Time
	done     chan struct{}

	mu  sync.Mutex
	err error
}

func (c *fakeTimeoutCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *fakeTimeoutCtx) Done() <-chan struct{} { return c.done }

func (c *fakeTimeoutCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return c.Context.Err()
}

// fire resolves the context once; later calls are no-ops.
func (c *fakeTimeoutCtx) fire(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	c.mu.Unlock()
}
