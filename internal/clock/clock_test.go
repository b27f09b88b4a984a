package clock

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestFakeClockSleepAutoAdvance(t *testing.T) {
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	start := fc.Now()
	if err := fc.Sleep(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := fc.Sleep(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := fc.Now().Sub(start); got != time.Minute+5*time.Second {
		t.Fatalf("clock advanced %v", got)
	}
	sleeps := fc.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != 5*time.Second || sleeps[1] != time.Minute {
		t.Fatalf("sleeps = %v", sleeps)
	}
}

func TestFakeClockAdvanceWakesSleepers(t *testing.T) {
	fc := NewFakeClock()
	woke := make(chan error, 1)
	go func() { woke <- fc.Sleep(context.Background(), 10*time.Second) }()
	// Wait on the clock's own sleeper state: Sleep records the duration
	// and registers the waiter under one lock, so once Sleeps shows the
	// entry the next Advance is guaranteed to see the waiter. Yielding,
	// not sleeping: there is no wall-clock interval to get wrong.
	for len(fc.Sleeps()) == 0 {
		runtime.Gosched()
	}
	fc.Advance(9 * time.Second)
	// A negative check has nothing to wait on: give a wrongly woken
	// sleeper a millisecond to show itself. An early wake is a bug this
	// catches with high probability; the wait cannot fail a correct clock.
	select {
	case <-woke:
		t.Fatal("sleeper woke before its time")
	case <-time.After(time.Millisecond):
	}
	fc.Advance(time.Second)
	if err := <-woke; err != nil {
		t.Fatalf("sleep returned %v", err)
	}
}

func TestFakeClockWithTimeout(t *testing.T) {
	fc := NewFakeClock()
	ctx, cancel := fc.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ctx.Err(); err != nil {
		t.Fatalf("fresh ctx already done: %v", err)
	}
	fc.Advance(10 * time.Second)
	<-ctx.Done()
	// DeadlineExceeded, not Canceled: the retry loop depends on the
	// distinction (a canceled caller must not be retried; an expired
	// attempt must be — internal/runtime's
	// TestRobustAttemptTimeoutFakeClock holds it to that).
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fired ctx err = %v, want DeadlineExceeded", err)
	}

	// Cancel before expiry reads as Canceled.
	ctx2, cancel2 := fc.WithTimeout(context.Background(), time.Hour)
	cancel2()
	if err := ctx2.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx err = %v", err)
	}

	// A child takes the minimum of its own and a fake parent's
	// deadline, so advancing past the parent deadline fires the child
	// even when the child asked for longer.
	parent, pcancel := fc.WithTimeout(context.Background(), time.Second)
	defer pcancel()
	child, ccancel := fc.WithTimeout(parent, time.Hour)
	defer ccancel()
	if d, ok := child.Deadline(); !ok || d != fc.Now().Add(time.Second) {
		t.Fatalf("child deadline = %v, %v", d, ok)
	}
	fc.Advance(time.Second)
	<-child.Done()
	if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("child err = %v", err)
	}
}
