package netpoll

import (
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func socketpair(t *testing.T) (int, int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	for _, fd := range fds {
		if err := syscall.SetNonblock(fd, true); err != nil {
			t.Fatalf("set nonblock: %v", err)
		}
	}
	return fds[0], fds[1]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPollerReadableEdges(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	var wakeups atomic.Int64
	p, err := New(func(n int) { wakeups.Add(int64(n)) })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	a, b := socketpair(t)
	defer syscall.Close(a)
	defer syscall.Close(b)

	var fired atomic.Int64
	var sawHup atomic.Bool
	if err := p.Register(a, func(hup bool) {
		// Edge-triggered contract: drain to EAGAIN, or to EOF (0, nil)
		// once the peer has closed.
		buf := make([]byte, 64)
		for {
			if n, err := syscall.Read(a, buf); n == 0 || err != nil {
				break
			}
		}
		// Count the edge only after the drain: the test writes again
		// as soon as it sees the count, and a byte that lands while
		// this callback is still reading is consumed here without a
		// new edge.
		if hup {
			sawHup.Store(true)
		}
		fired.Add(1)
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}

	if _, err := syscall.Write(b, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, "first edge", func() bool { return fired.Load() >= 1 })

	// A second write after a full drain is a new edge.
	if _, err := syscall.Write(b, []byte("y")); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, "second edge", func() bool { return fired.Load() >= 2 })

	// Peer close delivers a hangup edge.
	syscall.Close(b)
	waitFor(t, "hangup edge", func() bool { return sawHup.Load() })

	if wakeups.Load() < 2 {
		t.Fatalf("onWake reported %d events, want >= 2", wakeups.Load())
	}
}

func TestPollerDeregisterDropsEvents(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	p, err := New(nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	a, b := socketpair(t)
	defer syscall.Close(a)
	defer syscall.Close(b)

	var fired atomic.Int64
	if err := p.Register(a, func(bool) { fired.Add(1) }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := p.Deregister(a); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := syscall.Write(b, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("deregistered fd fired %d times", n)
	}
}

// TestPollerEdgeDuringCallback: the loop is not waiting while a
// callback runs, so an edge on another descriptor in that window is
// seen only by the next non-blocking poll — which must run before the
// loop parks again.
func TestPollerEdgeDuringCallback(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	p, err := New(nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	a, pa := socketpair(t)
	b, pb := socketpair(t)
	for _, fd := range []int{a, pa, b, pb} {
		defer syscall.Close(fd)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once // the deferred closes deliver a's hangup edge too
	if err := p.Register(a, func(bool) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}); err != nil {
		t.Fatalf("Register a: %v", err)
	}
	var bFired atomic.Bool
	if err := p.Register(b, func(bool) { bFired.Store(true) }); err != nil {
		t.Fatalf("Register b: %v", err)
	}

	if _, err := syscall.Write(pa, []byte("x")); err != nil {
		t.Fatalf("write a: %v", err)
	}
	<-entered
	if _, err := syscall.Write(pb, []byte("y")); err != nil {
		t.Fatalf("write b: %v", err)
	}
	if bFired.Load() {
		t.Fatal("b's callback ran while a's was still blocking the loop")
	}
	close(release)
	waitFor(t, "b's edge after a's callback returned", bFired.Load)
}

// TestPollerCloseReleasesLoop: Close from another goroutine evicts a
// loop parked in the runtime poller, and later calls find the poller
// closed instead of an epoll descriptor number that may have been
// reused.
func TestPollerCloseReleasesLoop(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	before := runtime.NumGoroutine()
	p, err := New(nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// One delivered edge proves the loop has run; it parks right after.
	a, b := socketpair(t)
	defer syscall.Close(a)
	defer syscall.Close(b)
	var fired atomic.Bool
	if err := p.Register(a, func(bool) { fired.Store(true) }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := syscall.Write(b, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, "first edge", fired.Load)

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case <-p.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("poller loop did not exit after Close")
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Register(b, func(bool) {}); err != ErrClosed {
		t.Fatalf("Register after Close = %v, want ErrClosed", err)
	}
	if err := p.Deregister(a); err != ErrClosed {
		t.Fatalf("Deregister after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	waitFor(t, "goroutine count to settle", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestIdlePollersCostNoThreads: a poller waits as a parked goroutine,
// not in a blocking epoll_wait that pins an OS thread each.
func TestIdlePollersCostNoThreads(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	const pollers = 16
	threads := pprof.Lookup("threadcreate")
	before := threads.Count()

	var fired atomic.Int64
	for i := 0; i < pollers; i++ {
		p, err := New(nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer p.Close()
		a, b := socketpair(t)
		defer syscall.Close(a)
		defer syscall.Close(b)
		if err := p.Register(a, func(bool) { fired.Add(1) }); err != nil {
			t.Fatalf("Register: %v", err)
		}
		if _, err := syscall.Write(b, []byte("x")); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	// Every loop has delivered an edge, so every loop is waiting again,
	// or about to: the pause lets the last ones get there, since a
	// thread pinned by a blocking wait only shows once its loop is back
	// in the wait.
	waitFor(t, "one edge per poller", func() bool { return fired.Load() == pollers })
	time.Sleep(20 * time.Millisecond)

	// A blocking wait needs a thread per poller, less the few idle ones
	// the process already had (14-15 new ones measured); parked loops
	// need none.
	if grew := threads.Count() - before; grew >= pollers/2 {
		t.Fatalf("%d idle pollers created %d OS threads; they must park in the scheduler", pollers, grew)
	}
}
