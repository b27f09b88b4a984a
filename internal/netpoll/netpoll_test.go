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

// await waits for the signal a callback sends on ch.
func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// edges returns a callback that drains fd as the edge-triggered
// contract asks — to EAGAIN, or to EOF once the peer has closed — and
// then signals each edge, and whether it was a hangup, on the channel
// it returns. The signal follows the drain: a test writes again as soon
// as it sees one, and a byte that lands while the callback is still
// reading is consumed there without a new edge.
func edges(fd int) (Callback, <-chan bool) {
	ch := make(chan bool, 16) // more than any test's edges: the loop never blocks on it
	return func(hup bool) {
		buf := make([]byte, 64)
		for {
			if n, err := syscall.Read(fd, buf); n == 0 || err != nil {
				break
			}
		}
		ch <- hup
	}, ch
}

// awaitEdge waits for the next edge on ch and returns whether it was a
// hangup.
func awaitEdge(t *testing.T, what string, ch <-chan bool) bool {
	t.Helper()
	select {
	case hup := <-ch:
		return hup
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	return false
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

	cb, fired := edges(a)
	if err := p.Register(a, cb); err != nil {
		t.Fatalf("Register: %v", err)
	}

	if _, err := syscall.Write(b, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	awaitEdge(t, "first edge", fired)

	// A second write after a full drain is a new edge.
	if _, err := syscall.Write(b, []byte("y")); err != nil {
		t.Fatalf("write: %v", err)
	}
	awaitEdge(t, "second edge", fired)

	// Peer close delivers a hangup edge.
	syscall.Close(b)
	for !awaitEdge(t, "hangup edge", fired) {
	}

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
	// A sentinel stays registered. Its edge comes after the write to a:
	// the loop takes ready descriptors in the order they became ready and
	// runs a batch's callbacks in order, so once the sentinel's callback
	// has run, an edge on a would already have run a's.
	s, ps := socketpair(t)
	defer syscall.Close(s)
	defer syscall.Close(ps)
	scb, sentinel := edges(s)
	if err := p.Register(s, scb); err != nil {
		t.Fatalf("Register sentinel: %v", err)
	}
	if err := p.Deregister(a); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := syscall.Write(b, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := syscall.Write(ps, []byte("s")); err != nil {
		t.Fatalf("write sentinel: %v", err)
	}
	awaitEdge(t, "the sentinel's edge", sentinel)
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
	bcb, bFired := edges(b)
	if err := p.Register(b, bcb); err != nil {
		t.Fatalf("Register b: %v", err)
	}

	if _, err := syscall.Write(pa, []byte("x")); err != nil {
		t.Fatalf("write a: %v", err)
	}
	<-entered
	if _, err := syscall.Write(pb, []byte("y")); err != nil {
		t.Fatalf("write b: %v", err)
	}
	if len(bFired) > 0 {
		t.Fatal("b's callback ran while a's was still blocking the loop")
	}
	close(release)
	awaitEdge(t, "b's edge after a's callback returned", bFired)
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
	cb, fired := edges(a)
	if err := p.Register(a, cb); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := syscall.Write(b, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	awaitEdge(t, "first edge", fired)

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
	// Nothing signals a goroutine's exit after its last send, so the
	// count is polled.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the poller", runtime.NumGoroutine(), before)
		}
	}
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

	var fired sync.WaitGroup
	fired.Add(pollers)
	for i := 0; i < pollers; i++ {
		p, err := New(nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer p.Close()
		a, b := socketpair(t)
		defer syscall.Close(a)
		defer syscall.Close(b)
		var once sync.Once // the deferred closes deliver a hangup edge too
		if err := p.Register(a, func(bool) { once.Do(fired.Done) }); err != nil {
			t.Fatalf("Register: %v", err)
		}
		if _, err := syscall.Write(b, []byte("x")); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	all := make(chan struct{})
	go func() { fired.Wait(); close(all) }()
	await(t, "one edge per poller", all)
	// Every loop has delivered an edge, so every loop is waiting again,
	// or about to. A thread pinned by a blocking wait only shows once its
	// loop is back in the wait, and no event marks that, so the pause
	// lets the last ones get there; a pause too short can only hide
	// pinned threads, never fail the test on parked loops.
	time.Sleep(20 * time.Millisecond)

	// A blocking wait needs a thread per poller, less the few idle ones
	// the process already had (14-15 new ones measured); parked loops
	// need none.
	if grew := threads.Count() - before; grew >= pollers/2 {
		t.Fatalf("%d idle pollers created %d OS threads; they must park in the scheduler", pollers, grew)
	}
}
