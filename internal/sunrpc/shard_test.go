package sunrpc

import (
	"context"
	"errors"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"flexrpc/internal/xdr"
)

// memAddr is the address of an in-memory listener.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memListener hands out net.Pipe connections: dial() delivers the
// server half to Accept. Close unparks both sides with net.ErrClosed.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

func (l *memListener) dial() (net.Conn, error) {
	cc, sc := net.Pipe()
	select {
	case l.conns <- sc:
		return cc, nil
	case <-l.done:
		cc.Close()
		sc.Close()
		return nil, net.ErrClosed
	}
}

// tempError mimics the transient accept error the kernel hands an
// fd-exhausted listener: like the real thing it wraps the underlying
// errno (EMFILE), which is what the accept loop classifies on.
type tempError struct{}

func (tempError) Error() string   { return "accept: resource temporarily unavailable" }
func (tempError) Timeout() bool   { return false }
func (tempError) Temporary() bool { return true }
func (tempError) Unwrap() error   { return syscall.EMFILE }

// flakyListener injects n transient errors before delivering
// connections, counting every Accept call so the test can prove the
// loop backed off instead of spinning.
type flakyListener struct {
	*memListener
	mu       sync.Mutex
	tempLeft int
	accepts  int
	errFn    func() error // injected error; nil means tempError{}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.accepts++
	if l.tempLeft > 0 {
		l.tempLeft--
		errFn := l.errFn
		l.mu.Unlock()
		if errFn != nil {
			return nil, errFn()
		}
		return nil, tempError{}
	}
	l.mu.Unlock()
	return l.memListener.Accept()
}

// TestServeAcceptTemporaryBackoff: transient Accept errors must not
// kill the accept loop (the old behavior) or spin it hot; the loop
// backs off, then accepts and serves the connection normally.
func TestServeAcceptTemporaryBackoff(t *testing.T) {
	l := &flakyListener{memListener: newMemListener(), tempLeft: 3}
	s := newTestServer()
	served := make(chan error, 1)
	start := time.Now()
	go func() { served <- s.Serve(l) }()

	cc, err := l.dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cc.Close()
	c := NewClient(cc, testProg, testVers)
	var sum int32
	err = c.Call(procAdd,
		func(e *xdr.Encoder) { e.PutUint32(40); e.PutUint32(2) },
		func(d *xdr.Decoder) error {
			v, err := d.Int32()
			sum = v
			return err
		})
	if err != nil || sum != 42 {
		t.Fatalf("call after transient accept errors: %v, %v", sum, err)
	}
	// Three injected EMFILEs each back off at the 100ms cap (half
	// fixed, half jittered — at least 50ms apiece), and Accept ran
	// exactly four times (three failures + the success) — no tight
	// spin.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("accept loop recovered in %v; backoff not applied", elapsed)
	}
	l.mu.Lock()
	accepts := l.accepts
	l.mu.Unlock()
	if accepts > 5 {
		t.Fatalf("accept called %d times for 3 transient errors; loop is spinning", accepts)
	}

	l.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve after listener close: %v", err)
	}
}

// TestServeAcceptPermanentError: non-temporary accept errors still
// stop the loop and surface to the caller.
func TestServeAcceptPermanentError(t *testing.T) {
	boom := errors.New("accept: permanently broken")
	l := &errListener{err: boom}
	if err := newTestServer().Serve(l); !errors.Is(err, boom) {
		t.Fatalf("Serve returned %v, want %v", err, boom)
	}
}

type errListener struct{ err error }

func (l *errListener) Accept() (net.Conn, error) { return nil, l.err }
func (l *errListener) Close() error              { return nil }
func (l *errListener) Addr() net.Addr            { return memAddr{} }

// TestDrainShardsExactlyOnceNoLeaks races Server.Drain against live
// traffic arriving over four accept shards: every call that got a
// successful reply executed its handler exactly once (execs can
// exceed successes only by the per-connection in-flight tail cut by
// the drain), and after the drain the process is back to its baseline
// goroutine count — no leaked readers, workers, or accept loops.
func TestDrainShardsExactlyOnceNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const shards = 4
	const clients = 24

	var execs atomic.Int64
	s := newTestServer()
	s.Register(procEcho, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		execs.Add(1)
		data, err := args.Opaque()
		if err != nil {
			return ErrGarbageArgs
		}
		reply.PutOpaque(data)
		return nil
	})
	s.SetConcurrency(4)

	ls := make([]*memListener, shards)
	lsIfc := make([]net.Listener, shards)
	for i := range ls {
		ls[i] = newMemListener()
		lsIfc[i] = ls[i]
	}
	served := make(chan error, 1)
	go func() { served <- s.ServeShards(lsIfc...) }()

	var (
		connMu    sync.Mutex
		openConns []net.Conn
		successes atomic.Int64
		wg        sync.WaitGroup
	)
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cc, err := ls[i%shards].dial()
				if err != nil {
					return // listener closed by Drain
				}
				connMu.Lock()
				openConns = append(openConns, cc)
				connMu.Unlock()
				c := NewClient(cc, testProg, testVers)
				for j := 0; j < 8; j++ {
					err := c.Call(procEcho,
						func(e *xdr.Encoder) { e.PutOpaque([]byte("ping")) },
						func(d *xdr.Decoder) error { _, err := d.Opaque(); return err })
					if err != nil {
						cc.Close()
						return // drained mid-stream
					}
					successes.Add(1)
				}
				cc.Close()
			}
		}(i)
	}

	// Let traffic establish, then drain while accepts are still racing.
	for successes.Load() < 32 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	close(stop)
	// Unpark any client still blocked on an accepted-but-cut or
	// never-accepted connection.
	connMu.Lock()
	for _, c := range openConns {
		c.Close()
	}
	connMu.Unlock()
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatalf("ServeShards after drain: %v", err)
	}

	ex, ok := execs.Load(), successes.Load()
	if ok == 0 {
		t.Fatal("no call succeeded before the drain")
	}
	// Exactly-once: a successful reply implies one execution, and the
	// only executions without a reply are the per-connection tails the
	// drain cut between dispatch and flush — at most one per client.
	if ex < ok || ex > ok+clients {
		t.Fatalf("execs=%d successes=%d: admitted calls must execute exactly once", ex, ok)
	}

	// No leaked goroutines: readers, shared-pool workers, and the
	// accept shards are all gone once Drain returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			var sb strings.Builder
			pprof.Lookup("goroutine").WriteTo(&sb, 1)
			t.Fatalf("goroutines leaked after Drain: baseline=%d now=%d\n%s",
				baseline, runtime.NumGoroutine(), sb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
