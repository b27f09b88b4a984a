package sunrpc

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"flexrpc/internal/netpoll"
	"flexrpc/internal/stats"
	"flexrpc/internal/xdr"
)

// socketpairConns builds a connected pair of real-descriptor conns —
// the netpoll tests need fds, which net.Pipe cannot provide.
func socketpairConns(t testing.TB) (client, server net.Conn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	toConn := func(fd int, name string) net.Conn {
		f := os.NewFile(uintptr(fd), name)
		defer f.Close() // net.FileConn duplicated the descriptor
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatalf("FileConn: %v", err)
		}
		return c
	}
	return toConn(fds[0], "sp-client"), toConn(fds[1], "sp-server")
}

// waitGoroutines waits for the goroutine count to come back down to
// baseline: a goroutine whose exit something has already waited for
// (a closed Done channel, a WaitGroup) can still be a few instructions
// from returning.
func waitGoroutines(t *testing.T, baseline int, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d %s", baseline, runtime.NumGoroutine(), when)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitSnapshot(t *testing.T, e *stats.Endpoint, what string, cond func(*stats.Snapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(e.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNetpollBasicRPC: calls flow end to end through the poller path,
// and the poller counters move.
func TestNetpollBasicRPC(t *testing.T) {
	if !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	s := newTestServer()
	s.SetNetpoll(true)
	s.SetConcurrency(4)
	e := stats.New(nil)
	s.SetStats(e)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn, testProg, testVers)
	for i := 0; i < 10; i++ {
		var sum int32
		err := c.Call(procAdd,
			func(enc *xdr.Encoder) { enc.PutUint32(uint32(i)); enc.PutUint32(2) },
			func(d *xdr.Decoder) error {
				v, err := d.Int32()
				sum = v
				return err
			})
		if err != nil || sum != int32(i)+2 {
			t.Fatalf("call %d: sum=%d err=%v", i, sum, err)
		}
	}

	snap := e.Snapshot()
	if snap.PollerConnsRegistered != 1 {
		t.Fatalf("PollerConnsRegistered = %d, want 1", snap.PollerConnsRegistered)
	}
	if snap.PollerWakeups == 0 {
		t.Fatal("PollerWakeups = 0 after 10 RPCs; calls did not flow through the poller")
	}
	if snap.Queued != 10 {
		t.Fatalf("Queued = %d, want 10", snap.Queued)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestNetpollFallbackPipe: a conn without a descriptor (net.Pipe) on a
// netpoll server takes the goroutine feed — nothing registers with a
// poller — with identical semantics, portable everywhere.
func TestNetpollFallbackPipe(t *testing.T) {
	s := newTestServer()
	e := stats.New(nil)
	s.SetStats(e)
	cc, _, done := serverMode{conc: 2, netpoll: true, pipe: true}.start(t, s)

	var sum int32
	err := NewClient(cc, testProg, testVers).Call(procAdd,
		func(enc *xdr.Encoder) { enc.PutUint32(40); enc.PutUint32(2) },
		func(d *xdr.Decoder) error {
			v, err := d.Int32()
			sum = v
			return err
		})
	if err != nil || sum != 42 {
		t.Fatalf("fallback call: sum=%d err=%v", sum, err)
	}
	if n := e.Snapshot().PollerConnsRegistered; n != 0 {
		t.Fatalf("PollerConnsRegistered = %d for a descriptor-less conn, want 0", n)
	}
	cc.Close()
	waitServed(t, done)
}

// TestNetpollIdleConnScale is the tentpole's claim as a test: N idle
// connections cost zero goroutines beyond the fixed runtime (pollers +
// workers + accept shard), and the server stays live throughout.
// NETPOLL_SMOKE_CONNS overrides the connection count (ci.sh raises it
// to 100000 after lifting RLIMIT_NOFILE).
func TestNetpollIdleConnScale(t *testing.T) {
	if !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	conns := 1000
	if v := os.Getenv("NETPOLL_SMOKE_CONNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad NETPOLL_SMOKE_CONNS %q", v)
		}
		conns = n
	}
	// Each connection costs two descriptors (client + server half live
	// in this process). Raise the limit when the smoke needs it.
	need := uint64(2*conns + 512)
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && lim.Cur < need {
		lim.Cur = need
		if lim.Max < need {
			lim.Max = need
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Skipf("cannot raise RLIMIT_NOFILE to %d for %d conns: %v", need, conns, err)
		}
	}

	s := newTestServer()
	s.SetNetpoll(true)
	s.SetConcurrency(4)
	e := stats.New(nil)
	s.SetStats(e)
	sock := filepath.Join(t.TempDir(), "np.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	// Warm: the first connection creates pollers and the worker pool.
	warm, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	c := NewClient(warm, testProg, testVers)
	if err := c.Call(0, nil, func(*xdr.Decoder) error { return nil }); err != nil {
		t.Fatalf("warm call: %v", err)
	}
	base := runtime.NumGoroutine()

	held := make([]net.Conn, 0, conns)
	defer func() {
		for _, hc := range held {
			hc.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		hc, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		held = append(held, hc)
	}
	waitSnapshot(t, e, "registrations", func(s *stats.Snapshot) bool {
		return s.PollerConnsRegistered >= uint64(conns+1)
	})

	grow := runtime.NumGoroutine() - base
	if grow > 8 {
		t.Fatalf("%d idle conns grew the goroutine count by %d; netpoll mode must stay O(pollers+workers+shards)", conns, grow)
	}
	t.Logf("%d idle conns: +%d goroutines (base %d)", conns, grow, base)

	// Still live with the idle herd attached.
	var sum int32
	err = c.Call(procAdd,
		func(enc *xdr.Encoder) { enc.PutUint32(40); enc.PutUint32(2) },
		func(d *xdr.Decoder) error {
			v, err := d.Int32()
			sum = v
			return err
		})
	if err != nil || sum != 42 {
		t.Fatalf("call with %d idle conns: sum=%d err=%v", conns, sum, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain with %d conns: %v", conns, err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestClassifyAcceptError is the errno table the accept loop acts on.
func TestClassifyAcceptError(t *testing.T) {
	wrap := func(errno syscall.Errno) error {
		return &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", errno)}
	}
	cases := []struct {
		name string
		err  error
		want acceptAction
	}{
		{"ECONNABORTED", wrap(syscall.ECONNABORTED), acceptRetry},
		{"EINTR", wrap(syscall.EINTR), acceptRetry},
		{"ECONNRESET", wrap(syscall.ECONNRESET), acceptRetry},
		{"EMFILE", wrap(syscall.EMFILE), acceptBackoff},
		{"ENFILE", wrap(syscall.ENFILE), acceptBackoff},
		{"ENOBUFS", wrap(syscall.ENOBUFS), acceptBackoff},
		{"ENOMEM", wrap(syscall.ENOMEM), acceptBackoff},
		{"bare EMFILE", syscall.EMFILE, acceptBackoff},
		{"EINVAL", wrap(syscall.EINVAL), acceptFatal},
		{"no errno", os.ErrDeadlineExceeded, acceptFatal},
		{"temporary without errno", net.ErrWriteToConnected, acceptFatal},
	}
	for _, tc := range cases {
		if got := classifyAcceptError(tc.err); got != tc.want {
			t.Errorf("%s: classify = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestServeAcceptRetryNoBackoff: backlog-aborted connections retry
// immediately — no sleep, no shard exit.
func TestServeAcceptRetryNoBackoff(t *testing.T) {
	l := &flakyListener{memListener: newMemListener(), tempLeft: 3}
	l.errFn = func() error {
		return &net.OpError{Op: "accept", Err: os.NewSyscallError("accept4", syscall.ECONNABORTED)}
	}
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
	if err := c.Call(0, nil, func(*xdr.Decoder) error { return nil }); err != nil {
		t.Fatalf("call after aborted accepts: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("immediate-retry class took %v; loop backed off on ECONNABORTED", elapsed)
	}

	l.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve after listener close: %v", err)
	}
}
