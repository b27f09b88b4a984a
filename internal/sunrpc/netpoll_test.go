package sunrpc

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"flexrpc/internal/netpoll"
	rt "flexrpc/internal/runtime"
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
			func(enc *xdr.Encoder) { enc.PutInt32(int32(i)); enc.PutInt32(2) },
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
// netpoll server transparently uses the goroutine reader — identical
// semantics, portable everywhere.
func TestNetpollFallbackPipe(t *testing.T) {
	s := newTestServer()
	s.SetNetpoll(true)
	s.SetConcurrency(2)
	cc, sc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- s.ServeConn(sc) }()

	c := NewClient(cc, testProg, testVers)
	var sum int32
	err := c.Call(procAdd,
		func(enc *xdr.Encoder) { enc.PutInt32(40); enc.PutInt32(2) },
		func(d *xdr.Decoder) error {
			v, err := d.Int32()
			sum = v
			return err
		})
	if err != nil || sum != 42 {
		t.Fatalf("fallback call: sum=%d err=%v", sum, err)
	}
	cc.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after peer close")
	}
}

// TestNetpollTailRepliesAfterHalfClose mirrors the shared-pool
// regression in netpoll mode: the EPOLLRDHUP/EOF edge arrives while
// pipelined replies are still owed, and every one of them must still
// be flushed before the connection tears down.
func TestNetpollTailRepliesAfterHalfClose(t *testing.T) {
	if !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	const calls = 64
	s := newTestServer()
	s.SetNetpoll(true)
	s.SetConcurrency(4)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))

	var enc xdr.Encoder
	var out []byte
	for i := 0; i < calls; i++ {
		enc.Reset()
		encodeCall(&enc, CallHeader{XID: uint32(i + 1), Prog: testProg, Vers: testVers, Proc: 0})
		out = appendRecord(out, enc.Bytes())
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}

	var rec []byte
	for i := 0; i < calls; i++ {
		rec, err = readRecord(conn, rec)
		if err != nil {
			t.Fatalf("reply %d of %d: %v (tail replies dropped after half-close)", i, calls, err)
		}
		rec = rec[:cap(rec)]
	}
}

// TestNetpollRecordSplitAcrossReadinessEvents: one request arriving in
// three separate readiness events — mid-header, then mid-body, then
// the tail — reassembles into exactly one dispatch, and the partial
// reads are counted.
func TestNetpollRecordSplitAcrossReadinessEvents(t *testing.T) {
	if !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	s := newTestServer()
	s.SetNetpoll(true)
	s.SetConcurrency(2)
	e := stats.New(nil)
	s.SetStats(e)

	cc, sc := socketpairConns(t)
	done := make(chan error, 1)
	go func() { done <- s.ServeConn(sc) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		cc.Close()
	})

	var enc xdr.Encoder
	enc.Reset()
	encodeCall(&enc, CallHeader{XID: 7, Prog: testProg, Vers: testVers, Proc: procAdd})
	enc.PutInt32(40)
	enc.PutInt32(2)
	msg := appendRecord(nil, enc.Bytes())

	// Three chunks: 2 bytes (half the record-marking header), then up
	// to the middle of the body, then the rest. The waits between
	// writes let the poller drain to EAGAIN, so each chunk is its own
	// readiness event and the first two park a partial record.
	cuts := []int{2, len(msg) / 2, len(msg)}
	prev := 0
	for i, cut := range cuts {
		if _, err := cc.Write(msg[prev:cut]); err != nil {
			t.Fatal(err)
		}
		prev = cut
		if i < len(cuts)-1 {
			waitSnapshot(t, e, "partial read", func(s *stats.Snapshot) bool {
				return s.PartialReads >= uint64(i+1)
			})
		}
	}

	cc.SetReadDeadline(time.Now().Add(10 * time.Second))
	rec, err := readRecord(cc, nil)
	if err != nil {
		t.Fatalf("reply: %v", err)
	}
	d := xdr.NewDecoder(rec)
	if _, err := decodeReply(d); err != nil {
		t.Fatalf("reply header: %v", err)
	}
	sum, err := d.Int32()
	if err != nil || sum != 42 {
		t.Fatalf("sum=%d err=%v", sum, err)
	}
	snap := e.Snapshot()
	if snap.Queued != 1 {
		t.Fatalf("Queued = %d, want exactly 1 dispatch for the split record", snap.Queued)
	}
	if snap.PartialReads < 2 {
		t.Fatalf("PartialReads = %d, want >= 2", snap.PartialReads)
	}
}

// TestNetpollSlowReaderBoundedBuffering pins the same reply-buffer
// bound as the goroutine path: a non-reading client pipelining big
// replies parks the connection's read state machine at the pending
// cap (rPaused) instead of buffering everything; draining the client
// resumes it and every owed reply arrives.
func TestNetpollSlowReaderBoundedBuffering(t *testing.T) {
	if !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	const calls = 100
	s := newTestServer()
	blob := make([]byte, 64<<10)
	s.Register(procBig, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		reply.PutOpaque(blob)
		return nil
	})
	e := stats.New(nil)
	s.SetStats(e)
	s.SetNetpoll(true)
	s.SetConcurrency(4)

	cc, sc := socketpairConns(t)
	// Small kernel buffers so the flusher blocks early and the
	// pending cap — not the socket — is what bounds the backlog.
	if uc, ok := sc.(*net.UnixConn); ok {
		uc.SetWriteBuffer(16 << 10)
	}
	if uc, ok := cc.(*net.UnixConn); ok {
		uc.SetReadBuffer(16 << 10)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeConn(sc) }()

	var enc xdr.Encoder
	var out []byte
	for i := 0; i < calls; i++ {
		enc.Reset()
		encodeCall(&enc, CallHeader{XID: uint32(i + 1), Prog: testProg, Vers: testVers, Proc: procBig})
		out = appendRecord(out, enc.Bytes())
	}
	// The whole pipelined burst is tiny (~4 KiB); it lands in the
	// socket buffer without the client needing a feeder goroutine.
	if _, err := cc.Write(out); err != nil {
		t.Fatal(err)
	}

	// With the client not reading, the queued count must go quiet well
	// short of the full burst: the paused reader is the bound.
	deadline := time.Now().Add(10 * time.Second)
	var queued, prev uint64
	stable := 0
	for stable < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("queued count never settled (last %d)", queued)
		}
		time.Sleep(50 * time.Millisecond)
		queued = e.Snapshot().Queued
		if queued == prev {
			stable++
		} else {
			stable, prev = 0, queued
		}
	}
	if queued == 0 || queued >= calls/2 {
		t.Fatalf("server queued %d of %d pipelined requests against a non-reading client; want a small bounded backlog", queued, calls)
	}

	// Drain: every reply the client is owed must still arrive.
	cc.SetReadDeadline(time.Now().Add(30 * time.Second))
	var rec []byte
	var err error
	for i := 0; i < calls; i++ {
		rec, err = readRecord(cc, rec)
		if err != nil {
			t.Fatalf("reply %d of %d after draining: %v", i, calls, err)
		}
		rec = rec[:cap(rec)]
	}
	cc.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn did not return after the client closed")
	}
}

// TestNetpollServerZeroAllocNullRPC is the netpoll-mode scaling gate:
// the poller read path — readiness callback, incremental reassembly,
// pool dispatch, combining flusher — settles to zero allocations per
// null RPC, matching the goroutine path's gate.
func TestNetpollServerZeroAllocNullRPC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	if !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	s := newTestServer()
	s.Register(0, func(args *xdr.Decoder, reply *xdr.Encoder) error { return nil })
	s.SetNetpoll(true)
	s.SetConcurrency(4)
	cc, sc := socketpairConns(t)
	go func() { _ = s.ServeConn(sc) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		cc.Close()
	})

	caller := &rawNullCaller{conn: cc}
	for i := 0; i < 100; i++ {
		caller.call(t) // warm the pools and grow steady-state buffers
	}
	allocs := testing.AllocsPerRun(200, func() { caller.call(t) })
	if allocs != 0 {
		t.Fatalf("netpoll server path allocates %.1f times per null RPC, want 0", allocs)
	}
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
		func(enc *xdr.Encoder) { enc.PutInt32(40); enc.PutInt32(2) },
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

// TestNetpollDrainNoLeaks: drain with live netpoll conns (some
// mid-call) releases every goroutine the server created.
func TestNetpollDrainNoLeaks(t *testing.T) {
	if !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	before := runtime.NumGoroutine()
	s := newTestServer()
	s.SetNetpoll(true)
	s.SetConcurrency(4)
	sock := filepath.Join(t.TempDir(), "np.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(conn, testProg, testVers)
			_ = c.Call(0, nil, func(*xdr.Decoder) error { return nil })
		}()
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	waitGoroutines(t, before, "after drain")
}

// TestNetpollDrainCyclesNoLeaks: Drain waits for every poller loop to
// exit, so a server that is brought up, called and drained over and
// over leaves neither a goroutine nor a descriptor (listener, accepted
// conn, epoll set) behind — descriptors are counted the moment the
// last Drain returns.
func TestNetpollDrainCyclesNoLeaks(t *testing.T) {
	if !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	sock := filepath.Join(t.TempDir(), "np.sock")
	goroutines, fds := runtime.NumGoroutine(), openFDs()

	for i := 0; i < 50; i++ {
		s := newTestServer()
		s.SetNetpoll(true)
		s.SetConcurrency(2)
		l, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve(l) }()
		conn, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, testProg, testVers)
		if err := c.Call(0, nil, func(*xdr.Decoder) error { return nil }); err != nil {
			t.Fatalf("cycle %d: call: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("cycle %d: Drain: %v", i, err)
		}
		if err := <-served; err != nil {
			t.Fatalf("cycle %d: Serve: %v", i, err)
		}
		conn.Close()
	}

	if n := openFDs(); n != fds {
		t.Errorf("descriptors leaked: %d before, %d after 50 cycles", fds, n)
	}
	waitGoroutines(t, goroutines, "after 50 cycles")
}

// TestAcceptRateLimitFakeClock: the per-shard token bucket is
// Clock-driven, so under a FakeClock the pacing schedule is exact —
// burst-sized admits for free, then one sleep of 1/rate per accept.
func TestAcceptRateLimitFakeClock(t *testing.T) {
	const conns = 6
	ck := rt.NewFakeClock()
	ck.AutoAdvance(true)
	s := newTestServer()
	s.SetClock(ck)
	s.SetAcceptRate(1000, 2) // 1ms a token, burst of 2
	e := stats.New(nil)
	s.SetStats(e)

	l := newMemListener()
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	for i := 0; i < conns; i++ {
		cc, err := l.dial()
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		c := NewClient(cc, testProg, testVers)
		if err := c.Call(0, nil, func(*xdr.Decoder) error { return nil }); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		cc.Close()
	}

	// First accept spends a burst token, the dial-time second token
	// re-accrues while calls run; every later accept waits exactly
	// once. The deterministic part: throttles happened, each sleep is
	// at most one token interval, and no accept slept twice.
	sleeps := ck.Sleeps()
	throttled := e.Snapshot().AcceptThrottled
	if throttled == 0 {
		t.Fatal("AcceptThrottled = 0; the bucket never paced a burst of accepts")
	}
	if uint64(len(sleeps)) != throttled {
		t.Fatalf("%d sleeps for %d throttled accepts; want exactly one sleep each", len(sleeps), throttled)
	}
	for i, d := range sleeps {
		if d <= 0 || d > time.Millisecond+time.Microsecond {
			t.Fatalf("sleep %d = %v; want (0, 1ms]", i, d)
		}
	}

	l.Close()
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
