package sunrpc

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexrpc/internal/netpoll"
	"flexrpc/internal/stats"
	"flexrpc/internal/xdr"
)

// A serverMode is one row of the table every connection-core behaviour
// below runs over: the executor (inline or pool) crossed with the feed
// (goroutine or poller). The tests keep the names they had when each
// mode carried its own copy; the subtest names the mode.
type serverMode struct {
	name    string
	conc    int
	netpoll bool
	pipe    bool // net.Pipe (no descriptor) instead of a socketpair
}

var serverModes = []serverMode{
	{name: "serial", conc: 1},
	{name: "pool", conc: 4},
	{name: "netpoll", conc: 4, netpoll: true},
	{name: "fallback", conc: 4, netpoll: true, pipe: true}, // netpoll requested, no descriptor: goroutine feed
}

func forEachMode(t *testing.T, body func(t *testing.T, m serverMode)) {
	for _, m := range serverModes {
		t.Run(m.name, func(t *testing.T) {
			if m.netpoll && !m.pipe && !netpoll.Supported() {
				t.Skip("netpoll unsupported on this platform")
			}
			body(t, m)
		})
	}
}

func (m serverMode) conns(t testing.TB) (client, server net.Conn) {
	if m.pipe {
		return net.Pipe()
	}
	return socketpairConns(t)
}

// listen returns a listener handing out the mode's kind of connection,
// and its dialer.
func (m serverMode) listen(t testing.TB) (net.Listener, func() (net.Conn, error)) {
	if m.pipe {
		l := newMemListener()
		return l, l.dial
	}
	sock := filepath.Join(t.TempDir(), "mode.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	return l, func() (net.Conn, error) { return net.Dial("unix", sock) }
}

// start puts s in the mode and hands one connection to ServeConn; it
// returns both ends and ServeConn's result. Drain at cleanup retires
// the connection, the pool and the pollers.
func (m serverMode) start(t testing.TB, s *Server) (cc, sc net.Conn, done <-chan error) {
	s.SetConcurrency(m.conc)
	s.SetNetpoll(m.netpoll)
	cc, sc = m.conns(t)
	served := make(chan error, 1)
	go func() { served <- s.ServeConn(sc) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		cc.Close()
	})
	return cc, sc, served
}

// appendCalls builds n pipelined argument-less calls to proc, xids 1..n.
func appendCalls(n int, proc uint32) []byte {
	var enc xdr.Encoder
	var out []byte
	for i := 0; i < n; i++ {
		enc.Reset()
		encodeCall(&enc, CallHeader{XID: uint32(i + 1), Prog: testProg, Vers: testVers, Proc: proc})
		out = appendRecord(out, enc.Bytes())
	}
	return out
}

func waitServed(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn did not return")
	}
}

// TestConcurrentPanicRecovery: a panicking handler must surface to its
// own caller as SYSTEM_ERR, increment the handler-panic counter, and
// leave the connection (and, under a pool, its worker siblings)
// serving.
func TestConcurrentPanicRecovery(t *testing.T) {
	forEachMode(t, func(t *testing.T, m serverMode) {
		s := newTestServer()
		s.Register(procPanic, func(args *xdr.Decoder, reply *xdr.Encoder) error {
			panic("handler bug")
		})
		e := stats.New(nil)
		s.SetStats(e)
		cc, _, _ := m.start(t, s)
		c := NewClient(cc, testProg, testVers)

		err := c.Call(procPanic, nil, nil)
		var rerr *RemoteError
		if !errors.As(err, &rerr) || rerr.Stat != SystemErr {
			t.Fatalf("panic surfaced as %v, want SYSTEM_ERR", err)
		}
		if got := e.Snapshot().HandlerPanics; got != 1 {
			t.Fatalf("handler panics counted %d, want 1", got)
		}

		// The connection survived: an ordinary call still works.
		var sum int32
		err = c.Call(procAdd,
			func(enc *xdr.Encoder) { enc.PutUint32(1); enc.PutUint32(2) },
			func(d *xdr.Decoder) error {
				v, err := d.Int32()
				sum = v
				return err
			})
		if err != nil || sum != 3 {
			t.Fatalf("call after panic: %v, %v", sum, err)
		}
	})
}

// TestConcurrentServerZeroAllocNullRPC is the scaling gate: with stats
// off, the server path — feed, reassembly, executor, combining flusher
// — settles to zero allocations per null RPC in every mode.
func TestConcurrentServerZeroAllocNullRPC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	forEachMode(t, func(t *testing.T, m serverMode) {
		cc, _, _ := m.start(t, newTestServer())
		caller := &rawNullCaller{conn: cc}
		for i := 0; i < 100; i++ {
			caller.call(t) // warm the pools and grow steady-state buffers
		}
		if allocs := testing.AllocsPerRun(200, func() { caller.call(t) }); allocs != 0 {
			t.Fatalf("server path allocates %.1f times per null RPC, want 0", allocs)
		}
	})
}

// TestConcurrentTailRepliesAfterHalfClose is the wait-for-flush
// regression: a pipelined client that half-closes its write side after
// a burst must still receive every reply. The read side sees EOF while
// replies are still executing or buffered behind the flusher, and the
// connection may only tear down — and ServeConn return — once
// everything it owes has been written.
func TestConcurrentTailRepliesAfterHalfClose(t *testing.T) {
	forEachMode(t, func(t *testing.T, m serverMode) {
		if m.pipe {
			t.Skip("net.Pipe cannot half-close")
		}
		const calls = 64
		cc, _, done := m.start(t, newTestServer())
		cc.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := cc.Write(appendCalls(calls, 0)); err != nil {
			t.Fatal(err)
		}
		if err := cc.(*net.UnixConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		var rec []byte
		var err error
		for i := 0; i < calls; i++ {
			if rec, err = readRecord(cc, rec); err != nil {
				t.Fatalf("reply %d of %d: %v (tail replies dropped after half-close)", i, calls, err)
			}
			rec = rec[:cap(rec)]
		}
		waitServed(t, done)
	})
}

// TestConcurrentSlowReaderBoundedBuffering pins the reply-buffer bound:
// a client that pipelines requests for large replies without reading
// any must stall the connection's ingest once the pending-reply cap
// fills — bounding server memory and passing pushback to the peer's
// stream — rather than buffering every executed reply. Once the client
// drains, everything it was owed still arrives.
func TestConcurrentSlowReaderBoundedBuffering(t *testing.T) {
	forEachMode(t, func(t *testing.T, m serverMode) {
		const calls = 100
		s := newTestServer()
		blob := make([]byte, 64<<10)
		s.Register(procBig, func(args *xdr.Decoder, reply *xdr.Encoder) error {
			reply.PutOpaque(blob)
			return nil
		})
		e := stats.New(nil)
		s.SetStats(e)
		cc, sc, done := m.start(t, s)
		// Small kernel buffers so the flusher blocks early and the
		// pending cap — not the socket — is what bounds the backlog.
		if uc, ok := sc.(*net.UnixConn); ok {
			uc.SetWriteBuffer(16 << 10)
			cc.(*net.UnixConn).SetReadBuffer(16 << 10)
		}
		// net.Pipe writes are synchronous, so the burst goes out from a
		// side goroutine that parks as soon as the server's ingest does.
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			cc.Write(appendCalls(calls, procBig))
		}()

		// With the client not reading, the queued count must go quiet
		// well short of the full burst: the paused ingest is the bound.
		deadline := time.Now().Add(10 * time.Second)
		var queued, prev uint64
		for stable := 0; stable < 4; {
			if time.Now().After(deadline) {
				t.Fatalf("queued count never settled (last %d)", queued)
			}
			time.Sleep(50 * time.Millisecond)
			if queued = e.Snapshot().Queued; queued == prev {
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
			if rec, err = readRecord(cc, rec); err != nil {
				t.Fatalf("reply %d of %d after draining: %v", i, calls, err)
			}
			rec = rec[:cap(rec)]
		}
		<-fed
		cc.Close()
		waitServed(t, done)
	})
}

// TestConcurrentPoolFullParksConnection: with every worker blocked in a
// handler and the pool's queue full, a connection whose next record
// finds no slot parks — a poller feeding it goes on to its other
// connections, so a nop on one of them is ingested while the handlers
// still block — and when the workers free up the parked connection
// carries on from the bytes it had already read: nothing lost, nothing
// out of order. One parked connection is put on every poller, so a
// poller blocked in the submit could not ingest the nop wherever it
// landed.
func TestConcurrentPoolFullParksConnection(t *testing.T) {
	const procBlock, procSeq, tail = 20, 21, 3
	forEachMode(t, func(t *testing.T, m serverMode) {
		if m.conc <= 1 {
			t.Skip("the inline executor has no queue to fill")
		}
		workers, pollers := 2, 1
		if m.netpoll {
			workers = 1 // one worker executes, and so replies, in submission order
			if !m.pipe {
				pollers = runtime.GOMAXPROCS(0)
			}
		}
		s := newTestServer()
		release := make(chan struct{})
		s.Register(procBlock, func(*xdr.Decoder, *xdr.Encoder) error { <-release; return nil })
		var mu sync.Mutex
		var seen []int32
		s.Register(procSeq, func(args *xdr.Decoder, _ *xdr.Encoder) error {
			v, err := args.Int32()
			mu.Lock()
			seen = append(seen, v)
			mu.Unlock()
			return err
		})
		e := stats.New(nil)
		s.SetStats(e)
		s.SetConcurrency(workers)
		s.SetNetpoll(m.netpoll)
		l, dial := m.listen(t)
		go s.Serve(l)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Drain(ctx)
		})

		queued := uint64(0)
		send := func(b []byte, records int) net.Conn {
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			go conn.Write(b) // net.Pipe writes block until read
			queued += uint64(records)
			waitSnapshot(t, e, "the next record to be submitted", func(s *stats.Snapshot) bool { return s.Queued >= queued })
			return conn
		}
		// Fill the workers and the queue behind them.
		filler := send(appendCalls(2*workers, procBlock), 2*workers)
		// Each of these finds the queue full on its first record and
		// parks with three more records already read.
		parked := make([]net.Conn, pollers)
		for i := range parked {
			var enc xdr.Encoder
			encodeCall(&enc, CallHeader{XID: 1, Prog: testProg, Vers: testVers, Proc: procBlock})
			b := appendRecord(nil, enc.Bytes())
			for k := 1; k <= tail; k++ {
				enc.Reset()
				encodeCall(&enc, CallHeader{XID: uint32(1 + k), Prog: testProg, Vers: testVers, Proc: procSeq})
				enc.PutUint32(uint32(10*i + k))
				b = appendRecord(b, enc.Bytes())
			}
			parked[i] = send(b, 1)
		}
		// The nop is submitted although no handler has returned yet.
		nop := send(appendCalls(1, 0), 1)
		if got := e.Snapshot().Queued; got != queued {
			t.Fatalf("%d records submitted with every worker blocked, want %d: a parked connection kept reading", got, queued)
		}
		close(release)

		// Replies are collected from every connection at once: a
		// net.Pipe write parks the worker until its reply is read.
		replies := func(conn net.Conn, n int) <-chan []uint32 {
			out := make(chan []uint32, 1)
			go func() {
				var rec []byte
				var xids []uint32
				defer func() { out <- xids }()
				for i := 0; i < n; i++ {
					var err error
					if rec, err = readRecord(conn, rec); err != nil {
						t.Errorf("reply %d of %d: %v", i+1, n, err)
						return
					}
					xid, err := decodeReply(xdr.NewDecoder(rec))
					if err != nil {
						t.Errorf("reply %d of %d: %v", i+1, n, err)
						return
					}
					xids = append(xids, xid)
					rec = rec[:cap(rec)]
				}
			}()
			return out
		}
		nopDone, fillerDone := replies(nop, 1), replies(filler, 2*workers)
		parkedDone := make([]<-chan []uint32, len(parked))
		for i, conn := range parked {
			parkedDone[i] = replies(conn, 1+tail)
		}
		<-nopDone
		<-fillerDone
		for i, done := range parkedDone {
			xids := <-done
			if t.Failed() {
				return
			}
			sorted := append([]uint32(nil), xids...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			for k, xid := range sorted {
				if xid != uint32(k+1) {
					t.Fatalf("parked connection %d answered xids %v, want each of 1..%d once", i, xids, 1+tail)
				}
			}
			if workers == 1 && !sort.SliceIsSorted(xids, func(a, b int) bool { return xids[a] < xids[b] }) {
				t.Fatalf("parked connection %d answered out of order: %v", i, xids)
			}
		}
		if workers == 1 {
			// Per connection, the handler saw the carried records in the
			// order they were sent.
			last := make(map[int32]int32)
			for _, v := range seen {
				if v%10 <= last[v/10] {
					t.Fatalf("handler saw %v: connection %d's records out of order", seen, v/10)
				}
				last[v/10] = v % 10
			}
		}
		if len(seen) != pollers*tail {
			t.Fatalf("handler saw %d carried records, want %d", len(seen), pollers*tail)
		}
	})
}

// TestNetpollRecordSplitAcrossReadinessEvents: one request arriving in
// three separate reads (readiness events, on the poller feed) —
// mid-header, then mid-body, then the tail — reassembles into exactly
// one dispatch, and the partial reads are counted.
func TestNetpollRecordSplitAcrossReadinessEvents(t *testing.T) {
	forEachMode(t, func(t *testing.T, m serverMode) {
		s := newTestServer()
		e := stats.New(nil)
		s.SetStats(e)
		cc, _, _ := m.start(t, s)

		var enc xdr.Encoder
		encodeCall(&enc, CallHeader{XID: 7, Prog: testProg, Vers: testVers, Proc: procAdd})
		enc.PutUint32(40)
		enc.PutUint32(2)
		msg := appendRecord(nil, enc.Bytes())

		// Three chunks: 2 bytes (half the record-marking header), then up
		// to the middle of the body, then the rest. Waiting for the
		// partial-read count between writes makes each chunk its own
		// read, and the first two park a partial record.
		prev := 0
		for i, cut := range []int{2, len(msg) / 2, len(msg)} {
			if _, err := cc.Write(msg[prev:cut]); err != nil {
				t.Fatal(err)
			}
			prev = cut
			if cut < len(msg) {
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
		if sum, err := d.Int32(); err != nil || sum != 42 {
			t.Fatalf("sum=%d err=%v", sum, err)
		}
		if snap := e.Snapshot(); snap.Queued != 1 || snap.PartialReads < 2 {
			t.Fatalf("Queued = %d, PartialReads = %d; want exactly 1 dispatch after >= 2 partial reads", snap.Queued, snap.PartialReads)
		}
	})
}

// TestNetpollDrainCyclesNoLeaks: a server that is brought up, called
// and drained over and over — connections from Serve mid-call, and one
// handed to ServeConn directly, which only Drain ever closes — leaves
// neither a goroutine nor a descriptor (listener, accepted conn, epoll
// set) behind. Descriptors are counted the moment the last Drain
// returns.
func TestNetpollDrainCyclesNoLeaks(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	forEachMode(t, func(t *testing.T, m serverMode) {
		goroutines, fds := runtime.NumGoroutine(), openFDs()
		for i := 0; i < 20; i++ {
			s := newTestServer()
			direct, sc, directDone := m.start(t, s)
			l, dial := m.listen(t)
			served := make(chan error, 1)
			go func() { served <- s.Serve(l) }()

			var wg sync.WaitGroup
			for j := 0; j < 4; j++ {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := NewClient(conn, testProg, testVers).Call(0, nil, nil); err != nil {
						t.Errorf("cycle %d: call: %v", i, err)
					}
					conn.Close()
				}()
			}
			wg.Wait()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := s.Drain(ctx)
			cancel()
			if err != nil {
				t.Fatalf("cycle %d: Drain: %v", i, err)
			}
			if err := <-served; err != nil {
				t.Fatalf("cycle %d: Serve: %v", i, err)
			}
			// Drain closed the ServeConn connection: ServeConn is back,
			// its peer reads end-of-stream, and closing sc again fails.
			waitServed(t, directDone)
			if _, err := direct.Read(make([]byte, 1)); err == nil {
				t.Fatalf("cycle %d: peer of a drained ServeConn conn still reads", i)
			}
			if !m.pipe && sc.Close() == nil {
				t.Fatalf("cycle %d: Drain left the ServeConn descriptor open", i)
			}
			direct.Close()
		}
		if n := openFDs(); n != fds {
			t.Errorf("descriptors leaked: %d before, %d after 20 cycles", fds, n)
		}
		waitGoroutines(t, goroutines, "after 20 cycles")
	})
}

// countingConn counts the Write calls the server makes.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestSerialRepliesInOrderOneWriteEach: without a pool, a pipelined
// burst is executed inline by the goroutine feeding the connection, so
// replies come back in request order, each as one coalesced Write
// (marker and body together).
func TestSerialRepliesInOrderOneWriteEach(t *testing.T) {
	const calls = 32
	cc, sc := net.Pipe()
	counted := &countingConn{Conn: sc}
	done := make(chan error, 1)
	go func() { done <- newTestServer().ServeConn(counted) }()
	go cc.Write(appendCalls(calls, 0))

	cc.SetReadDeadline(time.Now().Add(10 * time.Second))
	var rec []byte
	for i := 1; i <= calls; i++ {
		var err error
		if rec, err = readRecord(cc, rec); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if xid, err := decodeReply(xdr.NewDecoder(rec)); err != nil || xid != uint32(i) {
			t.Fatalf("reply %d carries xid %d (err %v); serial replies must keep request order", i, xid, err)
		}
		rec = rec[:cap(rec)]
	}
	if n := counted.writes.Load(); n != calls {
		t.Fatalf("%d replies took %d Writes, want one each", calls, n)
	}
	cc.Close()
	waitServed(t, done)
}
