package sunrpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"flexrpc/internal/stats"
	"flexrpc/internal/xdr"
)

const (
	procSlow  = 7
	procPanic = 8
	procBig   = 9
)

// TestConcurrentDispatchOverlaps proves SetConcurrency actually
// executes requests from one connection in parallel: a fast call
// issued after a deliberately blocked call completes while the slow
// one is still held, which the serial loop cannot do.
func TestConcurrentDispatchOverlaps(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s := newTestServer()
	s.Register(procSlow, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		entered <- struct{}{}
		<-release
		reply.PutUint32(1)
		return nil
	})
	s.SetConcurrency(4)

	cc, sc := net.Pipe()
	go func() { _ = s.ServeConn(sc) }()
	t.Cleanup(func() { cc.Close(); sc.Close() })
	c := NewClient(cc, testProg, testVers)

	slowDone := make(chan error, 1)
	go func() {
		slowDone <- c.Call(procSlow, nil, func(d *xdr.Decoder) error {
			_, err := d.Int32()
			return err
		})
	}()
	<-entered // the slow handler now owns one worker

	// A second call on the same connection must complete while the
	// slow one is parked.
	var sum int32
	err := c.Call(procAdd,
		func(e *xdr.Encoder) { e.PutUint32(20); e.PutUint32(22) },
		func(d *xdr.Decoder) error {
			v, err := d.Int32()
			sum = v
			return err
		})
	if err != nil || sum != 42 {
		t.Fatalf("fast call behind a blocked worker: %v, %v", sum, err)
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestConcurrentReplyCoalescing drives a burst of pipelined calls
// through a concurrent server and checks via the flush counters that
// replies were coalesced: strictly fewer flushes than records.
func TestConcurrentReplyCoalescing(t *testing.T) {
	const calls = 64
	s := newTestServer()
	e := stats.New(nil)
	s.SetStats(e)
	s.SetConcurrency(4)

	cc, sc := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); _ = s.ServeConn(sc) }()
	c := NewClient(cc, testProg, testVers)

	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Call(procAdd,
				func(enc *xdr.Encoder) { enc.PutUint32(2); enc.PutUint32(3) },
				func(d *xdr.Decoder) error { _, err := d.Int32(); return err },
			); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Wind the connection down so every flush has been counted
	// before the snapshot (the writer counts after its Write).
	cc.Close()
	sc.Close()
	<-served

	snap := e.Snapshot()
	if snap.Queued != calls {
		t.Fatalf("queued %d requests, want %d", snap.Queued, calls)
	}
	if snap.FlushedRecords != calls {
		t.Fatalf("flushed %d records, want %d", snap.FlushedRecords, calls)
	}
	if snap.Flushes == 0 || snap.Flushes > snap.FlushedRecords {
		t.Fatalf("flushes = %d for %d records", snap.Flushes, snap.FlushedRecords)
	}
	// Coalescing is opportunistic — net.Pipe's synchronous writes
	// make it likely but not certain — so only log the achieved ratio.
	t.Logf("flushes=%d records=%d coalesced=%d",
		snap.Flushes, snap.FlushedRecords, snap.CoalescedWrites)
}

// rawNullCaller drives null RPCs over the wire with fully reused
// buffers, so the allocation gate below measures the server's
// concurrent path, not a client's bookkeeping.
type rawNullCaller struct {
	conn net.Conn
	enc  xdr.Encoder
	out  []byte
	rec  []byte
	xid  uint32
}

func (r *rawNullCaller) call(t testing.TB) {
	r.xid++
	r.enc.Reset()
	encodeCall(&r.enc, CallHeader{XID: r.xid, Prog: testProg, Vers: testVers, Proc: 0})
	r.out = appendRecord(r.out[:0], r.enc.Bytes())
	if _, err := r.conn.Write(r.out); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(r.conn, r.rec)
	if err != nil {
		t.Fatal(err)
	}
	r.rec = rec[:cap(rec)]
}

// TestConcurrentServeConnShutdown checks the wind-down order: closing
// the connection mid-stream stops reader, workers and writer without
// leaking goroutines or deadlocking.
func TestConcurrentServeConnShutdown(t *testing.T) {
	s := newTestServer()
	s.Register(0, func(args *xdr.Decoder, reply *xdr.Encoder) error { return nil })
	s.SetConcurrency(4)
	cc, sc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- s.ServeConn(sc) }()

	caller := &rawNullCaller{conn: cc}
	caller.call(t)
	cc.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeConn after peer close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after the peer closed")
	}
}
