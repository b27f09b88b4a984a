package sunrpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"flexrpc/internal/xdr"
)

// Close must fail every outstanding call with ErrClientClosed right
// away — not leave them blocked until the reader happens to notice
// the dead connection.
func TestCloseFailsPendingCalls(t *testing.T) {
	cc, sc := net.Pipe()
	defer sc.Close()
	go func() { // swallow requests, never reply
		buf := make([]byte, 4096)
		for {
			if _, err := sc.Read(buf); err != nil {
				return
			}
		}
	}()
	c := NewClient(cc, testProg, testVers)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Call(procEcho,
			func(e *xdr.Encoder) { e.PutOpaque([]byte("x")) },
			func(d *xdr.Decoder) error { return nil })
	}()
	// Let the call register and write before closing.
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("pending call got %v, want ErrClientClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call still blocked after Close")
	}
	// Later calls fail fast with the same sentinel.
	err := c.Call(procEcho, nil, nil)
	if !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close got %v, want ErrClientClosed", err)
	}
}

// A deadline-expired call abandons its xid: the late reply is
// discarded when it finally arrives, the stream stays in sync, and
// later calls on the same connection still work.
func TestContextAbandonsXIDWithoutDesync(t *testing.T) {
	const procSlow, procFast = 9, 5
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	release := make(chan struct{})
	var wmu sync.Mutex
	go func() { // frame-level fake server with per-proc reply control
		for {
			rec, err := readRecord(sc, nil)
			if err != nil {
				return
			}
			h, err := decodeCall(xdr.NewDecoder(rec))
			if err != nil {
				return
			}
			go func(h CallHeader) {
				if h.Proc == procSlow {
					<-release // hold this reply past the deadline
				}
				var e xdr.Encoder
				encodeAcceptedReply(&e, h.XID, Success)
				e.PutUint32(uint32(h.Proc))
				wmu.Lock()
				_ = writeRecord(sc, e.Bytes())
				wmu.Unlock()
			}(h)
		}
	}()

	c := NewClient(cc, testProg, testVers)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := c.CallContext(ctx, procSlow, nil, func(d *xdr.Decoder) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call got %v, want context.DeadlineExceeded", err)
	}

	// The held reply now goes out; the client must discard it and
	// still answer the next call correctly.
	close(release)
	var got int32
	err = c.Call(procFast, nil, func(d *xdr.Decoder) error {
		var derr error
		got, derr = d.Int32()
		return derr
	})
	if err != nil {
		t.Fatalf("call after abandoned xid: %v", err)
	}
	if got != procFast {
		t.Fatalf("got reply %d, want %d — stream desynchronized", got, procFast)
	}
}

// After a connection failure poisons the client, the redial hook
// brings it back: the next call dials a fresh connection instead of
// returning the sticky error forever.
func TestRedialAfterConnectionFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = newTestServer().Serve(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(nc, testProg, testVers)
	c.SetRedial(func() (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	})
	defer c.Close()

	echo := func() error {
		return c.Call(procEcho,
			func(e *xdr.Encoder) { e.PutOpaque([]byte("ping")) },
			func(d *xdr.Decoder) error {
				data, derr := d.Opaque()
				if derr != nil {
					return derr
				}
				if string(data) != "ping" {
					t.Fatalf("echoed %q", data)
				}
				return nil
			})
	}
	if err := echo(); err != nil {
		t.Fatalf("first call: %v", err)
	}

	nc.Close() // kill the connection out from under the client

	// The first calls after the kill may observe the send/receive
	// failure before the sticky error is set; within a few retries
	// the client must redial and recover.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := echo(); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered through the redial hook")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
