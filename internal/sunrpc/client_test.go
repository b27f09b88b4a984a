package sunrpc

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"flexrpc/internal/xdr"
)

// TestClientReplyChunkings: the reply reader takes whatever a read
// returns. Replies to 32 pipelined calls are delivered one byte per
// Write, and two records coalesced per Write; every caller must get its
// own reply either way.
func TestClientReplyChunkings(t *testing.T) {
	const calls = 32
	deliveries := map[string]func(sc net.Conn, recs [][]byte) error{
		"byte-at-a-time": func(sc net.Conn, recs [][]byte) error {
			for _, rec := range recs {
				for i := range rec {
					if _, err := sc.Write(rec[i : i+1]); err != nil {
						return err
					}
				}
			}
			return nil
		},
		"two-per-write": func(sc net.Conn, recs [][]byte) error {
			for i := 0; i < len(recs); i += 2 {
				if _, err := sc.Write(append(append([]byte(nil), recs[i]...), recs[i+1]...)); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for name, deliver := range deliveries {
		t.Run(name, func(t *testing.T) {
			cc, sc := net.Pipe()
			defer sc.Close()
			c := NewClient(cc, testProg, testVers)
			defer c.Close()

			served := make(chan error, 1)
			go func() {
				// Collect every call before answering any, newest first.
				var recs [][]byte
				for len(recs) < calls {
					rec, err := readRecord(sc, nil)
					if err != nil {
						served <- err
						return
					}
					d := xdr.NewDecoder(rec)
					h, err := decodeCall(d)
					if err != nil {
						served <- err
						return
					}
					arg, err := d.Int32()
					if err != nil {
						served <- err
						return
					}
					var e xdr.Encoder
					encodeAcceptedReply(&e, h.XID, Success)
					e.PutUint32(uint32(arg * 10))
					recs = append([][]byte{appendRecord(nil, e.Bytes())}, recs...)
				}
				served <- deliver(sc, recs)
			}()

			var wg sync.WaitGroup
			errs := make([]error, calls)
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					arg := int32(i + 1)
					var got int32
					err := c.Call(procEcho,
						func(e *xdr.Encoder) { e.PutUint32(uint32(arg)) },
						func(d *xdr.Decoder) (err error) { got, err = d.Int32(); return err })
					if err == nil && got != arg*10 {
						err = fmt.Errorf("call %d got %d, want %d", i, got, arg*10)
					}
					errs[i] = err
				}()
			}
			wg.Wait()
			if err := <-served; err != nil {
				t.Fatalf("fake server: %v", err)
			}
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestClientReaderLifecycle: a client that never calls has no goroutine;
// its first call starts the one reply reader, which later calls reuse;
// Close returns with the reader gone. (Counts are upper bounds: another
// test's goroutines may still be winding down, never starting.)
func TestClientReaderLifecycle(t *testing.T) {
	cc, sc := net.Pipe()
	go func() { _ = newTestServer().ServeConn(sc) }()
	base := runtime.NumGoroutine() // the server's goroutine included
	c := NewClient(cc, testProg, testVers)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("a client that has not called runs %d goroutines", n-base)
	}
	for i := 0; i < 3; i++ {
		if err := c.Call(0, nil, nil); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > base+1 {
			t.Fatalf("after call %d the client runs %d goroutines, want one reply reader", i+1, n-base)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close waited for the reader, so only the server, winding down on
	// the closed pipe, can still be counted.
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines outlived Close", n-base+1)
	}
	waitGoroutines(t, base-1, "after Close")
}

// TestUnsolicitedReplyPoisonsStream: with a reader parked on the
// connection, a reply that arrives while nothing is pending is still a
// desynchronized stream, and every later call says so.
func TestUnsolicitedReplyPoisonsStream(t *testing.T) {
	cc, sc := net.Pipe()
	defer sc.Close()
	c := NewClient(cc, testProg, testVers)
	defer c.Close()
	go func() {
		rec, err := readRecord(sc, nil)
		if err != nil {
			return
		}
		h, _ := decodeCall(xdr.NewDecoder(rec))
		var e xdr.Encoder
		encodeAcceptedReply(&e, h.XID, Success)
		_ = writeRecord(sc, e.Bytes())
		e.Reset()
		encodeAcceptedReply(&e, h.XID+100, Success) // nobody asked
		_ = writeRecord(sc, e.Bytes())
		for { // swallow whatever else the client sends
			if _, err := readRecord(sc, nil); err != nil {
				return
			}
		}
	}()
	if err := c.Call(0, nil, nil); err != nil {
		t.Fatalf("first call: %v", err)
	}
	// The next call either finds the sticky error or is failed by it
	// while waiting; the fake server never answers it.
	if err := c.Call(0, nil, nil); !errors.Is(err, ErrXIDMismatch) {
		t.Fatalf("call after an unsolicited reply got %v, want ErrXIDMismatch", err)
	}
	if err := c.Call(0, nil, nil); !errors.Is(err, ErrXIDMismatch) {
		t.Fatalf("the error did not stick: %v", err)
	}
}
