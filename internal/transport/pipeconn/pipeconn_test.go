package pipeconn

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	goruntime "runtime"
	"strings"
	"testing"

	"flexrpc/internal/bsdpipe"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/faultconn"
)

// fixture is an echo/bump server behind a fresh pipe pair; bumps
// counts executions of the non-idempotent bump.
type fixture struct {
	pres  *pres.Presentation
	conn  *Conn
	srv   *Server
	bumps int32 // written by the serving goroutine; read once it has returned
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f, err := corba.Parse("p.idl", `
		interface P {
			sequence<octet> echo(in sequence<octet> data);
			long bump();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{pres: pres.Default(f.Interface("P"), pres.StyleCORBA)}
	disp := runtime.NewDispatcher(fx.pres)
	disp.Handle("echo", func(c *runtime.Call) error {
		c.SetResult(c.Arg(0))
		return nil
	})
	disp.Handle("bump", func(c *runtime.Call) error {
		fx.bumps++
		c.SetResult(fx.bumps)
		return nil
	})
	plan, err := runtime.NewPlan(fx.pres, runtime.XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.conn, fx.srv = New(disp, plan)
	return fx
}

// serve runs fn in a goroutine and returns a function that waits for
// its result.
func serve(fn func() error) func() error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	return func() error { return <-done }
}

// header is a frame header claiming n body bytes.
func header(opIdx, n uint32) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], opIdx)
	binary.BigEndian.PutUint32(hdr[4:], n)
	return hdr[:]
}

// A body larger than the pipe buffer crosses in BufferSize slices and
// arrives whole, and a clean close ends Serve with nil.
func TestRoundTripLargerThanPipeBuffer(t *testing.T) {
	fx := newFixture(t)
	wait := serve(func() error { return fx.srv.Serve(context.Background()) })
	client, err := runtime.NewClient(fx.pres, runtime.XDRCodec, fx.conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A, 0xA5, 0x3C}, bsdpipe.BufferSize+5)
	_, ret, err := client.Invoke("echo", []runtime.Value{payload}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ret.([]byte); !bytes.Equal(got, payload) {
		t.Fatalf("echo returned %d bytes, sent %d", len(got), len(payload))
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatalf("Serve after a clean close = %v, want nil", err)
	}
	if _, err := fx.conn.rep.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("reply pipe after Serve returned: %v, want EOF", err)
	}
}

// A length prefix above MaxFrame means a desynchronized or hostile
// stream: the read fails before any body is allocated.
func TestOversizedLengthPrefixRejectedWithoutAllocating(t *testing.T) {
	fx := newFixture(t)
	wait := serve(func() error { return fx.srv.Serve(context.Background()) })
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if _, err := fx.conn.req.Write(header(0, MaxFrame+1)); err != nil {
		t.Fatal(err)
	}
	err := wait()
	goruntime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("Serve = %v, want a frame-length error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame/2 {
		t.Fatalf("rejecting the prefix allocated %d bytes: the body was allocated first", grew)
	}

	// The client end applies the same bound to replies.
	fx = newFixture(t)
	wait = serve(func() error {
		if _, _, err := readFrame(fx.conn.req, nil); err != nil {
			return err
		}
		_, err := fx.conn.rep.Write(header(0, MaxFrame+1))
		return err
	})
	_, err = fx.conn.Call(0, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("Call = %v, want a frame-length error", err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

// EOF between frames is a clean close; EOF inside one — header or
// body — is io.ErrUnexpectedEOF, on both ends.
func TestEOFInsideFrameIsUnexpected(t *testing.T) {
	for _, partial := range [][]byte{
		header(0, 100)[:3],                      // inside the header
		append(header(0, 100), "ten bytes!"...), // inside the body
	} {
		fx := newFixture(t)
		wait := serve(func() error { return fx.srv.Serve(context.Background()) })
		if _, err := fx.conn.req.Write(partial); err != nil {
			t.Fatal(err)
		}
		fx.conn.req.CloseWrite()
		if err := wait(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Serve after %d bytes of a frame = %v, want io.ErrUnexpectedEOF", len(partial), err)
		}

		fx = newFixture(t)
		wait = serve(func() error {
			if _, _, err := readFrame(fx.conn.req, nil); err != nil {
				return err
			}
			_, err := fx.conn.rep.Write(partial)
			fx.conn.rep.CloseWrite()
			return err
		})
		if _, err := fx.conn.Call(0, nil, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Call after %d bytes of a reply = %v, want io.ErrUnexpectedEOF", len(partial), err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// Every request crosses the pipe twice; the session layer must answer
// the second copy of a (client id, sequence) pair from the reply cache
// instead of running the handler again.
func TestServeSessionReplaysDuplicateWithoutReexecuting(t *testing.T) {
	fx := newFixture(t)
	sess := runtime.NewSessionServer(fx.srv.disp, fx.srv.plan, runtime.NewReplyCache(16))
	wait := serve(func() error { return fx.srv.ServeSession(context.Background(), sess) })
	faults := faultconn.New(faultconn.Profile{Duplicate: 1})
	robust := runtime.NewRobustConn(faults.Wrap(fx.conn), fx.pres, runtime.RobustOptions{ClientID: 7, AtMostOnce: true})
	client, err := runtime.NewClient(fx.pres, runtime.XDRCodec, robust, nil)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 5
	for i := int32(1); i <= calls; i++ {
		_, ret, err := client.Invoke("bump", nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ret.(int32) != i {
			t.Fatalf("bump %d returned %d: a duplicate re-executed", i, ret)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if dups := faults.Counts().Duplicates; dups != calls {
		t.Fatalf("injected %d duplicates, want %d: the test did not exercise replay", dups, calls)
	}
	if fx.bumps != calls {
		t.Fatalf("handler ran %d times for %d calls", fx.bumps, calls)
	}
}
