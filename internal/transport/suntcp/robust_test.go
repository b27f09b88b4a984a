package suntcp

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"flexrpc/internal/netsim"
	"flexrpc/internal/runtime"
	"flexrpc/internal/sunrpc"
)

// A panicking handler maps to a SYSTEM_ERR accept status on the Sun
// RPC wire, and the server connection keeps serving afterward.
func TestHandlerPanicKeepsServing(t *testing.T) {
	c := compileEcho(t)
	disp := runtime.NewDispatcher(c.Pres)
	disp.Handle("ECHO", func(call *runtime.Call) error {
		if bytes.Equal(call.ArgBytes(0), []byte("boom")) {
			panic("handler exploded")
		}
		call.SetResult(append([]byte(nil), call.ArgBytes(0)...))
		return nil
	})
	srv, err := NewServer(disp)
	if err != nil {
		t.Fatal(err)
	}
	cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
	go func() { _ = srv.ServeConn(sc) }()
	t.Cleanup(func() { cc.Close(); sc.Close() })

	client, err := runtime.NewClient(c.Pres, runtime.XDRCodec, Dial(cc, c.Pres), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Invoke("ECHO", []runtime.Value{[]byte("boom")}, nil, nil); err == nil {
		t.Fatal("panicking handler returned a successful reply")
	} else {
		var re *sunrpc.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("want *sunrpc.RemoteError, got %v", err)
		}
	}
	// Same connection, next call: the panic must not have killed the
	// serving loop.
	_, ret, err := client.Invoke("ECHO", []runtime.Value{[]byte("fine")}, nil, nil)
	if err != nil || !bytes.Equal(ret.([]byte), []byte("fine")) {
		t.Fatalf("server stopped serving after a recovered panic: %v", err)
	}
}

// A per-call deadline propagates through the suntcp conn into the
// pipelined Sun RPC client: the stuck call returns promptly and the
// connection remains usable.
func TestCallContextDeadline(t *testing.T) {
	c := compileEcho(t)
	disp := runtime.NewDispatcher(c.Pres)
	release := make(chan struct{})
	disp.Handle("ECHO", func(call *runtime.Call) error {
		if bytes.Equal(call.ArgBytes(0), []byte("stall")) {
			<-release
		}
		call.SetResult(append([]byte(nil), call.ArgBytes(0)...))
		return nil
	})
	srv, err := NewServer(disp)
	if err != nil {
		t.Fatal(err)
	}
	cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
	go func() { _ = srv.ServeConn(sc) }()
	t.Cleanup(func() { close(release); cc.Close(); sc.Close() })

	client, err := runtime.NewClient(c.Pres, runtime.XDRCodec, Dial(cc, c.Pres), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = client.InvokeContext(ctx, "ECHO", []runtime.Value{[]byte("stall")}, nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call got %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("deadline took %v to fire", took)
	}
}

// A redial hook on the Sun RPC client under a suntcp conn: after the
// server connection dies, calls recover over a fresh dial.
func TestRedialThroughConn(t *testing.T) {
	c := compileEcho(t)
	disp := runtime.NewDispatcher(c.Pres)
	disp.Handle("ECHO", func(call *runtime.Call) error {
		call.SetResult(append([]byte(nil), call.ArgBytes(0)...))
		return nil
	})
	srv, err := NewServer(disp)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := Dial(nc, c.Pres)
	conn.rpc.SetRedial(func() (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	})
	client, err := runtime.NewClient(c.Pres, runtime.XDRCodec, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload := []byte("before")
	if _, ret, err := client.Invoke("ECHO", []runtime.Value{payload}, nil, nil); err != nil || !bytes.Equal(ret.([]byte), payload) {
		t.Fatalf("first call: %v", err)
	}

	nc.Close() // sever the original connection

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, ret, err := client.Invoke("ECHO", []runtime.Value{[]byte("after")}, nil, nil)
		if err == nil {
			if !bytes.Equal(ret.([]byte), []byte("after")) {
				t.Fatalf("echoed %q after redial", ret)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("conn never recovered through redial")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
