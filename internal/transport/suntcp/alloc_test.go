package suntcp

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/netpoll"
	"flexrpc/internal/runtime"
)

const hotIDL = `
interface Hot {
    void nop();
    sequence<octet> echo(in sequence<octet> data);
    sequence<octet> fetch(in unsigned long n);
};`

// sessionStack binds the whole at-most-once TCP path over loopback —
// runtime.Client → RobustConn{AtMostOnce} → suntcp.Conn → 127.0.0.1 →
// sunrpc.Server → SessionServer + ReplyCache → Dispatcher — and returns
// the client and the session conn under it. The client lands fetch's
// result in the caller's buffer ([alloc(caller)]); fetch(n) returns the
// first n bytes of a server table.
func sessionStack(t *testing.T, usePoller bool, cacheSize int) (*runtime.Client, *runtime.RobustConn) {
	t.Helper()
	c, err := core.Compile(core.Options{Frontend: core.FrontendCORBA, Filename: "hot.idl", Source: hotIDL})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := core.Compile(core.Options{Frontend: core.FrontendCORBA, Filename: "hot.idl", Source: hotIDL,
		PDL: "interface Hot { fetch([alloc(caller)] return); };", PDLFilename: "client.pdl"})
	if err != nil {
		t.Fatal(err)
	}
	table := bytes.Repeat([]byte{0x5A}, 2<<10)
	disp := runtime.NewDispatcher(c.Pres)
	disp.Handle("nop", func(*runtime.Call) error { return nil })
	disp.Handle("echo", func(call *runtime.Call) error {
		call.SetResult(call.ArgBytes(0))
		return nil
	})
	disp.Handle("fetch", func(call *runtime.Call) error {
		call.SetResult(table[:call.Arg(0).(uint32)])
		return nil
	})
	plan, err := runtime.NewPlan(c.Pres, runtime.XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := runtime.NewSessionServer(disp, plan, runtime.NewReplyCacheSharded(cacheSize, 0))
	srv := NewSessionServer(sess, c.Pres.Interface)
	srv.SetConcurrency(2)
	srv.SetNetpoll(usePoller)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	robust := runtime.NewRobustConn(Dial(nc, cc.Pres), cc.Pres, runtime.RobustOptions{ClientID: 1, AtMostOnce: true})
	client, err := runtime.NewClient(cc.Pres, runtime.XDRCodec, robust, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return client, robust
}

// TestSessionNullRPCZeroAllocOverTCP is the whole-path gate: in steady
// state a nop through every layer of the at-most-once TCP stack, client
// and server both in this process, allocates nothing — no reader
// goroutine or decoder per call, no cache entry, channel or retained
// copy, no reply frame, no reply buffer. The cache is small enough that
// the run is well past its capacity, evicting on every call.
func TestSessionNullRPCZeroAllocOverTCP(t *testing.T) {
	tcpGate(t, "a session nop", func(client *runtime.Client) error {
		_, _, err := client.Invoke("nop", nil, nil, nil)
		return err
	})
}

// TestClientFetchZeroAllocOverTCP gates the client's caller-landed
// reply over the same stack: a 1000-byte fetch into a buffer the caller
// reuses allocates nothing. The result is the step's bound view of the
// buffer, its length rewritten per call, and the server's result stays
// in the Call's slot unboxed.
func TestClientFetchZeroAllocOverTCP(t *testing.T) {
	args, retBuf := []runtime.Value{uint32(1000)}, make([]byte, 1<<10)
	tcpGate(t, "a caller-landed fetch", func(client *runtime.Client) error {
		_, ret, err := client.Invoke("fetch", args, nil, retBuf)
		if b, _ := ret.([]byte); err == nil && (len(b) != 1000 || &b[0] != &retBuf[0]) {
			t.Fatal("fetch did not land its 1000 bytes in the caller's buffer")
		}
		return err
	})
}

// tcpGate requires call, on a warm sessionStack with the pool and the
// poller feed in turn, to allocate nothing.
func tcpGate(t *testing.T, what string, call func(*runtime.Client) error) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	for _, row := range []struct {
		name   string
		poller bool
	}{{"pool", false}, {"netpoll", true}} {
		t.Run(row.name, func(t *testing.T) {
			if row.poller && !netpoll.Supported() {
				t.Skip("netpoll unsupported on this platform")
			}
			client, _ := sessionStack(t, row.poller, 64)
			run := func() {
				if err := call(client); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2000; i++ { // pools warm, buffers at size, every shard's ring wrapped
				run()
			}
			if allocs := testing.AllocsPerRun(2000, run); allocs != 0 {
				t.Fatalf("%s over loopback TCP allocates %.2f times per call, want 0", what, allocs)
			}
		})
	}
}

// TestRobustReplyBufferSettles: runtime.Client recycles the reply it
// was handed as the next call's reply buffer, and under RobustConn what
// it is handed is the transport's buffer minus the 8-byte session
// header. The transport must therefore grow a short buffer by more than
// the shortfall, or equal-size replies miss it by 8 bytes forever. After
// the second call no call may allocate a reply buffer.
func TestRobustReplyBufferSettles(t *testing.T) {
	_, robust := sessionStack(t, false, 4096)
	req := bytes.Repeat([]byte{7}, 1000)
	var enc bytes.Buffer // XDR opaque: length word, then the bytes (already 4-aligned)
	enc.Write([]byte{0, 0, 0x03, 0xe8})
	enc.Write(req)

	var replyBuf []byte
	grown := 0
	for i := 0; i < 1000; i++ {
		reply, err := robust.Call(1, enc.Bytes(), replyBuf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(reply, req) {
			t.Fatalf("call %d: reply does not echo the request", i)
		}
		// runtime.Client's recycling rule: adopt what came back when it
		// is roomier than what went in — which it can only be when the
		// transport had to allocate.
		if cap(reply) > cap(replyBuf) {
			replyBuf = reply[:cap(reply)]
			if i >= 2 {
				grown++
			}
		}
	}
	if grown != 0 {
		t.Fatalf("%d of 998 equal-size calls allocated a new reply buffer after the second", grown)
	}
}
