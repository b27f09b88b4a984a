package suntcp

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/runtime"
)

// Pipelining is several Clients over one concurrency-safe Conn: each
// Client serialises its own calls, the Conn under them does not. Eight
// goroutines, one Client each, share one RobustConn over one suntcp
// Conn — one TCP connection — and the server must see at least four of
// their calls in flight at once; every reply goes back to the caller
// that asked. Under -race this is the cross-check that nothing of one
// Client's marshal state is visible to another through the shared
// session and transport layers.
func TestClientsPipelineOverSharedRobustConn(t *testing.T) {
	c, err := core.Compile(core.Options{Frontend: core.FrontendCORBA, Filename: "hot.idl", Source: hotIDL})
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds, wantInFlight = 8, 20, 4
	var inFlight, peak atomic.Int32
	reached := make(chan struct{})
	var once sync.Once
	disp := runtime.NewDispatcher(c.Pres)
	disp.Handle("nop", func(*runtime.Call) error { return nil })
	disp.Handle("echo", func(call *runtime.Call) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if n >= wantInFlight {
			once.Do(func() { close(reached) })
		}
		// The first calls wait for company; a server that serialised
		// them would sit here until the timeout and fail the peak check.
		select {
		case <-reached:
		case <-time.After(5 * time.Second):
		}
		call.SetResult(append([]byte(nil), call.ArgBytes(0)...))
		return nil
	})
	plan, err := runtime.NewPlan(c.Pres, runtime.XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := runtime.NewSessionServer(disp, plan, runtime.NewReplyCacheSharded(256, 0))
	srv := NewSessionServer(sess, c.Pres.Interface)
	srv.SetConcurrency(callers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	robust := runtime.NewRobustConn(Dial(nc, c.Pres), c.Pres, runtime.RobustOptions{ClientID: 1, AtMostOnce: true})
	t.Cleanup(func() {
		robust.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		client, err := runtime.NewClient(c.Pres, runtime.XDRCodec, robust, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := bytes.Repeat([]byte{byte(g), byte(i)}, 1+g+i)
				_, ret, err := client.Invoke("echo", []runtime.Value{want}, nil, nil)
				if err != nil {
					errs <- fmt.Errorf("caller %d round %d: %w", g, i, err)
					return
				}
				if got := ret.([]byte); !bytes.Equal(got, want) {
					errs <- fmt.Errorf("caller %d round %d: got another call's reply %x, want %x", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p := peak.Load(); p < wantInFlight {
		t.Fatalf("at most %d calls in flight at the server, want >= %d: the shared conn serialised its clients", p, wantInFlight)
	}
}
