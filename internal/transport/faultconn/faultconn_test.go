package faultconn_test

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/faultconn"
	"flexrpc/internal/xdr"
)

func counterPres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("counter.idl", `
		interface Counter {
			long bump(in long n);
			long peek();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdl.ApplyLoose(pres.Default(f.Interface("Counter"), pres.StyleCORBA),
		"counter.pdl", "interface Counter {\n    [idempotent] peek();\n};\n")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// loopback carries session frames straight into a SessionServer. It
// copies the reply into replyBuf like a real wire would: cached
// frames are shared and read-only.
type loopback struct {
	sess *runtime.SessionServer
}

func (l *loopback) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	frame := l.sess.Handle(context.Background(), opIdx, req)
	return append(replyBuf[:0], frame...), nil
}

func (l *loopback) Close() error { return nil }

func newFaultyStack(t *testing.T, prof faultconn.Profile, opts runtime.RobustOptions) (*runtime.Client, *faultconn.Schedule, *atomic.Int64) {
	t.Helper()
	p := counterPres(t)
	var counter atomic.Int64
	disp := runtime.NewDispatcher(p)
	disp.Handle("bump", func(c *runtime.Call) error {
		c.SetResult(int32(counter.Add(int64(c.Arg(0).(int32)))))
		return nil
	})
	disp.Handle("peek", func(c *runtime.Call) error {
		c.SetResult(int32(counter.Load()))
		return nil
	})
	plan, err := runtime.NewPlan(p, runtime.XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cache *runtime.ReplyCache
	if opts.AtMostOnce {
		cache = runtime.NewReplyCacheSharded(runtime.DefaultReplyCacheSize, 0)
	}
	sess := runtime.NewSessionServer(disp, plan, cache)
	sched := faultconn.New(prof)
	robust := runtime.NewRobustConn(sched.Wrap(&loopback{sess: sess}), p, opts)
	client, err := runtime.NewClient(p, runtime.XDRCodec, robust, nil)
	if err != nil {
		t.Fatal(err)
	}
	return client, sched, &counter
}

// TestCounterUnderInjectedFaults is the headline robustness test:
// 500 calls to a NON-idempotent counter op through a transport that
// drops, duplicates, and corrupts messages. At-most-once execution
// means every successful call bumped the counter exactly once, no
// matter how many retransmits it took, and no call outlives its
// deadline.
func TestCounterUnderInjectedFaults(t *testing.T) {
	const calls = 500
	const deadline = 5 * time.Second
	client, sched, counter := newFaultyStack(t, faultconn.Profile{
		Seed:        42,
		DropRequest: 0.025,
		DropReply:   0.025,
		Duplicate:   0.05,
		Corrupt:     0.05,
	}, runtime.RobustOptions{
		ClientID:   7,
		AtMostOnce: true,
		Policy: runtime.RetryPolicy{
			MaxAttempts:    25,
			AttemptTimeout: 40 * time.Millisecond,
			BaseBackoff:    200 * time.Microsecond,
			MaxBackoff:     2 * time.Millisecond,
			Seed:           42,
		},
	})
	succeeded := 0
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, ret, err := client.InvokeContext(ctx, "bump", []runtime.Value{int32(1)}, nil, nil)
		took := time.Since(start)
		cancel()
		if took > deadline+500*time.Millisecond {
			t.Fatalf("call %d took %v, outliving its %v deadline", i, took, deadline)
		}
		if err != nil {
			// 25 attempts against 10% total fault probability: a
			// failure here marks a real retry-machinery bug.
			t.Fatalf("call %d failed: %v", i, err)
		}
		succeeded++
		if got := ret.(int32); got != int32(succeeded) {
			t.Fatalf("call %d: counter reply %d, want %d (duplicate executed?)", i, got, succeeded)
		}
	}
	if got := counter.Load(); got != int64(succeeded) {
		t.Fatalf("server executed bump %d times for %d successful calls", got, succeeded)
	}
	c := sched.Counts()
	if c.DroppedRequests == 0 || c.DroppedReplies == 0 || c.Duplicates == 0 || c.Corrupted == 0 {
		t.Fatalf("fault schedule injected nothing: %+v", c)
	}
	t.Logf("faults injected over %d calls: %+v", calls, c)
}

// Without the reply cache, a duplicated non-idempotent call executes
// twice — the cache is what makes retries safe, not luck.
func TestDuplicatesDoubleExecuteWithoutCache(t *testing.T) {
	const calls = 200
	client, sched, counter := newFaultyStack(t, faultconn.Profile{
		Seed:      1,
		Duplicate: 1, // every call duplicated
	}, runtime.RobustOptions{
		ClientID: 8,
		Policy:   runtime.RetryPolicy{MaxAttempts: 1},
	})
	for i := 0; i < calls; i++ {
		if _, _, err := client.Invoke("bump", []runtime.Value{int32(1)}, nil, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := counter.Load(); got != 2*calls {
		t.Fatalf("counter = %d after %d always-duplicated calls without a cache, want %d", got, calls, 2*calls)
	}
	if c := sched.Counts(); c.Duplicates != calls {
		t.Fatalf("duplicates = %d, want %d", c.Duplicates, calls)
	}
}

// A call whose handler never returns must come back as soon as its
// deadline expires, not hang the caller.
func TestDeadlineAbandonsStuckCall(t *testing.T) {
	p := counterPres(t)
	release := make(chan struct{})
	disp := runtime.NewDispatcher(p)
	disp.Handle("bump", func(c *runtime.Call) error {
		<-release
		c.SetResult(int32(1))
		return nil
	})
	plan, err := runtime.NewPlan(p, runtime.XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := runtime.NewSessionServer(disp, plan, runtime.NewReplyCacheSharded(16, 0))
	robust := runtime.NewRobustConn(&loopback{sess: sess}, p, runtime.RobustOptions{
		ClientID:   9,
		AtMostOnce: true,
		Policy:     runtime.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	client, err := runtime.NewClient(p, runtime.XDRCodec, robust, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = client.InvokeContext(ctx, "bump", []runtime.Value{int32(1)}, nil, nil)
	took := time.Since(start)
	close(release)
	if err == nil {
		t.Fatal("call with stuck handler returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if took > time.Second {
		t.Fatalf("abandoning the call took %v", took)
	}
}

// Two schedules built from the same seed inject the identical fault
// sequence — the property that makes a failure report reproducible.
func TestScheduleDeterministic(t *testing.T) {
	prof := faultconn.Profile{
		Seed:        99,
		DropReply:   0.1,
		Duplicate:   0.2,
		Corrupt:     0.1,
		DropRequest: 0.05,
	}
	run := func() faultconn.Counts {
		client, sched, _ := newFaultyStack(t, prof, runtime.RobustOptions{
			ClientID:   3,
			AtMostOnce: true,
			Policy: runtime.RetryPolicy{
				MaxAttempts:    20,
				AttemptTimeout: 20 * time.Millisecond,
				BaseBackoff:    100 * time.Microsecond,
				MaxBackoff:     time.Millisecond,
				Seed:           5,
			},
		})
		for i := 0; i < 50; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if _, _, err := client.InvokeContext(ctx, "bump", []runtime.Value{int32(1)}, nil, nil); err != nil {
				cancel()
				t.Fatalf("call %d: %v", i, err)
			}
			cancel()
		}
		return sched.Counts()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n  first  %+v\n  second %+v", a, b)
	}
}

// The net.Conn-level wrapper injects faults under a real Sun RPC
// stack over TCP: a truncated record write surfaces as a call error
// instead of wedging the client.
func TestNetConnTruncateSurfacesError(t *testing.T) {
	const prog, vers = 400100, 1
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := sunrpc.NewServer(prog, vers)
	srv.Register(1, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		data, derr := args.Opaque()
		if derr != nil {
			return sunrpc.ErrGarbageArgs
		}
		reply.PutOpaque(data)
		return nil
	})
	go func() { _ = srv.Serve(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sched := faultconn.New(faultconn.Profile{Seed: 7, Truncate: 1})
	c := sunrpc.NewClient(sched.WrapNet(nc), prog, vers)
	defer c.Close()
	err = c.Call(1,
		func(e *xdr.Encoder) { e.PutOpaque(make([]byte, 1024)) },
		func(d *xdr.Decoder) error { return nil })
	if err == nil {
		t.Fatal("call over a truncated record succeeded")
	}
	if sched.Counts().Truncated == 0 {
		t.Fatal("no truncation recorded")
	}
}

// A stalled peer accepts the request and never answers; the caller's
// deadline (not the transport) ends the wait, exactly like a lost
// reply but with the connection still up.
func TestStallStarvesUntilDeadline(t *testing.T) {
	client, sched, counter := newFaultyStack(t, faultconn.Profile{
		Seed:  13,
		Stall: 1, // every call stalls
	}, runtime.RobustOptions{
		ClientID:   12,
		AtMostOnce: true,
		Policy:     runtime.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := client.InvokeContext(ctx, "bump", []runtime.Value{int32(1)}, nil, nil)
	if err == nil {
		t.Fatal("call against a fully stalled peer succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from the stall, got %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("stalled call took %v to surface", took)
	}
	if counter.Load() != 0 {
		t.Fatal("stalled request reached the handler")
	}
	if c := sched.Counts(); c.Stalls == 0 {
		t.Fatalf("no stalls recorded: %+v", c)
	}
}

// A crash mid-call executes server-side, then tears the connection
// down before the reply lands: without retries the caller sees the
// disconnect and the counter still moved — the shape the reply cache
// exists to make safe.
func TestCrashMidCallExecutesThenDisconnects(t *testing.T) {
	client, sched, counter := newFaultyStack(t, faultconn.Profile{
		Seed:         5,
		CrashMidCall: 1,
	}, runtime.RobustOptions{
		ClientID: 13,
		Policy:   runtime.RetryPolicy{MaxAttempts: 1},
	})
	_, _, err := client.Invoke("bump", []runtime.Value{int32(1)}, nil, nil)
	if !errors.Is(err, faultconn.ErrDisconnected) {
		t.Fatalf("want ErrDisconnected from the crash, got %v", err)
	}
	if counter.Load() != 1 {
		t.Fatalf("counter = %d, want 1 (crash happens after execution)", counter.Load())
	}
	if c := sched.Counts(); c.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", c.Crashes)
	}
}

// A slow-loris reply delivers only a fragment: the session layer's
// CRC rejects it, and with retries enabled the at-most-once cache
// replays the intact original rather than re-executing.
func TestSlowLorisRetriesToCachedReply(t *testing.T) {
	client, sched, counter := newFaultyStack(t, faultconn.Profile{
		Seed:      21,
		SlowLoris: 0.5,
		DelayMin:  100 * time.Microsecond,
	}, runtime.RobustOptions{
		ClientID:   14,
		AtMostOnce: true,
		Policy: runtime.RetryPolicy{
			MaxAttempts: 30,
			BaseBackoff: 100 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			Seed:        21,
		},
	})
	const calls = 100
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, ret, err := client.InvokeContext(ctx, "bump", []runtime.Value{int32(1)}, nil, nil)
		cancel()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := ret.(int32); got != int32(i+1) {
			t.Fatalf("call %d: counter reply %d, want %d", i, got, i+1)
		}
	}
	if counter.Load() != calls {
		t.Fatalf("server executed %d times for %d calls", counter.Load(), calls)
	}
	if c := sched.Counts(); c.SlowLoris == 0 {
		t.Fatalf("no slow-loris faults recorded: %+v", c)
	}
}

// The byte-level slow-loris drips half a record in small chunks and
// dies; the Sun RPC client must surface an error, not wedge.
func TestNetConnSlowLorisSurfacesError(t *testing.T) {
	const prog, vers = 400101, 1
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := sunrpc.NewServer(prog, vers)
	srv.Register(1, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		data, derr := args.Opaque()
		if derr != nil {
			return sunrpc.ErrGarbageArgs
		}
		reply.PutOpaque(data)
		return nil
	})
	go func() { _ = srv.Serve(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sched := faultconn.New(faultconn.Profile{Seed: 8, SlowLoris: 1, DelayMin: 50 * time.Microsecond})
	c := sunrpc.NewClient(sched.WrapNet(nc), prog, vers)
	defer c.Close()
	err = c.Call(1,
		func(e *xdr.Encoder) { e.PutOpaque(make([]byte, 512)) },
		func(d *xdr.Decoder) error { return nil })
	if err == nil {
		t.Fatal("call over a slow-loris connection succeeded")
	}
	if sched.Counts().SlowLoris == 0 {
		t.Fatal("no slow-loris writes recorded")
	}
}

// Disconnect faults tear down the inner conn; the error surfaces to
// the caller rather than wedging.
func TestDisconnectSurfaces(t *testing.T) {
	client, sched, _ := newFaultyStack(t, faultconn.Profile{
		Seed:       4,
		Disconnect: 1, // first call tears the connection down
	}, runtime.RobustOptions{
		ClientID: 11,
		Policy:   runtime.RetryPolicy{MaxAttempts: 1},
	})
	_, _, err := client.Invoke("bump", []runtime.Value{int32(1)}, nil, nil)
	if !errors.Is(err, faultconn.ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	if c := sched.Counts(); c.Disconnects != 1 {
		t.Fatalf("disconnects = %d, want 1", c.Disconnects)
	}
}
