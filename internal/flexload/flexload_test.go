package flexload

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

const loadIDL = `
	interface Load {
	    void nop();
	    long ping(in long x);
	};`

func loadPres(t testing.TB) *pres.Presentation {
	t.Helper()
	compiled, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "load.idl", Source: loadIDL,
	})
	if err != nil {
		t.Fatal(err)
	}
	return compiled.Pres
}

// virtualWorld is the deterministic target: an at-most-once session
// server whose nop handler advances the FakeClock by a seeded virtual
// service time, fronted (optionally) by a shed injector that answers
// every shedEvery-th call with a pushback frame.
type virtualWorld struct {
	p     *pres.Presentation
	sess  *runtime.SessionServer
	fc    *runtime.FakeClock
	srv   *stats.Endpoint
	every int
}

func newVirtualWorld(t testing.TB, fc *runtime.FakeClock, serviceSeed int64, shedEvery int, svcBase, svcJitter time.Duration) *virtualWorld {
	t.Helper()
	p := loadPres(t)
	disp := runtime.NewDispatcher(p)
	svc := rand.New(rand.NewSource(serviceSeed))
	disp.Handle("nop", func(c *runtime.Call) error {
		// Virtual service time, seeded. The advance is charged to the
		// global clock, so total virtual capacity is 1/(base+jitter/2)
		// calls per second regardless of client count. Because the
		// deterministic engine is single-threaded, the handler's rng
		// is consumed in a reproducible order.
		fc.Advance(svcBase + time.Duration(svc.Int63n(int64(svcJitter))))
		return nil
	})
	plan, err := runtime.NewPlan(p, runtime.XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &virtualWorld{
		p:     p,
		sess:  runtime.NewSessionServer(disp, plan, runtime.NewReplyCacheSharded(256, 1)),
		fc:    fc,
		srv:   stats.New(nil),
		every: shedEvery,
	}
}

// sessConn loops session frames into the server, shedding every n-th
// call with an overload pushback when n > 0.
type sessConn struct {
	w     *virtualWorld
	count int
}

func (c *sessConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	c.count++
	if c.w.every > 0 && c.count%c.w.every == 0 {
		c.w.srv.Add(stats.Sheds, 1)
		return runtime.AppendPushbackFrame(replyBuf[:0], false, 2*time.Millisecond), nil
	}
	frame := c.w.sess.Handle(context.Background(), opIdx, req)
	return append(replyBuf[:0], frame...), nil
}

func (c *sessConn) Close() error { return nil }

func detRobust() *runtime.RobustOptions {
	return &runtime.RobustOptions{
		AtMostOnce: true,
		Policy: runtime.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 500 * time.Microsecond,
			MaxBackoff:  4 * time.Millisecond,
		},
	}
}

// TestDeterministicClosedLoopByteIdentical is the determinism gate:
// two closed-loop runs with the same seed and a FakeClock produce
// byte-identical reports — percentiles, retries, pushbacks, sheds and
// all — even with retry backoff and shed pushbacks in play.
func TestDeterministicClosedLoopByteIdentical(t *testing.T) {
	runOnce := func() *Report {
		fc := runtime.NewFakeClock()
		// Fast virtual service (20–60µs): the serialized service
		// advances must leave room for every client to make dozens of
		// calls inside the window, so the every-5th shed injector
		// actually fires on each connection.
		w := newVirtualWorld(t, fc, 99, 5, 20*time.Microsecond, 40*time.Microsecond)
		rep, err := Run(Target{
			Dial: func(id int) (runtime.Conn, error) { return &sessConn{w: w}, nil },
			Pres: w.p,
			Op:   "nop",
		}, Options{
			Clients:       32,
			Mode:          Closed,
			Think:         2 * time.Millisecond,
			Warmup:        5 * time.Millisecond,
			Measure:       50 * time.Millisecond,
			Cooldown:      5 * time.Millisecond,
			Clock:         fc,
			Seed:          1234,
			Robust:        detRobust(),
			ServerStats:   w.srv,
			SLO:           20 * time.Millisecond,
			Deterministic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	a, b := runOnce(), runOnce()
	ja, jb := a.JSON(), b.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed, different reports:\n--- run 1\n%s--- run 2\n%s", ja, jb)
	}
	if a.Completed == 0 || a.Issued == 0 {
		t.Fatalf("no traffic measured: %s", ja)
	}
	if a.Pushbacks == 0 || a.Retries == 0 || a.Sheds == 0 {
		t.Fatalf("shed injection exercised no retries: pushbacks=%d retries=%d sheds=%d",
			a.Pushbacks, a.Retries, a.Sheds)
	}
	if a.P50Ns <= 0 || a.P99Ns < a.P50Ns || a.P999Ns < a.P99Ns {
		t.Fatalf("percentile order broken: p50=%d p99=%d p999=%d", a.P50Ns, a.P99Ns, a.P999Ns)
	}
	if a.Errors != 0 {
		t.Fatalf("taxonomy violations under clean virtual server: %d errors", a.Errors)
	}
}

// TestDeterministicOpenLoopOverload drives the open loop at 4× the
// virtual server's capacity: the generator must keep offering on
// schedule (it is never the bottleneck — the backlog grows instead),
// queue depth must hit the configured cap and overflow must be
// counted, latency must reflect queue wait, and the whole overloaded
// run must still be byte-reproducible.
func TestDeterministicOpenLoopOverload(t *testing.T) {
	const (
		rate     = 4000.0 // calls/sec offered
		measure  = 100 * time.Millisecond
		maxQueue = 16
	)
	runOnce := func() *Report {
		fc := runtime.NewFakeClock()
		// ~1ms service → capacity ~1000/s, a 4× overload at rate 4000/s.
		w := newVirtualWorld(t, fc, 7, 0, 500*time.Microsecond, time.Millisecond)
		rep, err := Run(Target{
			Dial: func(id int) (runtime.Conn, error) { return &sessConn{w: w}, nil },
			Pres: w.p,
			Op:   "nop",
		}, Options{
			Clients:       8,
			Mode:          Open,
			Rate:          rate,
			Measure:       measure,
			Clock:         fc,
			Seed:          777,
			Robust:        detRobust(),
			ServerStats:   w.srv,
			MaxQueue:      maxQueue,
			Deterministic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	a, b := runOnce(), runOnce()
	if ja, jb := a.JSON(), b.JSON(); !bytes.Equal(ja, jb) {
		t.Fatalf("overloaded open loop not reproducible:\n--- run 1\n%s--- run 2\n%s", ja, jb)
	}

	// The schedule keeps offering through the overload: the Poisson
	// count must sit near rate × window, far above what the server
	// completed.
	expect := rate * measure.Seconds()
	if f := float64(a.Offered); f < 0.7*expect || f > 1.3*expect {
		t.Fatalf("offered %d, want ≈%.0f: the generator throttled itself under overload", a.Offered, expect)
	}
	if a.Issued >= a.Offered {
		t.Fatalf("issued %d ≥ offered %d in a 4× overload: no backlog formed", a.Issued, a.Offered)
	}
	// Queue-depth assertion: the backlog hit the cap, overflow was
	// counted rather than silently dropped, and measured latency
	// includes the queue wait (well past the ~1ms service time).
	if a.QueueMax != maxQueue {
		t.Fatalf("queue max %d, want cap %d", a.QueueMax, maxQueue)
	}
	if a.QueueDrops == 0 {
		t.Fatal("queue overflow not counted")
	}
	if a.P99Ns < int64(5*time.Millisecond) {
		t.Fatalf("p99 %v under 4× overload: latency not measured from scheduled arrival",
			time.Duration(a.P99Ns))
	}
}

// TestWallClockSmoke exercises the concurrent wall-clock driver end
// to end: real goroutines, real sleeps, a real (loopback) session
// server — goodput must be nonzero and error-free.
func TestWallClockSmoke(t *testing.T) {
	fc := runtime.NewFakeClock() // only for the virtual service rng gate; not used
	_ = fc
	p := loadPres(t)
	disp := runtime.NewDispatcher(p)
	disp.Handle("nop", func(c *runtime.Call) error { return nil })
	plan, err := runtime.NewPlan(p, runtime.XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := runtime.NewSessionServer(disp, plan, runtime.NewReplyCache(1024))
	w := &virtualWorld{p: p, sess: sess, srv: stats.New(nil)}

	rep, err := Run(Target{
		Dial: func(id int) (runtime.Conn, error) { return &sessConn{w: w}, nil },
		Pres: p,
		Op:   "nop",
	}, Options{
		Clients: 64,
		Mode:    Closed,
		Think:   time.Millisecond,
		Warmup:  5 * time.Millisecond,
		Measure: 50 * time.Millisecond,
		Seed:    1,
		Robust:  detRobust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 || rep.GoodputPerSec == 0 {
		t.Fatalf("wall-clock run produced no goodput: %s", rep.JSON())
	}
	if rep.Errors != 0 {
		t.Fatalf("wall-clock run saw %d errors", rep.Errors)
	}
}
