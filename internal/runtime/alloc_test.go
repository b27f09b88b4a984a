package runtime

import (
	goruntime "runtime"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// statsSawCalls reports whether the snapshot counted calls for op.
func statsSawCalls(snap *stats.Snapshot, op string) bool {
	for _, o := range snap.Ops {
		if o.Name == op && o.Calls > 0 {
			return true
		}
	}
	return false
}

// The observability tentpole's contract: with stats disabled the
// whole message path — client marshal, dispatch, reply unmarshal —
// costs zero allocations per call, because "disabled" is one nil
// check. With stats enabled (counters, histograms, tracing) the
// documented bound is at most 2 allocations per call; in practice
// the atomic counters and the preallocated trace ring keep it at 0,
// and the gates below pin both numbers so a regression is loud.

func allocPres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("hot.idl", `
		interface Hot {
			void nop();
			void put(in sequence<octet> data);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("Hot"), pres.StyleCORBA)
}

// fixedConn answers every call with one canned reply frame, landing
// it in the caller's recycled reply buffer — a transport whose own
// cost is zero, isolating the runtime's marshal path in the gate.
type fixedConn struct{ reply []byte }

func (c *fixedConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	return append(replyBuf[:0], c.reply...), nil
}

func (c *fixedConn) Close() error { return nil }

// clientStack builds a marshal client over a canned-reply transport.
func clientStack(t *testing.T) *Client {
	t.Helper()
	p := allocPres(t)
	disp := NewDispatcher(p)
	disp.Handle("nop", func(c *Call) error { return nil })
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := XDRCodec.NewEncoder()
	disp.ServeMessage(plan, plan.OpIndex("nop"), nil, enc)
	client, err := NewClient(p, XDRCodec, &fixedConn{reply: append([]byte(nil), enc.Bytes()...)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func gateAllocs(t *testing.T, what string, bound float64, fn func()) {
	t.Helper()
	fn() // warm pools and grow reused buffers off the measured path
	if allocs := testing.AllocsPerRun(200, fn); allocs > bound {
		t.Fatalf("%s allocates %.1f times per call, want <= %.0f", what, allocs, bound)
	}
}

func TestClientNullCallZeroAllocsStatsOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	client := clientStack(t)
	gateAllocs(t, "stats-off null call", 0, func() {
		if _, _, err := client.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestClientNullCallBoundedAllocsStatsOn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	client := clientStack(t)
	client.EnableStats().EnableTracing(256)
	gateAllocs(t, "stats-on null call", 2, func() {
		if _, _, err := client.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if !statsSawCalls(client.Stats(), "nop") {
		t.Fatal("stats-on gate recorded no calls")
	}
}

// serverStack builds a dispatcher serve loop plus a marshaled 1KB
// put request, exercising the borrow-mode request decode.
func serverStack(t *testing.T) (*Dispatcher, *Plan, []byte, Encoder) {
	t.Helper()
	p := allocPres(t)
	disp := NewDispatcher(p)
	var seen int
	disp.Handle("nop", func(c *Call) error { return nil })
	disp.Handle("put", func(c *Call) error {
		seen += len(c.ArgBytes(0))
		return nil
	})
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := XDRCodec.NewEncoder()
	if err := plan.Ops[plan.OpIndex("put")].EncodeRequest(enc, []Value{make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), enc.Bytes()...)
	return disp, plan, body, XDRCodec.NewEncoder()
}

func TestServerNullCallZeroAllocsStatsOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp, plan, _, enc := serverStack(t)
	idx := plan.OpIndex("nop")
	gateAllocs(t, "stats-off server null call", 0, func() {
		enc.Reset()
		disp.ServeMessage(plan, idx, nil, enc)
	})
}

// The borrow-mode 1KB put costs nothing on the server message path
// with stats on or off: the borrowed []byte lands in the Call's byte
// slot as a slice, ArgBytes reads it there, and nothing boxes it. The
// payload itself is not copied, and the observability layer adds
// nothing.
func TestServerBorrowPutAllocsStatsOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp, plan, body, enc := serverStack(t)
	idx := plan.OpIndex("put")
	gateAllocs(t, "stats-off server 1KB put", 0, func() {
		enc.Reset()
		disp.ServeMessage(plan, idx, body, enc)
	})
}

// A work function's SetOut and SetResult allocate nothing: the Call
// keeps a value's contents, not its box, so the box a work function
// builds for c.SetOut(i, blob[:n]) or a scalar stays on its own stack,
// and the reply encodes from the Call's slots.
func TestServerSetOutZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	f, err := corba.Parse("get.idl", `
		interface Get {
			sequence<octet> get(in unsigned long n, out sequence<octet> data, out unsigned long long sum);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("Get"), pres.StyleCORBA)
	blob := make([]byte, 1024)
	disp := NewDispatcher(p)
	disp.Handle("get", func(c *Call) error {
		n := c.Arg(0).(uint32)
		c.SetOut(1, blob[:n])
		c.SetOut(2, uint64(n)<<40) // a box of its own, were it kept
		c.SetResult(blob[n:])
		return nil
	})
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := XDRCodec.NewEncoder()
	body := []byte{0, 0, 0, 100} // n = 100 boxes for free
	gateAllocs(t, "server get setting two outs and a result", 0, func() {
		enc.Reset()
		disp.ServeMessage(plan, 0, body, enc)
	})
}

func TestServerBorrowPutBoundedAllocsStatsOn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp, plan, body, enc := serverStack(t)
	disp.EnableStats()
	idx := plan.OpIndex("put")
	gateAllocs(t, "stats-on server 1KB put", 0, func() {
		enc.Reset()
		disp.ServeMessage(plan, idx, body, enc)
	})
	if !statsSawCalls(disp.Stats(), "put") {
		t.Fatal("stats-on gate recorded no calls")
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the average
// bytes f allocates over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// NewRobustConn runs once per client connection, twice per TCP set-up
// cycle of the benchmark: it allocates the conn and its two by-op flag
// tables, and its jitter source is a word of state, not a seeded
// generator.
func TestNewRobustConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	p := clockPres(t)
	conn := &fixedConn{}
	newConn := func() { NewRobustConn(conn, p, RobustOptions{ClientID: 1, Policy: RetryPolicy{Seed: 5}}) }
	if allocs := testing.AllocsPerRun(50, newConn); allocs > 3 {
		t.Errorf("NewRobustConn allocates %.0f times, want <= 3", allocs)
	}
	if n := bytesPerRun(50, newConn); n > 640 {
		t.Errorf("NewRobustConn allocates %d bytes, want <= 640", n)
	}
}
