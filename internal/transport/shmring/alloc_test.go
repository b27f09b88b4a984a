package shmring

import (
	"bytes"
	"os"
	goruntime "runtime"
	"testing"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/inproc"
)

// The allocation gates pin the steady-state promise of the bind-time
// path: a null RPC over the ring — inline or through the doorbell
// handoff — allocates nothing, and a bulk trusted put stays zero-alloc
// too (the payload is produced directly into the leased slot's arena).

func allocGate(t *testing.T, m mode, bound float64, f func(b *Bound)) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	b, _ := connectMode(t, m)
	for i := 0; i < 100; i++ {
		f(b) // warm the frame pool and grow reused buffers
	}
	if allocs := testing.AllocsPerRun(200, func() { f(b) }); allocs > bound {
		t.Fatalf("%s allocates %.1f times per call, want <= %.0f", m.name, allocs, bound)
	}
}

func TestNullCallZeroAllocsInline(t *testing.T) {
	allocGate(t, modes()[0], 0, func(b *Bound) {
		if _, _, err := b.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNullCallZeroAllocsDoorbell(t *testing.T) {
	allocGate(t, modes()[1], 0, func(b *Bound) {
		if _, _, err := b.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// The 1KB trusted put allocates nothing end to end, inline or through
// the doorbell: the payload is produced into the slot arena and
// borrow-decoded in place, never copied, and the borrowed []byte lands
// in the Call's byte slot as a slice — nothing boxes it into a Value.
func borrowPutGate(t *testing.T, m mode) {
	// args built once: the gate measures the call path, not the
	// caller's own argument boxing.
	args := []runtime.Value{bytes.Repeat([]byte{0x42}, 1024)}
	allocGate(t, m, 0, func(b *Bound) {
		if _, _, err := b.Invoke("put", args, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBorrowPutZeroAllocsInline(t *testing.T)   { borrowPutGate(t, modes()[0]) }
func TestBorrowPutZeroAllocsDoorbell(t *testing.T) { borrowPutGate(t, modes()[1]) }

// benchPres compiles the repository benchmark's contract under one of
// its endpoint PDLs.
func benchPres(tb testing.TB, pdl string) *pres.Presentation {
	tb.Helper()
	read := func(name string) string {
		b, err := os.ReadFile("../../../bench/" + name)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "bench.idl", Source: read("bench.idl"),
		PDL: read(pdl), PDLFilename: pdl,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c.Pres
}

// TestBenchIDLCallAllocsInline gates the inline call path at the
// benchmark's own interface and presentations, with work functions that
// set their results as the benchmark's do: a fresh slice of the server's
// table for fetch, an attr struct for getattr. nop and the [trashable]
// put allocate nothing; fetch allocates its request scalar's box on the
// server and the box of the caller-buffer slice it returns; getattr its
// reply's one block. Neither result's box is among them: the Call keeps
// what a work function sets, not its box.
func TestBenchIDLCallAllocsInline(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	blob := bytes.Repeat([]byte{0x5A}, 2<<10)
	attrs := [][]runtime.Value{make([]runtime.Value, 16), {uint32(0644), uint32(1000), uint32(1000), uint32(1000),
		uint64(1 << 20), uint64(1 << 20), uint64(777), uint64(31337), uint32(300), uint32(4096),
		int64(1 << 40), int64(1 << 41), int64(1 << 42), true, 0.5, "a-file-name"}}
	disp := runtime.NewDispatcher(benchPres(t, "server.pdl"))
	disp.Handle("nop", func(c *runtime.Call) error { return nil })
	disp.Handle("put", func(c *runtime.Call) error {
		if data := c.ArgBytes(0); c.ArgPrivate(0) && len(data) > 8 {
			data[8]++
		}
		return nil
	})
	disp.Handle("fetch", func(c *runtime.Call) error {
		n := c.Arg(0).(uint32)
		off := int(n % 61)
		c.SetResult(blob[off : off+int(n)])
		return nil
	})
	disp.Handle("getattr", func(c *runtime.Call) error {
		c.SetResult(attrs[c.Arg(0).(uint32)])
		return nil
	})
	b, err := Connect(benchPres(t, "client.pdl"), disp, runtime.XDRCodec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.InlineDispatch() {
		t.Fatal("the benchmark's presentations did not bind inline")
	}
	retBuf := make([]byte, 2<<10)
	for _, tc := range []struct {
		op     string
		args   []runtime.Value // built once: the gate measures the call, not the caller's boxing
		retBuf []byte
		want   float64
	}{
		{"nop", nil, nil, 0},
		{"put", []runtime.Value{make([]byte, 1<<10)}, nil, 0},
		{"fetch", []runtime.Value{uint32(1000)}, retBuf, 2},
		{"getattr", []runtime.Value{uint32(1)}, nil, 1}, // a handle below 256 boxes for free
	} {
		call := func() {
			if _, _, err := b.Invoke(tc.op, tc.args, nil, tc.retBuf); err != nil {
				t.Fatal(tc.op, err)
			}
		}
		call()
		if got := testing.AllocsPerRun(200, call); got != tc.want {
			t.Errorf("%s allocates %.1f times per call, want %.0f", tc.op, got, tc.want)
		}
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

// Binding is part of the benchmark's setup_s cycle, so the two
// same-domain Connects are gated at their allocation counts on the
// benchmark's own interface and presentations. Neither compiles a
// server plan: that is the dispatcher's, compiled once. The benchmark's
// presentations are [trusted] on both sides, so shmring.Connect binds
// inline and builds no ring: the count is the client plan, the two
// arenas, the same-domain program and the marshal state. Neither the
// plan nor the program builds a name index: an op name resolves by a
// scan.
func TestConnectAllocsBenchIDL(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	cp, disp := benchPres(t, "client.pdl"), runtime.NewDispatcher(benchPres(t, "server.pdl"))
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := inproc.Connect(cp, disp); err != nil {
			t.Fatal(err)
		}
	}); allocs > 7 {
		t.Errorf("inproc.Connect allocates %.0f times, want <= 7", allocs)
	}
	connect := func() {
		b, err := Connect(cp, disp, runtime.XDRCodec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !b.InlineDispatch() {
			t.Fatal("the benchmark's presentations did not bind inline")
		}
		b.Close()
	}
	if allocs := testing.AllocsPerRun(50, connect); allocs > 24 {
		t.Errorf("shmring.Connect allocates %.0f times, want <= 24", allocs)
	}
	if n := bytesPerRun(50, connect); n > 14<<10 {
		t.Errorf("shmring.Connect allocates %d bytes, want <= %d", n, 14<<10)
	}
}

// BenchmarkConnect times one inline shmring bind of the benchmark's
// contract as its set-up cycle binds it: a fresh dispatcher, so the
// server plan compiles too, and Connect. Run it against another commit
// with
//
//	go test -run '^$' -bench Connect -benchmem -count 10 ./internal/transport/shmring
//
// and compare the two with benchstat or by median.
func BenchmarkConnect(b *testing.B) {
	cp, sp := benchPres(b, "client.pdl"), benchPres(b, "server.pdl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd, err := Connect(cp, runtime.NewDispatcher(sp), runtime.XDRCodec, Options{})
		if err != nil {
			b.Fatal(err)
		}
		bd.Close()
	}
}
