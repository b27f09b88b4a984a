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
