package shmring

import (
	"bytes"
	"os"
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

// Binding is part of the benchmark's setup_s cycle, so the two
// same-domain Connects are gated at their allocation counts on the
// benchmark's own interface and presentations. Neither compiles a
// server plan: that is the dispatcher's, compiled once.
func TestConnectAllocsBenchIDL(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	read := func(name string) string {
		b, err := os.ReadFile("../../../bench/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	compile := func(pdl string) *pres.Presentation {
		c, err := core.Compile(core.Options{
			Frontend: core.FrontendCORBA, Filename: "bench.idl", Source: read("bench.idl"),
			PDL: read(pdl), PDLFilename: pdl,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Pres
	}
	cp, disp := compile("client.pdl"), runtime.NewDispatcher(compile("server.pdl"))
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := inproc.Connect(cp, disp); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Errorf("inproc.Connect allocates %.0f times, want <= 8", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		b, err := Connect(cp, disp, runtime.XDRCodec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b.Close()
	}); allocs > 93 {
		t.Errorf("shmring.Connect allocates %.0f times, want <= 93", allocs)
	}
}
