package inproc

import (
	"errors"
	"os"
	"testing"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

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

// A mixBed is the benchmark's samedomain stack: bench.idl bound over
// inproc under client.pdl and server.pdl, with work functions shaped
// like the benchmark's — put reads its buffer and, being [trashable],
// writes into it; fetch returns a slice of the server's table, which
// lands in the caller's buffer, and sets it as the benchmark's does:
// c.SetResult(blob[:n]), a box the work function builds on every call.
type mixBed struct {
	conn   *Conn
	blob   []byte
	put    []runtime.Value // put's args: a 1 KiB buffer
	fetch  []runtime.Value // fetch's args: n = 1000
	retBuf []byte
	sum    int
}

func newMixBed(tb testing.TB) *mixBed {
	tb.Helper()
	bed := &mixBed{
		blob:   make([]byte, 1<<10),
		put:    []runtime.Value{make([]byte, 1<<10)},
		fetch:  []runtime.Value{uint32(1000)},
		retBuf: make([]byte, 1<<10),
	}
	for i := range bed.blob {
		bed.blob[i] = byte(i)
	}
	disp := runtime.NewDispatcher(benchPres(tb, "server.pdl"))
	disp.Handle("nop", func(c *runtime.Call) error { return nil })
	disp.Handle("put", func(c *runtime.Call) error {
		data := c.ArgBytes(0)
		bed.sum += len(data)
		if c.ArgPrivate(0) && len(data) > 8 {
			data[8]++
		}
		return nil
	})
	disp.Handle("fetch", func(c *runtime.Call) error {
		n := c.Arg(0).(uint32)
		if n != 1000 {
			return errors.New("fetch: n is not 1000")
		}
		c.SetResult(bed.blob[:n])
		return nil
	})
	conn, err := Connect(benchPres(tb, "client.pdl"), disp)
	if err != nil {
		tb.Fatal(err)
	}
	bed.conn = conn
	return bed
}

// call issues the i-th call of the samedomain mix, nop/put/fetch at
// 50/25/25: nop, put, nop, fetch, repeated.
func (bed *mixBed) call(inv runtime.Invoker, i int) error {
	var err error
	switch i % 4 {
	case 0, 2:
		_, _, err = inv.Invoke("nop", nil, nil, nil)
	case 1:
		_, _, err = inv.Invoke("put", bed.put, nil, nil)
	case 3:
		var ret runtime.Value
		_, ret, err = inv.Invoke("fetch", bed.fetch, nil, bed.retBuf)
		if b, _ := ret.([]byte); err == nil && len(b) != 1000 {
			panic("fetch returned the wrong length")
		}
	}
	return err
}

// BenchmarkSameDomainMix times one call of the benchmark's samedomain
// mix through the Invoker interface, as the benchmark's caller makes
// it. Compare a change with its parent by running
//
//	go test -run '^$' -bench SameDomainMix -benchmem -count 10 ./internal/transport/inproc
//
// in both checkouts, alternating, and comparing the medians.
func BenchmarkSameDomainMix(b *testing.B) {
	bed := newMixBed(b)
	var inv runtime.Invoker = bed.conn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bed.call(inv, i); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchIDLCallAllocs gates the call path at the benchmark's own
// interface and presentations: nop and the [trashable] put allocate
// nothing, and fetch allocates exactly one thing — the box of the
// caller-buffer slice it returns. The box of the result its work
// function sets stays on the work function's stack: the Call keeps the
// slice, not the box.
func TestBenchIDLCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	bed := newMixBed(t)
	var inv runtime.Invoker = bed.conn
	for _, tc := range []struct {
		name string
		i    int // the call's position in the mix
		want float64
	}{{"nop", 0, 0}, {"put", 1, 0}, {"fetch", 3, 1}} {
		if err := bed.call(inv, tc.i); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			if err := bed.call(inv, tc.i); err != nil {
				t.Fatal(err)
			}
		}); got != tc.want {
			t.Errorf("%s allocates %.1f times per call, want %.0f", tc.name, got, tc.want)
		}
	}
}
