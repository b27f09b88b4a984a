package inproc

import (
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

// hotIface covers the two shapes the zero-alloc gate promises: a
// null call and a bulk borrow-mode put.
func hotIface(t *testing.T) *pres.Presentation {
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

func TestNullCallZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp := runtime.NewDispatcher(hotIface(t))
	disp.Handle("nop", func(c *runtime.Call) error { return nil })
	conn, err := Connect(hotIface(t), disp)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Invoke("nop", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := conn.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("null call allocates %.1f times per call, want 0", allocs)
	}
}

func TestBorrowPutZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	cp := hotIface(t)
	cp.Op("put").Param("data").Trashable = true
	disp := runtime.NewDispatcher(hotIface(t))
	var seen int
	disp.Handle("put", func(c *runtime.Call) error {
		seen += len(c.ArgBytes(0))
		return nil
	})
	conn, err := Connect(cp, disp)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	args := []runtime.Value{data}
	if _, _, err := conn.Invoke("put", args, nil, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := conn.Invoke("put", args, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("1KB borrow-mode put allocates %.1f times per call, want 0", allocs)
	}
	if seen == 0 {
		t.Fatal("handler never saw the data")
	}
}

// With stats enabled — counters, latency histogram, trace ring — the
// documented bound is at most 2 allocations per call; the atomic
// counters and preallocated ring keep the measured number at 0.
func TestNullCallBoundedAllocsStatsOn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp := runtime.NewDispatcher(hotIface(t))
	disp.Handle("nop", func(c *runtime.Call) error { return nil })
	conn, err := Connect(hotIface(t), disp)
	if err != nil {
		t.Fatal(err)
	}
	conn.EnableStats().EnableTracing(256)
	if _, _, err := conn.Invoke("nop", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := conn.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("stats-on null call allocates %.1f times per call, want <= 2", allocs)
	}
	if snap := conn.EnableStats().Snapshot(); len(snap.Ops) == 0 || snap.Ops[0].Calls == 0 {
		t.Fatal("stats-on gate recorded no calls")
	}
}
