package inproc

import (
	"bytes"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

// storeIface: one in-buffer op and one out-buffer op, the shapes of
// the paper's Figures 10 and 11.
func storeIface(t *testing.T) *pres.Presentation {
	t.Helper()
	return parseStore(t, `
		interface Store {
			void put(in sequence<octet> data);
			void get(in unsigned long count, out sequence<octet> data);
			sequence<octet> fetch(in unsigned long count);
		};`)
}

// renamedStore is Store as a server might declare it: the operations
// in another order and get's parameters named n and buf. The contract
// is the same, since parameters pair by position.
func renamedStore(t *testing.T) *pres.Presentation {
	t.Helper()
	return parseStore(t, `
		interface Store {
			sequence<octet> fetch(in unsigned long count);
			void get(in unsigned long n, out sequence<octet> buf);
			void put(in sequence<octet> data);
		};`)
}

func parseStore(t *testing.T, src string) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("store.idl", src)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("Store"), pres.StyleCORBA)
}

type putProbe struct {
	sawSame    bool
	sawPrivate bool
	clientBuf  *byte
}

func connectPut(t *testing.T, clientPres, serverPres *pres.Presentation, probe *putProbe) *Conn {
	t.Helper()
	disp := runtime.NewDispatcher(serverPres)
	disp.Handle("put", func(c *runtime.Call) error {
		b := c.ArgBytes(0)
		probe.sawSame = len(b) > 0 && &b[0] == probe.clientBuf
		probe.sawPrivate = c.ArgPrivate(0)
		return nil
	})
	conn, err := Connect(clientPres, disp)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestInParamCopySemanticsByDefault(t *testing.T) {
	probe := &putProbe{}
	conn := connectPut(t, storeIface(t), storeIface(t), probe)
	data := []byte("hello")
	probe.clientBuf = &data[0]
	if _, _, err := conn.Invoke("put", []runtime.Value{data}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if probe.sawSame {
		t.Error("default semantics must copy the in buffer")
	}
	if !probe.sawPrivate {
		t.Error("copied buffer must be private to the server")
	}
}

func TestInParamBorrowWhenClientTrashable(t *testing.T) {
	cp := storeIface(t)
	cp.Op("put").Param("data").Trashable = true
	probe := &putProbe{}
	conn := connectPut(t, cp, storeIface(t), probe)
	data := []byte("hello")
	probe.clientBuf = &data[0]
	if _, _, err := conn.Invoke("put", []runtime.Value{data}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !probe.sawSame {
		t.Error("trashable in param should be borrowed, not copied")
	}
	if !probe.sawPrivate {
		t.Error("trashable borrow should still permit modification")
	}
}

func TestInParamBorrowWhenServerPreserves(t *testing.T) {
	sp := storeIface(t)
	sp.Op("put").Param("data").Preserved = true
	probe := &putProbe{}
	conn := connectPut(t, storeIface(t), sp, probe)
	data := []byte("hello")
	probe.clientBuf = &data[0]
	if _, _, err := conn.Invoke("put", []runtime.Value{data}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !probe.sawSame {
		t.Error("preserved in param should be borrowed")
	}
	if probe.sawPrivate {
		t.Error("preserved borrow must not permit modification")
	}
}

// Out-parameter allocation semantics, Figure 11's four groups.
func TestOutParamSemantics(t *testing.T) {
	serverOwned := []byte("server-owned buffer bytes")

	type outcome struct {
		aliasClientBuf bool // result landed in the client's buffer
		aliasServerBuf bool // result is the server's own buffer
	}
	run := func(t *testing.T, clientAlloc, serverAlloc pres.AllocPolicy, sp *pres.Presentation) outcome {
		cp := storeIface(t)
		cp.Op("get").Param("data").Alloc = clientAlloc
		sp.Op("get").Param(sp.Interface.Op("get").Params[1].Name).Alloc = serverAlloc

		disp := runtime.NewDispatcher(sp)
		disp.Handle("get", func(c *runtime.Call) error {
			count := int(c.Arg(0).(uint32))
			if buf := c.OutBuffer(1); buf != nil && serverAlloc != pres.AllocCallee {
				// Caller-provided buffer: fill in place.
				copy(buf, serverOwned)
				c.SetOut(1, buf[:count])
				return nil
			}
			// Serve from our own storage, as a callee-alloc server
			// always does.
			c.SetOut(1, serverOwned[:count])
			return nil
		})
		conn, err := Connect(cp, disp)
		if err != nil {
			t.Fatal(err)
		}
		clientBuf := make([]byte, 64)
		outBufs := make([][]byte, 2)
		outBufs[1] = clientBuf
		outs, _, err := conn.Invoke("get", []runtime.Value{uint32(10), nil}, outBufs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := outs[1].([]byte)
		if len(got) != 10 || !bytes.Equal(got, serverOwned[:10]) {
			t.Fatalf("data = %q", got)
		}
		return outcome{
			aliasClientBuf: &got[0] == &clientBuf[0],
			aliasServerBuf: &got[0] == &serverOwned[0],
		}
	}

	t.Run("neither cares: no copy", func(t *testing.T) {
		o := run(t, pres.AllocAuto, pres.AllocAuto, storeIface(t))
		if o.aliasClientBuf {
			t.Error("stub-alloc should not use the client's buffer")
		}
		if !o.aliasServerBuf {
			t.Error("stub-alloc should pass the produced buffer by reference")
		}
	})
	t.Run("server provides: no copy", func(t *testing.T) {
		o := run(t, pres.AllocAuto, pres.AllocCallee, storeIface(t))
		if !o.aliasServerBuf {
			t.Error("server's buffer should reach the client directly")
		}
	})
	t.Run("client provides: filled in place", func(t *testing.T) {
		o := run(t, pres.AllocCaller, pres.AllocAuto, storeIface(t))
		if !o.aliasClientBuf {
			t.Error("server should fill the client's buffer directly")
		}
	})
	for _, c := range []struct {
		name string
		sp   func(*testing.T) *pres.Presentation
	}{
		{"both insist: one stub copy", storeIface},
		{"both insist, server names the parameter buf: one stub copy", renamedStore},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := run(t, pres.AllocCaller, pres.AllocCallee, c.sp(t))
			if !o.aliasClientBuf {
				t.Error("copy semantics should land in the client's buffer")
			}
			if o.aliasServerBuf {
				t.Error("client must not see the server's buffer when both insist")
			}
		})
	}
}

func TestResultAllocationSemantics(t *testing.T) {
	serverOwned := []byte("0123456789abcdef")
	cp := storeIface(t)
	cp.Op("fetch").Result().Alloc = pres.AllocCaller
	sp := storeIface(t)
	sp.Op("fetch").Result().Alloc = pres.AllocCallee

	disp := runtime.NewDispatcher(sp)
	disp.Handle("fetch", func(c *runtime.Call) error {
		c.SetResult(serverOwned[:int(c.Arg(0).(uint32))])
		return nil
	})
	conn, err := Connect(cp, disp)
	if err != nil {
		t.Fatal(err)
	}
	retBuf := make([]byte, 32)
	_, ret, err := conn.Invoke("fetch", []runtime.Value{uint32(8)}, nil, retBuf)
	if err != nil {
		t.Fatal(err)
	}
	got := ret.([]byte)
	if &got[0] != &retBuf[0] {
		t.Error("both-insist result should be copied into the caller's buffer")
	}
	if string(got) != "01234567" {
		t.Fatalf("ret = %q", got)
	}
}

func TestContractMismatchRejected(t *testing.T) {
	f, err := corba.Parse("other.idl", `interface Store { void put(in string data); };`)
	if err != nil {
		t.Fatal(err)
	}
	other := pres.Default(f.Interface("Store"), pres.StyleCORBA)
	disp := runtime.NewDispatcher(other)
	if _, err := Connect(storeIface(t), disp); err == nil {
		t.Fatal("mismatched contracts must not bind")
	}
}

func TestDifferingPresentationsInteroperate(t *testing.T) {
	// The paper's core interop claim: any client presentation works
	// against any server presentation of the same contract. Exercise
	// the 2x2 of (default, trashable) x (default, preserved) clients
	// and servers and verify delivered bytes are identical.
	variants := func(isServer bool) []*pres.Presentation {
		a := storeIface(t)
		b := storeIface(t)
		if isServer {
			b.Op("put").Param("data").Preserved = true
		} else {
			b.Op("put").Param("data").Trashable = true
		}
		return []*pres.Presentation{a, b}
	}
	for ci, cp := range variants(false) {
		for si, sp := range variants(true) {
			var delivered []byte
			disp := runtime.NewDispatcher(sp)
			disp.Handle("put", func(c *runtime.Call) error {
				delivered = append([]byte(nil), c.ArgBytes(0)...)
				return nil
			})
			conn, err := Connect(cp, disp)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte("interop payload")
			if _, _, err := conn.Invoke("put", []runtime.Value{want}, nil, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(delivered, want) {
				t.Errorf("client %d x server %d: delivered %q", ci, si, delivered)
			}
		}
	}
}

func TestUnknownOpAndArity(t *testing.T) {
	disp := runtime.NewDispatcher(storeIface(t))
	conn, err := Connect(storeIface(t), disp)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Invoke("nosuch", nil, nil, nil); err == nil {
		t.Error("unknown op should fail")
	}
	if _, _, err := conn.Invoke("put", nil, nil, nil); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestInOutSameDomain(t *testing.T) {
	f, err := corba.Parse("io.idl", `
		interface Acc { void bump(inout long counter); };`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("Acc"), pres.StyleCORBA)
	disp := runtime.NewDispatcher(p)
	disp.Handle("bump", func(c *runtime.Call) error {
		c.SetOut(0, c.Arg(0).(int32)*2)
		return nil
	})
	conn, err := Connect(pres.Default(f.Interface("Acc"), pres.StyleCORBA), disp)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := conn.Invoke("bump", []runtime.Value{int32(21)}, nil, nil)
	if err != nil || outs[0].(int32) != 42 {
		t.Fatalf("outs = %v, %v", outs, err)
	}
}

func TestOutCopyFallsBackToAllocation(t *testing.T) {
	// Both sides insist but the client provided no landing buffer:
	// the stub still delivers a private copy.
	serverOwned := []byte("fallback data!")
	cp := storeIface(t)
	cp.Op("fetch").Result().Alloc = pres.AllocCaller
	sp := storeIface(t)
	sp.Op("fetch").Result().Alloc = pres.AllocCallee
	disp := runtime.NewDispatcher(sp)
	disp.Handle("fetch", func(c *runtime.Call) error {
		c.SetResult(serverOwned[:int(c.Arg(0).(uint32))])
		return nil
	})
	conn, err := Connect(cp, disp)
	if err != nil {
		t.Fatal(err)
	}
	_, ret, err := conn.Invoke("fetch", []runtime.Value{uint32(8)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := ret.([]byte)
	if &got[0] == &serverOwned[0] {
		t.Fatal("OutCopy must not alias the server's buffer")
	}
	if string(got) != "fallback" {
		t.Fatalf("ret = %q", got)
	}
}
