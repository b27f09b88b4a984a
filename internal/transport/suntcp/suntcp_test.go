package suntcp

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"flexrpc/internal/core"
	"flexrpc/internal/netsim"
	"flexrpc/internal/runtime"
	"flexrpc/internal/sunrpc"
)

const echoX = `
program ECHO_PROG {
	version ECHO_VERS {
		opaque_res ECHO(opaque_arg) = 1;
		int SUM(int, int) = 2;
	} = 1;
} = 200451;

typedef opaque opaque_arg<>;
typedef opaque opaque_res<>;
`

func compileEcho(t *testing.T) *core.Compiled {
	t.Helper()
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendSunXDR,
		Filename: "echo.x",
		Source:   echoX,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startServer(t *testing.T, c *core.Compiled) (client *runtime.Client) {
	t.Helper()
	disp := runtime.NewDispatcher(c.Pres)
	disp.Handle("ECHO", func(call *runtime.Call) error {
		call.SetResult(append([]byte(nil), call.ArgBytes(0)...))
		return nil
	})
	disp.Handle("SUM", func(call *runtime.Call) error {
		call.SetResult(call.Arg(0).(int32) + call.Arg(1).(int32))
		return nil
	})
	srv, err := NewServer(disp)
	if err != nil {
		t.Fatal(err)
	}
	cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
	go func() { _ = srv.ServeConn(sc) }()
	t.Cleanup(func() { cc.Close(); sc.Close() })

	conn := Dial(cc, c.Pres)
	cl, err := runtime.NewClient(c.Pres, runtime.XDRCodec, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestEchoOverSunRPC(t *testing.T) {
	client := startServer(t, compileEcho(t))
	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 100)
	_, ret, err := client.Invoke("ECHO", []runtime.Value{payload}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ret.([]byte), payload) {
		t.Fatal("echo mismatch")
	}
	_, ret, err = client.Invoke("SUM", []runtime.Value{int32(20), int32(22)}, nil, nil)
	if err != nil || ret.(int32) != 42 {
		t.Fatalf("sum = %v, %v", ret, err)
	}
}

func TestProcNumbersFromXFile(t *testing.T) {
	c := compileEcho(t)
	if c.Iface.Program != 200451 || c.Iface.Version != 1 {
		t.Fatalf("prog/vers = %d/%d", c.Iface.Program, c.Iface.Version)
	}
	echo := c.Iface.Op("ECHO")
	if procFor(echo, 0) != 1 {
		t.Fatalf("ECHO proc = %d", procFor(echo, 0))
	}
}

func TestOverRealTCP(t *testing.T) {
	c := compileEcho(t)
	disp := runtime.NewDispatcher(c.Pres)
	disp.Handle("ECHO", func(call *runtime.Call) error {
		call.SetResult(append([]byte(nil), call.ArgBytes(0)...))
		return nil
	})
	srv, err := NewServer(disp)
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	client, err := runtime.NewClient(c.Pres, runtime.XDRCodec, Dial(nc, c.Pres), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tcp!"), 2048)
	_, ret, err := client.Invoke("ECHO", []runtime.Value{payload}, nil, nil)
	if err != nil || !bytes.Equal(ret.([]byte), payload) {
		t.Fatalf("echo over tcp failed: %v", err)
	}
}

func TestWrongProgramRejected(t *testing.T) {
	c := compileEcho(t)
	disp := runtime.NewDispatcher(c.Pres)
	srv, err := NewServer(disp)
	if err != nil {
		t.Fatal(err)
	}
	cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 16)
	defer cc.Close()
	defer sc.Close()
	go func() { _ = srv.ServeConn(sc) }()

	// A client speaking a different interface (different program
	// number) is refused by the Sun RPC layer itself.
	other := c.Pres.Clone()
	otherIface := *c.Iface
	otherIface.Program = 999999
	other.Interface = &otherIface
	client, err := runtime.NewClient(other, runtime.XDRCodec, Dial(cc, other), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = client.Invoke("ECHO", []runtime.Value{[]byte("x")}, nil, nil)
	var remote *sunrpc.RemoteError
	if !errors.As(err, &remote) || remote.Stat != sunrpc.ProgUnavail {
		t.Fatalf("err = %v, want ProgUnavail", err)
	}
}

func TestDefaultProgramForCORBAInterfaces(t *testing.T) {
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA,
		Filename: "f.idl",
		Source:   `interface F { void op(in long x); };`,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, vers := progVers(c.Iface)
	if prog != DefaultProgram || vers != 1 {
		t.Fatalf("prog/vers = %d/%d", prog, vers)
	}
	op := c.Iface.Op("op")
	if procFor(op, 0) != 1 {
		t.Fatalf("proc = %d (proc 0 is reserved for null)", procFor(op, 0))
	}
}
