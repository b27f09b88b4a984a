package machipc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/mach"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

func fileIOPres(t *testing.T) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("fileio.idl", `
		interface FileIO {
			sequence<octet> read(in unsigned long count);
			void write(in sequence<octet> data);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("FileIO"), pres.StyleCORBA)
}

// startFileServer runs a simple buffer server over machipc and
// returns a dial-ready (client task, right) pair.
func startFileServer(t *testing.T, serverPres *pres.Presentation) (*mach.Kernel, *mach.Task, mach.Name, *mach.Port) {
	t.Helper()
	k := mach.NewKernel()
	srvTask := k.NewTask("server")
	cliTask := k.NewTask("client")
	_, port := srvTask.AllocatePort()

	disp := runtime.NewDispatcher(serverPres)
	var stored []byte
	disp.Handle("write", func(c *runtime.Call) error {
		stored = append(stored[:0], c.ArgBytes(0)...)
		return nil
	})
	disp.Handle("read", func(c *runtime.Call) error {
		n := int(c.Arg(0).(uint32))
		if n > len(stored) {
			n = len(stored)
		}
		out := make([]byte, n)
		copy(out, stored)
		c.SetResult(out)
		return nil
	})
	Announce(port, serverPres)
	go func() { _ = Serve(srvTask, port, disp, runtime.XDRCodec) }()
	t.Cleanup(port.Destroy)
	right := cliTask.InsertRight(port)
	return k, cliTask, right, port
}

func TestEndToEnd(t *testing.T) {
	p := fileIOPres(t)
	_, cliTask, right, _ := startFileServer(t, p)
	conn, err := Dial(cliTask, right, fileIOPres(t))
	if err != nil {
		t.Fatal(err)
	}
	client, err := runtime.NewClient(fileIOPres(t), runtime.XDRCodec, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("pipe"), 256)
	if _, _, err := client.Invoke("write", []runtime.Value{payload}, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, ret, err := client.Invoke("read", []runtime.Value{uint32(len(payload))}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ret.([]byte), payload) {
		t.Fatalf("read back %d bytes, want %d", len(ret.([]byte)), len(payload))
	}
}

func TestContractEnforcedAtBind(t *testing.T) {
	_, cliTask, right, _ := startFileServer(t, fileIOPres(t))
	f, err := corba.Parse("other.idl", `
		interface FileIO { void write(in string data); };`)
	if err != nil {
		t.Fatal(err)
	}
	wrong := pres.Default(f.Interface("FileIO"), pres.StyleCORBA)
	if _, err := Dial(cliTask, right, wrong); !errors.Is(err, mach.ErrContract) {
		t.Fatalf("err = %v, want contract mismatch", err)
	}
}

func TestDifferentPresentationsSameContractBind(t *testing.T) {
	// A [dealloc(never), leaky] server still accepts a default
	// client: presentation must never leak into the contract.
	sp := fileIOPres(t)
	sp.Op("read").Result().Dealloc = pres.DeallocNever
	sp.Trust = pres.TrustLeaky
	_, cliTask, right, _ := startFileServer(t, sp)
	cp := fileIOPres(t)
	cp.Trust = pres.TrustFull
	conn, err := Dial(cliTask, right, cp)
	if err != nil {
		t.Fatal(err)
	}
	client, err := runtime.NewClient(cp, runtime.XDRCodec, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Invoke("write", []runtime.Value{[]byte("x")}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigForMapsTrustAndNaming(t *testing.T) {
	p := fileIOPres(t)
	for _, trust := range []pres.Trust{pres.TrustNone, pres.TrustLeaky, pres.TrustFull} {
		p.Trust = trust
		if got := SigFor(p).Trust; got != trust {
			t.Fatalf("trust %v mapped to %v", trust, got)
		}
	}
	// An endpoint that moves no right relaxes naming vacuously; the flag
	// only picks how moved rights are inserted.
	if !SigFor(p).NonUniquePorts {
		t.Fatal("portless endpoint keeps unique names")
	}

	// nonunique on a port param flips the connection flag.
	f, err := corba.Parse("cap.idl", `
		interface Caps { void grant(in Object which); };`)
	if err != nil {
		t.Fatal(err)
	}
	cp := pres.Default(f.Interface("Caps"), pres.StyleCORBA)
	if SigFor(cp).NonUniquePorts {
		t.Fatal("unannotated port relaxed naming")
	}
	cp.Op("grant").Param("which").NonUnique = true
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	if !SigFor(cp).NonUniquePorts {
		t.Fatal("nonunique not mapped")
	}
}

// The signature's naming flag covers every right the connection moves,
// so an endpoint that annotated one of its two ports must keep unique
// names: the same right sent twice lands under one name.
func TestOneAnnotatedPortKeepsUniqueNames(t *testing.T) {
	f, err := corba.Parse("cap.idl", `
		interface Caps { void grant(in Object loose, in Object strict); };`)
	if err != nil {
		t.Fatal(err)
	}
	sp := pres.Default(f.Interface("Caps"), pres.StyleCORBA)
	sp.Op("grant").Param("loose").NonUnique = true
	if SigFor(sp).NonUniquePorts {
		t.Fatal("one [nonunique] port of two relaxed naming for the whole endpoint")
	}

	k := mach.NewKernel()
	srvTask, cliTask := k.NewTask("server"), k.NewTask("client")
	_, port := srvTask.AllocatePort()
	Announce(port, sp)
	conn, err := Dial(cliTask, cliTask.InsertRight(port), pres.Default(f.Interface("Caps"), pres.StyleCORBA))
	if err != nil {
		t.Fatal(err)
	}
	_, carried := cliTask.AllocatePort()
	names := make(chan mach.Name, 2)
	go func() {
		for i := 0; i < 2; i++ {
			in, err := srvTask.Receive(port, nil)
			if err != nil {
				return
			}
			names <- in.PortNames[0]
			in.Reply(&mach.Message{})
		}
	}()
	for i := 0; i < 2; i++ {
		if _, err := conn.binding.Call(&mach.Message{Ports: []*mach.Port{carried}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n1, n2 := <-names, <-names; n1 != n2 {
		t.Fatalf("the same right arrived as names %d and %d: the unique-name invariant was dropped", n1, n2)
	}
	port.Destroy()

	sp.Op("grant").Param("strict").NonUnique = true
	if !SigFor(sp).NonUniquePorts {
		t.Fatal("every port [nonunique] should relax naming")
	}
}

func TestServerErrorTravelsBack(t *testing.T) {
	sp := fileIOPres(t)
	k := mach.NewKernel()
	srvTask := k.NewTask("server")
	cliTask := k.NewTask("client")
	_, port := srvTask.AllocatePort()
	disp := runtime.NewDispatcher(sp)
	disp.Handle("read", func(c *runtime.Call) error {
		return errors.New("pipe burst")
	})
	Announce(port, sp)
	go func() { _ = Serve(srvTask, port, disp, runtime.XDRCodec) }()
	defer port.Destroy()

	conn, err := Dial(cliTask, cliTask.InsertRight(port), fileIOPres(t))
	if err != nil {
		t.Fatal(err)
	}
	client, _ := runtime.NewClient(fileIOPres(t), runtime.XDRCodec, conn, nil)
	_, _, err = client.Invoke("read", []runtime.Value{uint32(1)}, nil, nil)
	var remote *runtime.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "pipe burst") {
		t.Fatalf("err = %v", err)
	}
}

// swappedServer serves interface O with its two operations declared in
// the other order from the client's: the same contract, but the op
// index on the wire is the declaration position. a returns 1, b 2.
func swappedServer(t *testing.T) (client *pres.Presentation, disp *runtime.Dispatcher) {
	t.Helper()
	parse := func(src string) *pres.Presentation {
		f, err := corba.Parse("o.idl", src)
		if err != nil {
			t.Fatal(err)
		}
		return pres.Default(f.Interface("O"), pres.StyleCORBA)
	}
	client = parse(`interface O { long a(in long x); long b(in long x); };`)
	disp = runtime.NewDispatcher(parse(`interface O { long b(in long x); long a(in long x); };`))
	disp.Handle("a", func(c *runtime.Call) error { c.SetResult(int32(1)); return nil })
	disp.Handle("b", func(c *runtime.Call) error { c.SetResult(int32(2)); return nil })
	return client, disp
}

func TestReorderedServerRefusedAtBind(t *testing.T) {
	cp, disp := swappedServer(t)
	k := mach.NewKernel()
	srvTask, cliTask := k.NewTask("server"), k.NewTask("client")
	_, port := srvTask.AllocatePort()
	Announce(port, disp.Pres)
	go func() { _ = Serve(srvTask, port, disp, runtime.XDRCodec) }()
	t.Cleanup(port.Destroy)
	conn, err := Dial(cliTask, cliTask.InsertRight(port), cp)
	if err == nil {
		client, _ := runtime.NewClient(cp, runtime.XDRCodec, conn, nil)
		_, ret, err := client.Invoke("a", []runtime.Value{int32(0)}, nil, nil)
		t.Fatalf("bound to a server that numbers its ops differently: a() = %v, %v", ret, err)
	}
	if !errors.Is(err, mach.ErrContract) {
		t.Fatalf("err = %v, want %v", err, mach.ErrContract)
	}
}
