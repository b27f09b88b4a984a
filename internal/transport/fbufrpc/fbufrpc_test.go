package fbufrpc

import (
	"bytes"
	"errors"
	"testing"

	"flexrpc/internal/fbuf"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/mach"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/machipc"
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

func startChannel(t *testing.T, serverPres *pres.Presentation) (*Channel, mach.Name) {
	t.Helper()
	k := mach.NewKernel()
	srvTask := k.NewTask("server")
	cliTask := k.NewTask("client")
	ch := NewChannel(
		Endpoint{Task: cliTask, Domain: fbuf.NewDomain("client")},
		Endpoint{Task: srvTask, Domain: fbuf.NewDomain("server")},
		16<<10, 8)
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
	port.RegisterServer(machipc.SigFor(serverPres))
	go func() { _ = Serve(ch, port, disp, runtime.XDRCodec) }()
	t.Cleanup(port.Destroy)
	return ch, cliTask.InsertRight(port)
}

func dial(t *testing.T, ch *Channel, right mach.Name, p *pres.Presentation) *runtime.Client {
	t.Helper()
	conn, err := Dial(ch, right, p)
	if err != nil {
		t.Fatal(err)
	}
	client, err := runtime.NewClient(p, runtime.XDRCodec, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestTransparentFbufTransport(t *testing.T) {
	sp := fileIOPres(t)
	ch, right := startChannel(t, sp)
	client := dial(t, ch, right, fileIOPres(t))

	payload := bytes.Repeat([]byte("fbuf"), 1024)
	if _, _, err := client.Invoke("write", []runtime.Value{payload}, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, ret, err := client.Invoke("read", []runtime.Value{uint32(len(payload))}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ret.([]byte), payload) {
		t.Fatal("payload mismatch through fbuf transport")
	}
}

func TestPoolIsConservedAcrossCalls(t *testing.T) {
	sp := fileIOPres(t)
	ch, right := startChannel(t, sp)
	client := dial(t, ch, right, fileIOPres(t))

	before := pooled(ch.Path, ch.Client.Domain)
	if before == 0 {
		t.Fatal("the client domain drained no buffers from the pool")
	}
	for i := 0; i < 50; i++ {
		if _, _, err := client.Invoke("write", []runtime.Value{[]byte("x")}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if after := pooled(ch.Path, ch.Client.Domain); after != before {
		t.Fatalf("pool leaked: %d -> %d", before, after)
	}
}

func TestOversizeRequestRejected(t *testing.T) {
	sp := fileIOPres(t)
	ch, right := startChannel(t, sp)
	client := dial(t, ch, right, fileIOPres(t))
	huge := make([]byte, 17<<10) // exceeds the 16K fbuf size
	if _, _, err := client.Invoke("write", []runtime.Value{huge}, nil, nil); err == nil {
		t.Fatal("oversize request should fail cleanly")
	}
}

func TestReplyLandsInClientBuffer(t *testing.T) {
	sp := fileIOPres(t)
	ch, right := startChannel(t, sp)
	conn, err := Dial(ch, right, fileIOPres(t))
	if err != nil {
		t.Fatal(err)
	}
	// Drive the raw transport to check the landing-buffer path.
	reqPlan, _ := runtime.NewPlan(fileIOPres(t), runtime.XDRCodec, nil)
	enc := runtime.XDRCodec.NewEncoder()
	if err := reqPlan.Ops[reqPlan.OpIndex("write")].EncodeRequest(enc, []runtime.Value{[]byte("abc")}); err != nil {
		t.Fatal(err)
	}
	landing := make([]byte, 4096)
	reply, err := conn.Call(reqPlan.OpIndex("write"), enc.Bytes(), landing)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) > 0 && &reply[0] != &landing[0] {
		t.Fatal("reply should land in the provided buffer")
	}
}

// A server that declares interface O's two operations in the other
// order numbers them differently on the wire, so the bind refuses it.
func TestReorderedServerRefusedAtBind(t *testing.T) {
	parse := func(src string) *pres.Presentation {
		f, err := corba.Parse("o.idl", src)
		if err != nil {
			t.Fatal(err)
		}
		return pres.Default(f.Interface("O"), pres.StyleCORBA)
	}
	cp := parse(`interface O { long a(in long x); long b(in long x); };`)
	disp := runtime.NewDispatcher(parse(`interface O { long b(in long x); long a(in long x); };`))
	disp.Handle("a", func(c *runtime.Call) error { c.SetResult(int32(1)); return nil })
	disp.Handle("b", func(c *runtime.Call) error { c.SetResult(int32(2)); return nil })

	k := mach.NewKernel()
	srvTask, cliTask := k.NewTask("server"), k.NewTask("client")
	ch := NewChannel(
		Endpoint{Task: cliTask, Domain: fbuf.NewDomain("client")},
		Endpoint{Task: srvTask, Domain: fbuf.NewDomain("server")},
		16<<10, 8)
	_, port := srvTask.AllocatePort()
	port.RegisterServer(machipc.SigFor(disp.Pres))
	go func() { _ = Serve(ch, port, disp, runtime.XDRCodec) }()
	t.Cleanup(port.Destroy)
	conn, err := Dial(ch, cliTask.InsertRight(port), cp)
	if err == nil {
		client, _ := runtime.NewClient(cp, runtime.XDRCodec, conn, nil)
		_, ret, err := client.Invoke("a", []runtime.Value{int32(0)}, nil, nil)
		t.Fatalf("bound to a server that numbers its ops differently: a() = %v, %v", ret, err)
	}
	if !errors.Is(err, mach.ErrContract) {
		t.Fatalf("err = %v, want %v", err, mach.ErrContract)
	}
}

// pooled drains path from d and frees every buffer back: how many the
// pool held.
func pooled(path *fbuf.Path, d *fbuf.Domain) int {
	var held []*fbuf.Buffer
	for b, err := path.Alloc(d); err == nil; b, err = path.Alloc(d) {
		held = append(held, b)
	}
	for _, b := range held {
		b.Free(d)
	}
	return len(held)
}
