package mach

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"flexrpc/internal/pres"
)

func TestUniqueNameInvariant(t *testing.T) {
	k := NewKernel()
	task := k.NewTask("t")
	_, p := k.NewTask("owner").AllocatePort()

	n1 := task.InsertRight(p)
	n2 := task.InsertRight(p)
	if n1 != n2 {
		t.Fatalf("unique insert returned two names: %d, %d", n1, n2)
	}
	if rc := task.RefCount(n1); rc != 2 {
		t.Fatalf("refcount = %d, want 2", rc)
	}
	if task.NameCount() != 1 {
		t.Fatalf("name count = %d, want 1", task.NameCount())
	}
	// Dropping one ref keeps the name; dropping the second removes it.
	if err := task.DeallocateRight(n1); err != nil {
		t.Fatal(err)
	}
	if rc := task.RefCount(n1); rc != 1 {
		t.Fatalf("refcount after dealloc = %d", rc)
	}
	if err := task.DeallocateRight(n1); err != nil {
		t.Fatal(err)
	}
	if task.NameCount() != 0 {
		t.Fatal("name not removed at refcount zero")
	}
	// And a fresh insert after removal gets a new name that again
	// obeys the invariant.
	n3 := task.InsertRight(p)
	if task.InsertRight(p) != n3 {
		t.Fatal("invariant broken after reinsert")
	}
}

func TestNonUniqueNames(t *testing.T) {
	k := NewKernel()
	task := k.NewTask("t")
	_, p := k.NewTask("owner").AllocatePort()

	n1 := task.InsertRightNonUnique(p)
	n2 := task.InsertRightNonUnique(p)
	if n1 == n2 {
		t.Fatal("nonunique insert should hand out fresh names")
	}
	// Both names resolve to the same port.
	q1, err1 := task.LookupRight(n1)
	q2, err2 := task.LookupRight(n2)
	if err1 != nil || err2 != nil || q1 != p || q2 != p {
		t.Fatalf("lookups = %v/%v, %v/%v", q1, err1, q2, err2)
	}
	// Nonunique names don't pollute the unique index: a unique
	// insert of the same port gets its own name with refcount 1.
	nu := task.InsertRight(p)
	if nu == n1 || nu == n2 {
		t.Fatal("unique insert collided with fast name")
	}
	if task.RefCount(nu) != 1 {
		t.Fatalf("unique refcount = %d", task.RefCount(nu))
	}
}

func TestLookupAndDeallocErrors(t *testing.T) {
	k := NewKernel()
	task := k.NewTask("t")
	if _, err := task.LookupRight(Name(42)); err != ErrInvalidName {
		t.Errorf("lookup err = %v", err)
	}
	if err := task.DeallocateRight(Name(42)); err != ErrInvalidName {
		t.Errorf("dealloc err = %v", err)
	}
}

// Property: under any interleaving of unique inserts and deallocs of
// a set of ports, each port has at most one unique name, and the
// refcount of that name equals inserts-deallocs.
func TestQuickUniqueInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		k := NewKernel()
		task := k.NewTask("t")
		_, p := k.NewTask("owner").AllocatePort()
		refs := 0
		var name Name
		for _, insert := range ops {
			if insert {
				n := task.InsertRight(p)
				if refs > 0 && n != name {
					return false
				}
				name = n
				refs++
			} else if refs > 0 {
				if err := task.DeallocateRight(name); err != nil {
					return false
				}
				refs--
			}
			if got := task.RefCount(name); refs > 0 && got != refs {
				return false
			}
			if refs == 0 && task.NameCount() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// startEcho runs a server that echoes the body (optionally through a
// receive buffer) and increments inline word 0.
func startEcho(t *testing.T, srv *Task, port *Port, recvBuf []byte) {
	t.Helper()
	go func() {
		for {
			in, err := srv.Receive(port, recvBuf)
			if err != nil {
				return // port destroyed
			}
			reply := &Message{Body: in.Body}
			reply.Inline[0] = in.Inline[0] + 1
			in.Reply(reply)
		}
	}()
}

func bindEcho(t *testing.T, k *Kernel) (*Binding, *Port, *Task) {
	t.Helper()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "echo"})
	right := cli.InsertRight(port)
	b, err := Bind(cli, right, EndpointSig{Contract: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	startEcho(t, srv, port, make([]byte, 4096))
	return b, port, cli
}

func TestCallRoundTrip(t *testing.T) {
	k := NewKernel()
	b, port, _ := bindEcho(t, k)
	defer port.Destroy()

	req := &Message{Body: []byte("hello streamlined ipc")}
	req.Inline[0] = 41
	reply, err := b.Call(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Inline[0] != 42 {
		t.Fatalf("inline = %d, want 42", reply.Inline[0])
	}
	if !bytes.Equal(reply.Body, req.Body) {
		t.Fatalf("body = %q", reply.Body)
	}
}

func TestCallReplyIntoClientBuffer(t *testing.T) {
	k := NewKernel()
	b, port, _ := bindEcho(t, k)
	defer port.Destroy()

	landing := make([]byte, 64)
	reply, err := b.Call(&Message{Body: []byte("abc")}, landing)
	if err != nil {
		t.Fatal(err)
	}
	if &reply.Body[0] != &landing[0] {
		t.Fatal("reply should land in the client-provided buffer")
	}
	if string(reply.Body) != "abc" {
		t.Fatalf("body = %q", reply.Body)
	}
	// A too-small landing buffer falls back to allocation.
	small := make([]byte, 1)
	reply, err = b.Call(&Message{Body: []byte("abcdef")}, small)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Body) != "abcdef" {
		t.Fatalf("body = %q", reply.Body)
	}
}

func TestServerBufferReusableAfterReply(t *testing.T) {
	// The kernel copies the reply before Reply returns, so a server
	// may immediately scribble on its buffer — the property that
	// makes [dealloc(never)] safe.
	k := NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "c"})
	right := cli.InsertRight(port)
	b, err := Bind(cli, right, EndpointSig{Contract: "c"})
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte("good")
	go func() {
		in, err := srv.Receive(port, nil)
		if err != nil {
			return
		}
		in.Reply(&Message{Body: shared})
		copy(shared, "BAD!") // reuse immediately
	}()
	reply, err := b.Call(&Message{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Body) != "good" {
		t.Fatalf("reply body = %q, want snapshot taken before reuse", reply.Body)
	}
	port.Destroy()
}

func TestPortTransferRequestAndReply(t *testing.T) {
	k := NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "c"})
	right := cli.InsertRight(port)
	b, err := Bind(cli, right, EndpointSig{Contract: "c"})
	if err != nil {
		t.Fatal(err)
	}
	_, carried := cli.AllocatePort()
	go func() {
		in, err := srv.Receive(port, nil)
		if err != nil {
			return
		}
		if len(in.PortNames) != 1 {
			t.Error("server received no port name")
			in.Reply(&Message{})
			return
		}
		got, err := srv.LookupRight(in.PortNames[0])
		if err != nil || got != carried {
			t.Errorf("server lookup = %v, %v", got, err)
		}
		// Send it back in the reply.
		in.Reply(&Message{Ports: []*Port{got}})
	}()
	reply, err := b.Call(&Message{Ports: []*Port{carried}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.PortNames) != 1 {
		t.Fatal("client received no port name in reply")
	}
	back, err := cli.LookupRight(reply.PortNames[0])
	if err != nil || back != carried {
		t.Fatalf("client lookup = %v, %v", back, err)
	}
	port.Destroy()
}

func TestNonUniqueBindingSkipsInvariant(t *testing.T) {
	k := NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "c", NonUniquePorts: true})
	right := cli.InsertRight(port)
	b, err := Bind(cli, right, EndpointSig{Contract: "c"})
	if err != nil {
		t.Fatal(err)
	}
	_, carried := cli.AllocatePort()
	names := make(chan Name, 2)
	go func() {
		for i := 0; i < 2; i++ {
			in, err := srv.Receive(port, nil)
			if err != nil {
				return
			}
			names <- in.PortNames[0]
			in.Reply(&Message{})
		}
	}()
	for i := 0; i < 2; i++ {
		if _, err := b.Call(&Message{Ports: []*Port{carried}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	n1, n2 := <-names, <-names
	if n1 == n2 {
		t.Fatal("nonunique server binding should produce distinct names per transfer")
	}
	port.Destroy()
}

func TestBindErrors(t *testing.T) {
	k := NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	right := cli.InsertRight(port)

	if _, err := Bind(cli, right, EndpointSig{Contract: "c"}); err != ErrNotRegistered {
		t.Errorf("unregistered bind err = %v", err)
	}
	port.RegisterServer(EndpointSig{Contract: "other"})
	if _, err := Bind(cli, right, EndpointSig{Contract: "c"}); err != ErrContract {
		t.Errorf("contract mismatch err = %v", err)
	}
	if _, err := Bind(cli, Name(999), EndpointSig{Contract: "c"}); err != ErrInvalidName {
		t.Errorf("bad name err = %v", err)
	}
	port.Destroy()
	port.RegisterServer(EndpointSig{Contract: "c"})
	if _, err := Bind(cli, right, EndpointSig{Contract: "c"}); err != ErrDeadPort {
		t.Errorf("dead port err = %v", err)
	}
}

func TestCallOnDestroyedPort(t *testing.T) {
	k := NewKernel()
	b, port, _ := bindEcho(t, k)
	port.Destroy()
	if _, err := b.Call(&Message{}, nil); err != ErrDeadPort {
		t.Fatalf("err = %v, want ErrDeadPort", err)
	}
}

func TestReceiveWrongTask(t *testing.T) {
	k := NewKernel()
	srv := k.NewTask("server")
	other := k.NewTask("other")
	_, port := srv.AllocatePort()
	if _, err := other.Receive(port, nil); err != ErrNotReceiver {
		t.Fatalf("err = %v, want ErrNotReceiver", err)
	}
}

func TestDoubleReplyPanics(t *testing.T) {
	k := NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "c"})
	right := cli.InsertRight(port)
	b, _ := Bind(cli, right, EndpointSig{Contract: "c"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		in, err := srv.Receive(port, nil)
		if err != nil {
			return
		}
		in.Reply(&Message{})
		defer func() {
			if recover() == nil {
				t.Error("second Reply should panic")
			}
		}()
		in.Reply(&Message{})
	}()
	if _, err := b.Call(&Message{}, nil); err != nil {
		t.Fatal(err)
	}
	<-done
	port.Destroy()
}

func TestAllTrustCombinationsDeliver(t *testing.T) {
	trusts := []pres.Trust{pres.TrustNone, pres.TrustLeaky, pres.TrustFull}
	for _, ct := range trusts {
		for _, st := range trusts {
			k := NewKernel()
			srv := k.NewTask("server")
			cli := k.NewTask("client")
			_, port := srv.AllocatePort()
			port.RegisterServer(EndpointSig{Contract: "c", Trust: st})
			right := cli.InsertRight(port)
			b, err := Bind(cli, right, EndpointSig{Contract: "c", Trust: ct})
			if err != nil {
				t.Fatal(err)
			}
			startEcho(t, srv, port, nil)
			reply, err := b.Call(&Message{Body: []byte("x")}, nil)
			if err != nil || string(reply.Body) != "x" {
				t.Fatalf("trust %v/%v: reply = %q, %v", ct, st, reply.Body, err)
			}
			port.Destroy()
		}
	}
}

func TestTrustStepCounts(t *testing.T) {
	// The combination signature must shrink monotonically with
	// client trust: none = save+clear+restore, leaky = save+restore,
	// full = nothing.
	k := NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "c", Trust: pres.TrustNone})
	right := cli.InsertRight(port)

	counts := map[pres.Trust][2]int{
		pres.TrustNone:  {2, 1}, // prologue: save+clear, epilogue: restore
		pres.TrustLeaky: {1, 1},
		pres.TrustFull:  {0, 0},
	}
	for trust, want := range counts {
		b, err := Bind(cli, right, EndpointSig{Contract: "c", Trust: trust})
		if err != nil {
			t.Fatal(err)
		}
		if len(b.prologue) != want[0] || len(b.epilogue) != want[1] {
			t.Errorf("trust %v: steps = %d/%d, want %d/%d",
				trust, len(b.prologue), len(b.epilogue), want[0], want[1])
		}
	}
	// Server-side: only the leaky bit matters (the paper's flat
	// unprotected column).
	for _, st := range []pres.Trust{pres.TrustLeaky, pres.TrustFull} {
		port.RegisterServer(EndpointSig{Contract: "c", Trust: st})
		b, err := Bind(cli, right, EndpointSig{Contract: "c"})
		if err != nil {
			t.Fatal(err)
		}
		if b.serverClearOnReply {
			t.Errorf("server trust %v should skip the reply clear", st)
		}
	}
	port.RegisterServer(EndpointSig{Contract: "c", Trust: pres.TrustNone})
	b, _ := Bind(cli, right, EndpointSig{Contract: "c"})
	if !b.serverClearOnReply {
		t.Error("untrusting server must clear on reply")
	}
}

func TestConcurrentClients(t *testing.T) {
	k := NewKernel()
	srv := k.NewTask("server")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "c"})
	go func() {
		for {
			in, err := srv.Receive(port, nil)
			if err != nil {
				return
			}
			reply := &Message{}
			reply.Inline[0] = in.Inline[0] * 2
			in.Reply(reply)
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		cli := k.NewTask("client")
		right := cli.InsertRight(port)
		b, err := Bind(cli, right, EndpointSig{Contract: "c"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(b *Binding, seed uint32) {
			defer wg.Done()
			for i := uint32(0); i < 100; i++ {
				req := &Message{}
				req.Inline[0] = seed + i
				reply, err := b.Call(req, nil)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if reply.Inline[0] != (seed+i)*2 {
					t.Errorf("reply = %d", reply.Inline[0])
					return
				}
			}
		}(b, uint32(c*1000))
	}
	wg.Wait()
	port.Destroy()
}

func TestReceiveIntoBufferAvoidsAllocation(t *testing.T) {
	k := NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "c"})
	right := cli.InsertRight(port)
	b, _ := Bind(cli, right, EndpointSig{Contract: "c"})

	recvBuf := make([]byte, 128)
	go func() {
		in, err := srv.Receive(port, recvBuf)
		if err != nil {
			return
		}
		if &in.Body[0] != &recvBuf[0] {
			t.Error("receive should land in the provided buffer")
		}
		in.Reply(&Message{})
	}()
	if _, err := b.Call(&Message{Body: []byte("payload")}, nil); err != nil {
		t.Fatal(err)
	}
	port.Destroy()
}
