package mach

import (
	"fmt"
	"testing"

	"flexrpc/internal/pres"
)

// benchServer starts a null-RPC server and returns a bound client.
func benchServer(b *testing.B, clientTrust, serverTrust pres.Trust) (*Binding, *Port) {
	b.Helper()
	k := NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(EndpointSig{Contract: "bench", Trust: serverTrust})
	right := cli.InsertRight(port)
	bind, err := Bind(cli, right, EndpointSig{Contract: "bench", Trust: clientTrust})
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			in, err := srv.Receive(port, nil)
			if err != nil {
				return
			}
			in.Reply(&Message{})
		}
	}()
	return bind, port
}

// BenchmarkNullRPCTrust is the Figure 12 matrix: null RPC time for
// every client-trust x server-trust combination.
func BenchmarkNullRPCTrust(b *testing.B) {
	trusts := []pres.Trust{pres.TrustNone, pres.TrustLeaky, pres.TrustFull}
	for _, ct := range trusts {
		for _, st := range trusts {
			b.Run(fmt.Sprintf("client=%v/server=%v", ct, st), func(b *testing.B) {
				bind, port := benchServer(b, ct, st)
				defer port.Destroy()
				req := &Message{}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bind.Call(req, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPortTransfer is the §4.5 unique-name experiment: passing
// one port right per call, with and without the unique-name
// invariant on the receiving side.
func BenchmarkPortTransfer(b *testing.B) {
	for _, nonunique := range []bool{false, true} {
		name := "unique"
		if nonunique {
			name = "nonunique"
		}
		b.Run(name, func(b *testing.B) {
			k := NewKernel()
			srv := k.NewTask("server")
			cli := k.NewTask("client")
			_, port := srv.AllocatePort()
			port.RegisterServer(EndpointSig{Contract: "bench", Trust: pres.TrustFull, NonUniquePorts: nonunique})
			right := cli.InsertRight(port)
			bind, err := Bind(cli, right, EndpointSig{Contract: "bench", Trust: pres.TrustFull})
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for {
					in, err := srv.Receive(port, nil)
					if err != nil {
						return
					}
					// Deallocate so the unique path pays the full
					// hash + refcount cycle every transfer.
					for _, n := range in.PortNames {
						_ = srv.DeallocateRight(n)
					}
					in.Reply(&Message{})
				}
			}()
			defer port.Destroy()
			_, carried := cli.AllocatePort()
			req := &Message{Ports: []*Port{carried}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bind.Call(req, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNameTable isolates the §4.5 ablation from the IPC path:
// the cost of one insert+deallocate cycle under the unique-name
// invariant (splay lookup + insert + removal, refcounting) versus
// the [nonunique] fast path (slab slot only), at a realistic
// name-space population.
func BenchmarkNameTable(b *testing.B) {
	for _, pop := range []int{0, 64, 512} {
		k := NewKernel()
		task := k.NewTask("t")
		owner := k.NewTask("owner")
		for i := 0; i < pop; i++ {
			_, p := owner.AllocatePort()
			task.InsertRight(p)
		}
		_, target := owner.AllocatePort()
		b.Run(fmt.Sprintf("unique/population=%d", pop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := task.InsertRight(target)
				if err := task.DeallocateRight(n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nonunique/population=%d", pop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := task.InsertRightNonUnique(target)
				if err := task.DeallocateRight(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReceiveBuffer ablates the receive-into-caller-buffer
// optimization: a 4 KB message received into a reused buffer versus
// freshly allocated storage per message.
func BenchmarkReceiveBuffer(b *testing.B) {
	for _, reuse := range []bool{true, false} {
		name := "reused"
		if !reuse {
			name = "alloc-per-receive"
		}
		b.Run(name, func(b *testing.B) {
			k := NewKernel()
			srv := k.NewTask("server")
			cli := k.NewTask("client")
			_, port := srv.AllocatePort()
			port.RegisterServer(EndpointSig{Contract: "c", Trust: pres.TrustFull})
			bind, err := Bind(cli, cli.InsertRight(port), EndpointSig{Contract: "c", Trust: pres.TrustFull})
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				var buf []byte
				if reuse {
					buf = make([]byte, 4096)
				}
				for {
					in, err := srv.Receive(port, buf)
					if err != nil {
						return
					}
					in.Reply(&Message{})
				}
			}()
			defer port.Destroy()
			req := &Message{Body: make([]byte, 4096)}
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bind.Call(req, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
