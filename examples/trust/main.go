// Trust: the paper's §4.5 experiments. Endpoint presentations carry
// trust levels ([leaky], [leaky, unprotected]) and naming relaxation
// ([nonunique]); at bind time the simulated Mach kernel verifies the
// two endpoint signatures and threads together a call path doing
// exactly the register save/clear/restore and name-table work the
// declared trust requires — and no more.
//
//	go run ./examples/trust
package main

import (
	"fmt"
	"log"
	"time"

	"flexrpc/internal/mach"
	"flexrpc/internal/pres"
)

const iters = 20000

func main() {
	fmt.Println("null RPC time by trust combination (paper Figure 12):")
	fmt.Printf("%-28s", "")
	levels := []pres.Trust{pres.TrustNone, pres.TrustLeaky, pres.TrustFull}
	for _, st := range levels {
		fmt.Printf("  server [%s]", st)
	}
	fmt.Println()
	for _, ct := range levels {
		fmt.Printf("client [%-17s]", ct.String())
		for _, st := range levels {
			ns, err := nullRPC(ct, st)
			if err != nil {
				log.Fatal(err)
			}
			w := len(fmt.Sprintf("  server [%s]", st))
			fmt.Printf("%*s", w, fmt.Sprintf("%d ns", ns))
		}
		fmt.Println()
	}

	fmt.Println("\nport right transfer (paper: 32.4us -> 24.7us, -24%):")
	for _, nonunique := range []bool{false, true} {
		ns, err := portTransfer(nonunique)
		if err != nil {
			log.Fatal(err)
		}
		name := "unique-name invariant"
		if nonunique {
			name = "[nonunique] presentation"
		}
		fmt.Printf("  %-26s %5d ns/transfer\n", name, ns)
	}
}

// nullRPC measures one trust combination.
func nullRPC(clientTrust, serverTrust pres.Trust) (int64, error) {
	k := mach.NewKernel()
	server := k.NewTask("server")
	client := k.NewTask("client")
	_, port := server.AllocatePort()
	defer port.Destroy()

	// Bind-time signature exchange: the kernel checks the contracts
	// match and specializes the call path for the declared trust.
	port.RegisterServer(mach.EndpointSig{Contract: "null-demo", Trust: serverTrust})
	bind, err := mach.Bind(client, client.InsertRight(port),
		mach.EndpointSig{Contract: "null-demo", Trust: clientTrust})
	if err != nil {
		return 0, err
	}
	go serveNull(server, port)

	req := &mach.Message{}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := bind.Call(req, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / iters, nil
}

// portTransfer measures passing one port right per call.
func portTransfer(nonunique bool) (int64, error) {
	k := mach.NewKernel()
	server := k.NewTask("server")
	client := k.NewTask("client")
	_, port := server.AllocatePort()
	defer port.Destroy()

	port.RegisterServer(mach.EndpointSig{
		Contract:       "xfer-demo",
		Trust:          pres.TrustFull,
		NonUniquePorts: nonunique,
	})
	bind, err := mach.Bind(client, client.InsertRight(port),
		mach.EndpointSig{Contract: "xfer-demo", Trust: pres.TrustFull})
	if err != nil {
		return 0, err
	}
	go func() {
		for {
			in, err := server.Receive(port, nil)
			if err != nil {
				return
			}
			for _, n := range in.PortNames {
				_ = server.DeallocateRight(n)
			}
			in.Reply(&mach.Message{})
		}
	}()

	_, carried := client.AllocatePort()
	req := &mach.Message{Ports: []*mach.Port{carried}}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := bind.Call(req, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / iters, nil
}

func serveNull(task *mach.Task, port *mach.Port) {
	for {
		in, err := task.Receive(port, nil)
		if err != nil {
			return
		}
		in.Reply(&mach.Message{})
	}
}
