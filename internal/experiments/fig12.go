package experiments

import (
	"fmt"

	"flexrpc/internal/mach"
	"flexrpc/internal/pres"
)

// The §4.5 experiments: a transport specialized at bind time from the
// endpoints' presentation attributes.

// newMachCall registers a null server under serverSig, binds a client
// under clientSig and returns one call as the operation. With carry
// set every call transfers one port right, which the server consumes.
func newMachCall(serverSig, clientSig mach.EndpointSig, carry bool) (op func() error, closeFn func(), err error) {
	k := mach.NewKernel()
	srv := k.NewTask("server")
	cli := k.NewTask("client")
	_, port := srv.AllocatePort()
	port.RegisterServer(serverSig)
	bind, err := mach.Bind(cli, cli.InsertRight(port), clientSig)
	if err != nil {
		return nil, nil, err
	}
	go func() {
		for {
			in, err := srv.Receive(port, nil)
			if err != nil {
				return
			}
			// Consume any transferred right, paying the standard path's
			// full insert/deallocate cycle each call.
			for _, n := range in.PortNames {
				_ = srv.DeallocateRight(n)
			}
			in.Reply(&mach.Message{})
		}
	}()
	req := &mach.Message{}
	if carry {
		// A realistic server task holds many other rights (one per open
		// object); the reverse splay tree is exercised at a plausible
		// size, not size one.
		other := k.NewTask("right-holder")
		for i := 0; i < 64; i++ {
			_, p := other.AllocatePort()
			srv.InsertRight(p)
		}
		_, carried := cli.AllocatePort()
		req.Ports = []*mach.Port{carried}
	}
	return func() error {
		_, err := bind.Call(req, nil)
		return err
	}, port.Destroy, nil
}

// trustLevels in display order (the paper's axes).
var trustLevels = []pres.Trust{pres.TrustNone, pres.TrustLeaky, pres.TrustFull}

func newTrustCall(client, server pres.Trust) Build {
	return func() (func() error, func(), error) {
		return newMachCall(mach.EndpointSig{Contract: "null", Trust: server},
			mach.EndpointSig{Contract: "null", Trust: client}, false)
	}
}

var fig12 = &Figure{
	Name:  "12",
	Title: "Figure 12: null RPC vs trust parameters (paper §4.5)",
	Note: "paper: ~30% spread slowest (none/none) to fastest; the two most-trusting\n" +
		"server columns are equal (server [unprotected] adds nothing)",
	Columns: []Column{
		{Name: "server none", Unit: "ns", Format: "%.0f ns"},
		{Name: "server leaky", Unit: "ns", Format: "%.0f ns"},
		{Name: "server leaky,unprot", Unit: "ns", Format: "%.0f ns"},
	},
	Run: func(s Size) (*Result, error) {
		defer uniprocessor()()
		iters := pick(s, 20000, 3000, 1500)
		res := &Result{}
		for _, ct := range trustLevels {
			row := Row{Label: "client " + ct.String()}
			for _, st := range trustLevels {
				c, err := timeSystem(newTrustCall(ct, st), iters, nil)
				if err != nil {
					return nil, err
				}
				row.Cells = append(row.Cells, c.ns)
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil
	},
	Claims: []Claim{
		everyRow("every trust combination binds and is timed", anyRow, ">", 0, "server none", "server leaky", "server leaky,unprot"),
		// The slowest corner (none/none) must not beat the fastest
		// corner (full trust) — allow a wide noise margin.
		cmp("no trust is not faster than 0.8x full trust",
			ref{"client none", "server none"}, ">=", 0.8, ref{"client leaky,unprotected", "server leaky,unprot"}),
	},
	Systems: func() []System {
		var out []System
		for _, ct := range trustLevels {
			for _, st := range trustLevels {
				out = append(out, System{Name: fmt.Sprintf("client=%v/server=%v", ct, st), New: newTrustCall(ct, st)})
			}
		}
		return out
	}(),
}

// portModes is the port-transfer experiment: one port right passed
// between two tasks per call, under the standard unique-name invariant
// versus the [nonunique] presentation. The paper measured 32.4 -> 24.7
// usec (24% less).
var portModes = []struct {
	label     string
	nonunique bool
}{
	{"unique-name invariant (standard Mach)", false},
	{"[nonunique] presentation", true},
}

func newPortTransfer(nonunique bool) Build {
	return func() (func() error, func(), error) {
		return newMachCall(
			mach.EndpointSig{Contract: "xfer", Trust: pres.TrustFull, NonUniquePorts: nonunique},
			mach.EndpointSig{Contract: "xfer", Trust: pres.TrustFull}, true)
	}
}

var figPorts = &Figure{
	Name:  "ports",
	Title: "Port right transfer: relaxing the unique-name requirement (paper §4.5)",
	Note:  "paper: 32.4 usec -> 24.7 usec, a 24% reduction",
	Columns: []Column{
		{Name: "ns/transfer", Unit: "ns", Format: "%.1f"},
		{Name: "vs standard", Unit: "%", Format: "%+.0f%%"},
	},
	Run: func(s Size) (*Result, error) {
		defer uniprocessor()()
		iters := pick(s, 20000, 3000, 4000)
		// The two paths differ by less than a host's noise over one
		// short trial: the small sizes take more trials of each.
		trials := pick(s, Trials, 2*Trials, 4*Trials)
		builds := make([]Build, len(portModes))
		for i, m := range portModes {
			builds[i] = newPortTransfer(m.nonunique)
		}
		costs, err := timeSystems(builds, iters, trials)
		if err != nil {
			return nil, err
		}
		res := &Result{}
		for i, m := range portModes {
			res.Rows = append(res.Rows, Row{Label: m.label, Cells: []float64{costs[i].ns, pctDelta(costs[0].ns, costs[i].ns)}})
		}
		return res, nil
	},
	Claims: []Claim{
		rowCount("the standard and the relaxed path", 2),
		// The relaxed path must not be slower beyond noise.
		cmp("[nonunique] is at most 1.15x the unique-name path",
			ref{portModes[1].label, "ns/transfer"}, "<=", 1.15, ref{portModes[0].label, "ns/transfer"}),
	},
	Systems: systems(0, []string{portModes[0].label, portModes[1].label}, func(i int) Build { return newPortTransfer(portModes[i].nonunique) }),
}
