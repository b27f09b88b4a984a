// Package machipc carries flexrpc calls over the simulated
// streamlined Mach IPC path (paper §4.2): the operation index
// travels in an inline "register" word, the marshaled body in the
// kernel-copied message buffer, and replies land directly in the
// client's reply buffer. Binding goes through the §4.5 signature
// registration, so trust and naming presentation attributes
// specialize the per-call code path.
package machipc

import (
	"errors"
	"strings"

	"flexrpc/internal/mach"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

// SigFor derives the endpoint type signature the kernel sees from a
// presentation: the interface contract plus the attributes the
// transport can exploit. The op index on the wire is the operation's
// declaration position, so the contract also fixes the numbering: the
// operation names in declaration order follow the interface signature,
// and a peer that declares the operations in another order does not
// bind. The naming flag is endpoint-wide — every right the connection
// transfers is then inserted non-uniquely — so it is set only when the
// endpoint annotated every port it moves.
func SigFor(p *pres.Presentation) mach.EndpointSig {
	var contract strings.Builder
	contract.WriteString(p.Interface.Signature())
	for i := range p.Interface.Ops {
		contract.WriteByte(' ')
		contract.WriteString(p.Interface.Ops[i].Name)
	}
	return mach.EndpointSig{Contract: contract.String(), Trust: p.Trust, NonUniquePorts: p.PortNaming()}
}

// A Conn is the client side of a machipc connection, implementing
// runtime.Conn.
type Conn struct {
	binding *mach.Binding
}

// Dial binds the client task's send right to the server registered
// on it, exchanging endpoint signatures.
func Dial(task *mach.Task, right mach.Name, clientPres *pres.Presentation) (*Conn, error) {
	b, err := mach.Bind(task, right, SigFor(clientPres))
	if err != nil {
		return nil, err
	}
	return &Conn{binding: b}, nil
}

// Call implements runtime.Conn: one synchronous IPC with the op
// index inline and the body in the message buffer.
func (c *Conn) Call(opIdx int, req []byte, replyBuf []byte) ([]byte, error) {
	msg := &mach.Message{Body: req}
	msg.Inline[0] = uint32(opIdx)
	r, err := c.binding.Call(msg, replyBuf)
	if err != nil {
		return nil, err
	}
	return r.Body, nil
}

// Close destroys nothing — the server owns the port — and exists to
// satisfy runtime.Conn.
func (c *Conn) Close() error { return nil }

// Serve receives requests on port (owned by task) and dispatches
// them through disp under its server plan for codec, until the port
// dies.
func Serve(task *mach.Task, port *mach.Port, disp *runtime.Dispatcher, codec runtime.Codec) error {
	plan, err := disp.Plan(codec)
	if err != nil {
		return err
	}
	port.RegisterServer(SigFor(disp.Pres))
	recvBuf := make([]byte, 64<<10)
	enc := codec.NewEncoder()
	for {
		in, err := task.Receive(port, recvBuf)
		if err != nil {
			if errors.Is(err, mach.ErrDeadPort) {
				return nil
			}
			return err
		}
		enc.Reset()
		disp.ServeMessage(plan, int(in.Inline[0]), in.Body, enc)
		in.Reply(&mach.Message{Body: enc.Bytes()})
	}
}

// Announce registers the server's signature on the port without
// starting the receive loop; Serve does this automatically, but
// benchmarks that pre-bind need the registration early.
func Announce(port *mach.Port, p *pres.Presentation) {
	port.RegisterServer(SigFor(p))
}
