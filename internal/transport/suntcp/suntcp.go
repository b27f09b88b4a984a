// Package suntcp carries flexrpc calls over Sun RPC on a stream
// connection — the heavyweight end of the paper's transport
// spectrum (§4.1): record-marked RFC 1057 messages, XDR bodies, real
// (or netsim-shaped) sockets.
package suntcp

import (
	"context"
	"net"
	"sync"

	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/xdr"
)

// DefaultProgram is used for interfaces that did not come from a .x
// file with an explicit program number (transient range).
const DefaultProgram = 0x40000000

// progVers returns the Sun RPC program and version for an
// interface.
func progVers(iface *ir.Interface) (uint32, uint32) {
	if iface.Program != 0 {
		return iface.Program, iface.Version
	}
	return DefaultProgram, 1
}

// procFor maps a plan operation index to its Sun RPC procedure
// number: the .x-declared number when present, otherwise index+1
// (procedure 0 is the mandatory null procedure).
func procFor(op *ir.Operation, idx int) uint32 {
	if op.Proc != 0 {
		return op.Proc
	}
	return uint32(idx + 1)
}

// A Conn is the client side, implementing runtime.Conn.
type Conn struct {
	rpc   *sunrpc.Client
	iface *ir.Interface
	stats *stats.Endpoint
}

// SetStats points the connection's wire meter at e: every request and
// reply body metered by frame count and bytes. Client.SetStats
// forwards here, so enabling stats on the bound client covers the
// transport too.
func (c *Conn) SetStats(e *stats.Endpoint) { c.stats = e }

// Dial wraps an established network connection in a Sun RPC client
// for the presentation's interface.
func Dial(nc net.Conn, p *pres.Presentation) *Conn {
	prog, vers := progVers(p.Interface)
	return &Conn{rpc: sunrpc.NewClient(nc, prog, vers), iface: p.Interface}
}

// Call implements runtime.Conn: the marshaled body rides as the Sun
// RPC argument and the reply body is handed back verbatim.
func (c *Conn) Call(opIdx int, req []byte, replyBuf []byte) ([]byte, error) {
	return c.CallContext(nil, opIdx, req, replyBuf)
}

// CallContext implements runtime.ContextConn: the deadline
// propagates into the Sun RPC client, which abandons the xid on
// expiry without desynchronizing the shared reply stream.
func (c *Conn) CallContext(ctx context.Context, opIdx int, req []byte, replyBuf []byte) ([]byte, error) {
	op := &c.iface.Ops[opIdx]
	var body []byte
	encodeArgs := func(e *xdr.Encoder) { e.PutRaw(req) }
	decodeRes := func(d *xdr.Decoder) error {
		raw := d.Rest()
		// A short buffer grows geometrically, from a floor, as sunrpc's
		// record buffers do: the caller recycles what it gets back, and
		// a layer above may first slice a header off it (RobustConn
		// does), so an exact-size buffer would fall short by that
		// header on every later call.
		if cap(replyBuf) < len(raw) {
			replyBuf = make([]byte, max(2*cap(replyBuf), len(raw), 512))
		}
		body = replyBuf[:len(raw)]
		copy(body, raw)
		return nil
	}
	if c.stats != nil {
		c.stats.Wire.Add(len(req))
	}
	var err error
	if ctx == nil || ctx.Done() == nil {
		err = c.rpc.Call(procFor(op, opIdx), encodeArgs, decodeRes)
	} else {
		err = c.rpc.CallContext(ctx, procFor(op, opIdx), encodeArgs, decodeRes)
	}
	if err != nil {
		return nil, err
	}
	if c.stats != nil {
		c.stats.Wire.Add(len(body))
	}
	return body, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.rpc.Close() }

// SelfFraming reports that Sun RPC conveys remote errors itself
// (accept_stat), so the runtime adds no status framing and the wire
// stays interoperable with hand-coded Sun RPC peers — the paper's
// generated Linux client talking to an unmodified BSD server.
func (c *Conn) SelfFraming() bool { return true }

// NewSessionServer builds a Sun RPC server whose procedure bodies
// are at-most-once session frames: each argument block is handed to
// sess.HandleAppend, which appends the session reply frame straight
// into the Sun RPC reply being encoded, so a RobustConn client
// speaking through a suntcp Conn gets retries, duplicate suppression
// and reply replay over Sun RPC.
func NewSessionServer(sess *runtime.SessionServer, iface *ir.Interface) *sunrpc.Server {
	prog, vers := progVers(iface)
	srv := sunrpc.NewServer(prog, vers)
	for i := range iface.Ops {
		idx := i
		op := &iface.Ops[i]
		srv.Register(procFor(op, idx), func(args *xdr.Decoder, reply *xdr.Encoder) error {
			reply.SetBytes(sess.HandleAppend(context.Background(), idx, args.Rest(), reply.Bytes()))
			return nil
		})
	}
	return srv
}

// NewServer builds a Sun RPC server that dispatches through disp under
// its XDR server plan. Call ServeConn/Serve on the result. Reply
// encoders are pooled across requests and procedures.
func NewServer(disp *runtime.Dispatcher) (*sunrpc.Server, error) {
	plan, err := disp.Plan(runtime.XDRCodec)
	if err != nil {
		return nil, err
	}
	prog, vers := progVers(disp.Pres.Interface)
	srv := sunrpc.NewServer(prog, vers)
	encPool := &sync.Pool{New: func() any { return plan.Codec.NewEncoder() }}
	for i := range plan.Ops {
		idx := i
		op := plan.Ops[i].Op
		srv.Register(procFor(op, idx), func(args *xdr.Decoder, reply *xdr.Encoder) error {
			enc := encPool.Get().(runtime.Encoder)
			enc.Reset()
			if err := disp.ServeMessageRaw(plan, idx, args.Rest(), enc); err != nil {
				encPool.Put(enc)
				return err
			}
			reply.PutRaw(enc.Bytes())
			encPool.Put(enc)
			return nil
		})
	}
	return srv, nil
}
