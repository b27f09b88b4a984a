// Package inproc is the same-domain transport (paper §4.4): when
// client and server share a protection domain, RPC short-circuits to
// a direct invocation with no marshaling, but the stubs must still
// honor both endpoints' presentations.
//
// The invocation semantics — copy vs borrow for in parameters, who
// provides the buffer for out parameters — are derived from the two
// sides' presentation attributes once, at Connect time, into a flat
// per-operation step list: the same-domain analogue of the Mach
// combination signatures the paper describes in §4.5. Presentations
// are part of the binding, so a presentation changed after Connect
// requires a new Connect, exactly as a re-bind would over a message
// transport. The per-call path is then a straight loop over
// precomputed decisions, with pooled Call frames, so a null call and
// a borrow-mode bulk call allocate nothing.
package inproc

import (
	"context"
	"fmt"
	"time"

	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// A Conn is a same-domain binding between a client presentation and
// a server dispatcher.
type Conn struct {
	clientPres *pres.Presentation
	disp       *runtime.Dispatcher
	binds      map[string]*opBind

	// stats, when set, receives the client-side view of every
	// invocation: per-op calls, outcomes and latency. The server-side
	// view lives on the dispatcher's own endpoint. Disabled (nil)
	// costs one pointer check per call and keeps the path zero-alloc.
	stats *stats.Endpoint
}

// EnableStats switches on client-side observability for this binding,
// creating the endpoint on first use.
func (c *Conn) EnableStats() *stats.Endpoint {
	if c.stats == nil {
		names := make([]string, len(c.clientPres.Interface.Ops))
		for i := range c.clientPres.Interface.Ops {
			names[i] = c.clientPres.Interface.Ops[i].Name
		}
		c.stats = stats.New(names)
	}
	return c.stats
}

// SetStats installs (or, with nil, removes) the endpoint.
func (c *Conn) SetStats(e *stats.Endpoint) { c.stats = e }

// opBind is one operation's compiled invocation program: every
// negotiation the engine would otherwise redo per call, resolved at
// bind time.
type opBind struct {
	op     *ir.Operation
	idx    int // interface op index — the shared stats op-index space
	sidx   int // the operation's index in the dispatcher's interface
	params []paramBind
	nOut   int // out/inout param count

	hasResult bool
	resType   *ir.Type
	resOut    runtime.OutSemantics
}

// paramBind carries the negotiated transfer decisions for one
// parameter position.
type paramBind struct {
	idx     int
	typ     *ir.Type
	isIn    bool
	isOut   bool
	in      runtime.InSemantics
	out     runtime.OutSemantics
	private bool // SetIn private flag under borrow semantics
}

// Connect binds a client presentation to a dispatcher in the same
// domain. The two presentations may differ arbitrarily, but the
// network contract must match — the same check a remote bind
// performs.
func Connect(clientPres *pres.Presentation, disp *runtime.Dispatcher) (*Conn, error) {
	if clientPres.Interface.Signature() != disp.Pres.Interface.Signature() {
		return nil, fmt.Errorf("inproc: contract mismatch:\n  client %s\n  server %s",
			clientPres.Interface.Signature(), disp.Pres.Interface.Signature())
	}
	c := &Conn{clientPres: clientPres, disp: disp, binds: make(map[string]*opBind)}
	for i := range clientPres.Interface.Ops {
		irOp := &clientPres.Interface.Ops[i]
		b := c.compileOp(irOp)
		b.idx, b.sidx = i, disp.OpIndex(irOp.Name)
		c.binds[irOp.Name] = b
	}
	return c, nil
}

// compileOp negotiates every parameter of one operation against both
// presentations, once.
func (c *Conn) compileOp(irOp *ir.Operation) *opBind {
	cop := c.clientPres.Op(irOp.Name)
	sop := c.disp.Pres.Op(irOp.Name)
	b := &opBind{op: irOp}
	for i := range irOp.Params {
		prm := &irOp.Params[i]
		ca := attrsOf(cop, prm.Name)
		sa := attrsOf(sop, prm.Name)
		pb := paramBind{
			idx:   i,
			typ:   prm.Type,
			isIn:  prm.Dir == ir.In || prm.Dir == ir.InOut,
			isOut: prm.Dir == ir.Out || prm.Dir == ir.InOut,
		}
		if pb.isIn {
			pb.in = runtime.NegotiateIn(ca, sa)
			pb.private = ca.Trashable
		}
		if pb.isOut {
			pb.out = runtime.NegotiateOut(ca, sa)
			b.nOut++
		}
		b.params = append(b.params, pb)
	}
	if irOp.HasResult() {
		b.hasResult = true
		b.resType = irOp.Result
		b.resOut = runtime.NegotiateOut(attrsOf(cop, pres.ResultParam), attrsOf(sop, pres.ResultParam))
	}
	return b
}

var zeroAttrs pres.ParamAttrs

func attrsOf(op *pres.OpPres, name string) *pres.ParamAttrs {
	if op == nil {
		return &zeroAttrs
	}
	if a, ok := op.Params[name]; ok {
		return a
	}
	return &zeroAttrs
}

// Invoke implements runtime.Invoker with a direct call under the
// bind-time negotiated semantics. outs is nil when the operation has
// no out or inout parameters.
func (c *Conn) Invoke(op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	return c.invoke(nil, op, args, outBufs, retBuf)
}

// InvokeContext implements runtime.ContextInvoker: in the same
// domain there is no transport to time out, so the context's role is
// a pre-flight expiry check plus delivery to the work function via
// Call.Context — a cooperative handler observes cancellation itself.
func (c *Conn) InvokeContext(ctx context.Context, op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	return c.invoke(ctx, op, args, outBufs, retBuf)
}

func (c *Conn) invoke(ctx context.Context, op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	b, ok := c.binds[op]
	if !ok {
		return nil, nil, fmt.Errorf("inproc: unknown operation %q", op)
	}
	if len(args) != len(b.op.Params) {
		return nil, nil, fmt.Errorf("inproc: %s takes %d params, have %d", op, len(b.op.Params), len(args))
	}
	if c.stats != nil {
		t0 := time.Now()
		tid := c.stats.NextTraceID()
		c.stats.Trace(tid, b.idx, stats.StageDispatch)
		outs, ret, err := c.invokeBound(ctx, b, args, outBufs, retBuf)
		c.stats.Trace(tid, b.idx, stats.StageReply)
		c.stats.RecordCall(b.idx, time.Since(t0), 0, 0, runtime.OutcomeOf(err))
		return outs, ret, err
	}
	return c.invokeBound(ctx, b, args, outBufs, retBuf)
}

func (c *Conn) invokeBound(ctx context.Context, b *opBind, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	call := c.disp.AcquireCall(b.sidx)
	if ctx != nil {
		call.SetContext(ctx)
	}
	for i := range b.params {
		pb := &b.params[i]
		if pb.isIn {
			if pb.in == runtime.InCopy {
				call.SetIn(pb.idx, runtime.CopyValue(pb.typ, args[pb.idx]), true)
			} else {
				call.SetIn(pb.idx, args[pb.idx], pb.private)
			}
		}
		if pb.isOut && pb.out == runtime.OutCallerBuffer && outBufs != nil {
			call.SetOutBuffer(pb.idx, outBufs[pb.idx])
		}
	}
	if b.hasResult && b.resOut == runtime.OutCallerBuffer {
		call.SetResultBuffer(retBuf)
	}

	if err := c.disp.Invoke(call); err != nil {
		c.disp.ReleaseCall(call)
		return nil, nil, err
	}

	// Deliver out values, copying only where both sides insisted on
	// their own buffer.
	var outs []runtime.Value
	if b.nOut > 0 {
		outs = make([]runtime.Value, len(b.op.Params))
		for i := range b.params {
			pb := &b.params[i]
			if !pb.isOut {
				continue
			}
			outs[pb.idx] = deliverOut(pb.typ, call.Out(pb.idx), pb.out, bufAt(outBufs, pb.idx))
		}
	}
	var ret runtime.Value
	if b.hasResult {
		ret = deliverOut(b.resType, call.Result(), b.resOut, retBuf)
	}
	c.disp.ReleaseCall(call)
	return outs, ret, nil
}

func bufAt(bufs [][]byte, i int) []byte {
	if bufs == nil {
		return nil
	}
	return bufs[i]
}

// deliverOut hands one out value to the client under the negotiated
// semantics.
func deliverOut(t *ir.Type, v runtime.Value, sem runtime.OutSemantics, clientBuf []byte) runtime.Value {
	if sem != runtime.OutCopy {
		// Stub-alloc, server-buffer and caller-buffer semantics all
		// deliver by reference in the same domain.
		return v
	}
	// Both sides insisted: stub copy from the server's buffer into
	// the client's.
	if b, ok := v.([]byte); ok && clientBuf != nil && len(clientBuf) >= len(b) {
		n := copy(clientBuf, b)
		return clientBuf[:n]
	}
	return runtime.CopyValue(t, v)
}
