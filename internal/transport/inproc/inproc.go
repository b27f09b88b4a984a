// Package inproc is the same-domain transport (paper §4.4): when
// client and server share a protection domain, RPC short-circuits to
// a direct invocation with no marshaling, but the stubs must still
// honor both endpoints' presentations.
//
// The invocation semantics — copy vs borrow for in parameters, who
// provides the buffer for out parameters — are derived from the two
// sides' presentation attributes once, at Connect time, by
// pres.Combine: the combination signature the paper describes in
// §4.5, which pairs operations by name and parameters by position.
// Presentations are part of the binding, so a presentation changed
// after Connect requires a new Connect, exactly as a re-bind would over
// a message transport. The per-call path is then a straight loop over
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
	binds      map[string]*pres.CombinedOp

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

// Connect binds a client presentation to a dispatcher in the same
// domain. The two presentations may differ arbitrarily, but the
// network contract must match — the same check a remote bind
// performs. Each operation's invocation program is its entry in the
// pres.Combine combination: every negotiation the engine would
// otherwise redo per call, resolved at bind time.
func Connect(clientPres *pres.Presentation, disp *runtime.Dispatcher) (*Conn, error) {
	comb, err := pres.Combine(clientPres, disp.Pres)
	if err != nil {
		return nil, fmt.Errorf("inproc: %w", err)
	}
	c := &Conn{clientPres: clientPres, disp: disp, binds: make(map[string]*pres.CombinedOp, len(comb.Ops))}
	for i := range comb.Ops {
		c.binds[comb.Ops[i].Op.Name] = &comb.Ops[i]
	}
	return c, nil
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
	if len(args) != len(b.Op.Params) {
		return nil, nil, fmt.Errorf("inproc: %s takes %d params, have %d", op, len(b.Op.Params), len(args))
	}
	if c.stats != nil {
		t0 := time.Now()
		tid := c.stats.NextTraceID()
		c.stats.Trace(tid, b.Index, stats.StageDispatch)
		outs, ret, err := c.invokeBound(ctx, b, args, outBufs, retBuf)
		c.stats.Trace(tid, b.Index, stats.StageReply)
		c.stats.RecordCall(b.Index, time.Since(t0), 0, 0, runtime.OutcomeOf(err))
		return outs, ret, err
	}
	return c.invokeBound(ctx, b, args, outBufs, retBuf)
}

func (c *Conn) invokeBound(ctx context.Context, b *pres.CombinedOp, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	call := c.disp.AcquireCall(b.Server)
	if ctx != nil {
		call.SetContext(ctx)
	}
	for i := range b.Params {
		pb := &b.Params[i]
		if pb.IsIn {
			if pb.In == pres.InCopy {
				call.SetIn(i, runtime.CopyValue(pb.Type, args[i]), true)
			} else {
				call.SetIn(i, args[i], pb.Private)
			}
		}
		if pb.IsOut && pb.Out == pres.OutCallerBuffer && outBufs != nil {
			call.SetOutBuffer(i, outBufs[i])
		}
	}
	if b.Result.IsOut && b.Result.Out == pres.OutCallerBuffer {
		call.SetResultBuffer(retBuf)
	}

	if err := c.disp.Invoke(call); err != nil {
		c.disp.ReleaseCall(call)
		return nil, nil, err
	}

	// Deliver out values, copying only where both sides insisted on
	// their own buffer.
	var outs []runtime.Value
	if b.Outs > 0 {
		outs = make([]runtime.Value, len(b.Op.Params))
		for i := range b.Params {
			pb := &b.Params[i]
			if !pb.IsOut {
				continue
			}
			outs[i] = deliverOut(pb.Type, call.Out(i), pb.Out, bufAt(outBufs, i))
		}
	}
	var ret runtime.Value
	if b.Result.IsOut {
		ret = deliverOut(b.Result.Type, call.Result(), b.Result.Out, retBuf)
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
func deliverOut(t *ir.Type, v runtime.Value, sem pres.OutSemantics, clientBuf []byte) runtime.Value {
	if sem != pres.OutCopy {
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
