package runtime

import (
	"context"
	"fmt"
	"time"

	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// A SameDomain is the bound same-domain program (paper §4.4): a client
// presentation calling a dispatcher in its own protection domain, with
// no marshalling between them. NewSameDomain turns each operation of a
// pres.Combine combination into a short parameter program, once: which
// in arguments the server gets a private copy of, which caller buffers
// it fills in place, and which out values reach the client by reference.
// A call then finds its operation by scanning the bound names, checks
// its arity, and runs that program — no other decision is taken per
// call, and nothing is hashed or allocated to take it.
//
// inproc.Conn is a SameDomain. A shmring.Bound runs one for its op
// table, its stats, and the inline calls that have nothing to marshal.
type SameDomain struct {
	disp *Dispatcher
	ops  []sameOp // by the client's op index
	// marshal carries every call that is not direct; see NewSameDomain.
	marshal func(ctx context.Context, op *pres.CombinedOp, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error)

	// stats, when set, receives the client-side view of every call:
	// per-op calls, outcomes and latency. The server-side view lives on
	// the dispatcher's own endpoint. Disabled (nil) costs one pointer
	// check per call.
	stats *stats.Endpoint
}

// A sameOp is one operation's bound program.
type sameOp struct {
	*pres.CombinedOp
	name   string        // the client's name for it, which a call resolves
	server *ir.Operation // the dispatcher's declaration, the Call's Op
	opPres *pres.OpPres  // the dispatcher's presentation of it
	direct bool
	// lend: the Call reads the caller's args slice itself, because no
	// in parameter needs a copy and none is out-only (whose slot the
	// Call must show as nil).
	lend bool
	// callerOuts: some out parameter lands in a caller buffer, so the
	// Call's out buffers are the frame's; callerRet: the result does.
	callerOuts, callerRet bool
	ins                   []sameParam // in and inout parameters, when the Call does not lend args
	outs                  []sameParam // out and inout parameters, then the result
	// private is what ArgPrivate reports, by parameter: built at bind
	// and only read.
	private []bool
}

// A sameParam is one step of an operation's program: an argument
// handed to the work function, or an out value delivered to the client
// (arg -1: the result).
type sameParam struct {
	arg    int
	typ    *ir.Type
	copy   bool // in: neither side allows a borrow (InCopy) and the value is mutable; out: both sides insist on their own buffer (OutCopy)
	caller bool // out: the server fills the caller's buffer (OutCallerBuffer)
	view   callerView
}

// NewSameDomain binds comb's client to disp. A nil marshal runs every
// call direct. Otherwise marshal carries the calls, and only when the
// server runs on the caller's goroutine (inline) does a call with
// nothing to marshal — no parameters, no result — run direct instead.
func NewSameDomain(comb *pres.Combination, disp *Dispatcher, marshal func(ctx context.Context, op *pres.CombinedOp, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error), inline bool) *SameDomain {
	s := &SameDomain{disp: disp, ops: make([]sameOp, len(comb.Ops)), marshal: marshal}
	n := 0
	for i := range comb.Ops {
		n += len(comb.Ops[i].Params)
	}
	steps := make([]sameParam, 0, 2*n+len(comb.Ops)) // every op's ins, then its outs
	private := make([]bool, n)
	for i := range comb.Ops {
		cop := &comb.Ops[i]
		o := &s.ops[i]
		o.CombinedOp, o.name = cop, cop.Op.Name
		o.server, o.opPres = &disp.Pres.Interface.Ops[cop.Server], disp.opPres[cop.Server]
		o.direct = marshal == nil || inline && len(cop.Params) == 0 && !cop.Result.IsOut
		o.private, private = private[:len(cop.Params):len(cop.Params)], private[len(cop.Params):]
		o.lend = true
		for k := range cop.Params {
			p := &cop.Params[k]
			if p.IsIn {
				// A copy of a scalar, string or port is the value itself.
				copied := p.In == pres.InCopy
				o.private[k] = copied || p.Private
				o.lend = o.lend && !(copied && mutable(p.Type))
			} else {
				o.lend = false
			}
		}
		base := len(steps)
		for k := range cop.Params {
			if p := &cop.Params[k]; p.IsIn && !o.lend {
				steps = append(steps, sameParam{arg: k, typ: p.Type, copy: p.In == pres.InCopy && mutable(p.Type)})
			}
		}
		mid := len(steps)
		for k := range cop.Params {
			if p := &cop.Params[k]; p.IsOut {
				steps = append(steps, outStep(k, p))
				o.callerOuts = o.callerOuts || p.Out == pres.OutCallerBuffer
			}
		}
		if cop.Result.IsOut {
			steps = append(steps, outStep(-1, &cop.Result))
			o.callerRet = cop.Result.Out == pres.OutCallerBuffer
		}
		o.ins, o.outs = steps[base:mid:mid], steps[mid:len(steps):len(steps)]
	}
	return s
}

func outStep(arg int, p *pres.CombinedParam) sameParam {
	return sameParam{arg: arg, typ: p.Type, copy: p.Out == pres.OutCopy, caller: p.Out == pres.OutCallerBuffer}
}

// EnableStats switches on client-side observability for this binding,
// creating the endpoint on first use. Call before issuing calls.
func (s *SameDomain) EnableStats() *stats.Endpoint {
	if s.stats == nil {
		names := make([]string, len(s.ops))
		for i := range s.ops {
			names[i] = s.ops[i].Op.Name
		}
		s.stats = stats.New(names)
	}
	return s.stats
}

// Invoke implements Invoker under the bind-time negotiated semantics.
// outs is nil when the operation has no out or inout parameters.
func (s *SameDomain) Invoke(op string, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	return s.invoke(nil, op, args, outBufs, retBuf)
}

// InvokeContext implements ContextInvoker: in the same domain there is
// no transport to time out, so the context's role is a pre-flight
// expiry check plus delivery to the work function via Call.Context — a
// cooperative handler observes cancellation itself.
func (s *SameDomain) InvokeContext(ctx context.Context, op string, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	return s.invoke(ctx, op, args, outBufs, retBuf)
}

func (s *SameDomain) invoke(ctx context.Context, op string, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	o := s.lookup(op)
	if o == nil {
		return nil, nil, fmt.Errorf("runtime: unknown operation %q", op)
	}
	if len(args) != len(o.Params) {
		return nil, nil, fmt.Errorf("runtime: %s takes %d params, have %d", op, len(o.Params), len(args))
	}
	if s.stats == nil {
		return s.run(ctx, o, args, outBufs, retBuf)
	}
	t0 := time.Now()
	tid := s.stats.NextTraceID()
	s.stats.Trace(tid, o.Index, stats.StageDispatch)
	outs, ret, err := s.run(ctx, o, args, outBufs, retBuf)
	s.stats.Trace(tid, o.Index, stats.StageReply)
	s.stats.RecordCall(o.Index, time.Since(t0), 0, 0, serverOutcome(err))
	return outs, ret, err
}

// lookup returns the bound operation named op, or nil. An interface
// has a handful of operations, and a string compare tests the lengths
// before any byte, so scanning the bound names costs less than hashing
// the one asked for.
func (s *SameDomain) lookup(op string) *sameOp {
	for i := range s.ops {
		if s.ops[i].name == op {
			return &s.ops[i]
		}
	}
	return nil
}

// run executes one call: through the transport's marshal path, or as
// the direct program.
func (s *SameDomain) run(ctx context.Context, o *sameOp, args []Value, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	if !o.direct {
		return s.marshal(ctx, o.CombinedOp, args, outBufs, retBuf)
	}
	f := acquireFrame()
	n := len(o.Params)
	f.reserve(n)
	// The frame's storage is clear between calls, so its byte slots
	// serve as the Call's (empty) request buffers and, unless a caller
	// buffer lands in one, its out buffers.
	c := &f.call
	c.Op, c.idx, c.opPres, c.ctx = o.server, o.Server, o.opPres, ctx
	c.inBytes, c.inPrivate, c.outs, c.outBufs = f.inBytes[:n], o.private, f.outs[:n], f.outBufs[:n]
	if o.lend {
		c.in = args
	} else {
		c.in = f.in[:n]
		for i := range o.ins {
			p := &o.ins[i]
			v := args[p.arg]
			if p.copy {
				var err error
				if v, err = CopyValue(p.typ, v); err != nil {
					o.release(f)
					return nil, nil, fmt.Errorf("%s param %s: %w", o.server.Name, o.server.Params[p.arg].Name, err)
				}
			}
			c.in[p.arg] = v
		}
	}
	if o.callerOuts && outBufs != nil {
		for i := range o.outs {
			if p := &o.outs[i]; p.caller && p.arg >= 0 {
				c.outBufs[p.arg] = outBufs[p.arg]
			}
		}
	}
	if o.callerRet {
		c.retBuf = retBuf
	}
	if err := s.disp.invoke(c, 0); err != nil {
		o.release(f)
		return nil, nil, err
	}
	var outs []Value
	var ret Value
	if o.Outs > 0 {
		outs = make([]Value, n)
	}
	// Deferred actions release server storage the by-reference values
	// alias, so a call that scheduled any delivers copies.
	deferred := len(c.afterReply) > 0
	var err error
	for i := range o.outs {
		p := &o.outs[i]
		if p.arg < 0 {
			ret, err = p.deliver(&c.ret, retBuf, deferred)
		} else {
			var buf []byte
			if outBufs != nil {
				buf = outBufs[p.arg]
			}
			outs[p.arg], err = p.deliver(&c.outs[p.arg], buf, deferred)
		}
		if err != nil {
			outs, ret, err = nil, nil, replyParamErr(o.server, p.arg, err)
			break
		}
	}
	if deferred {
		c.runAfterReply()
	}
	o.release(f)
	return outs, ret, err
}

// release ends a direct call on f and returns it to the pool: it
// clears what the call set — the lent arguments, the values and
// buffers it filled, the context — and drops the Call's views of the
// caller's arguments and the binding's bind-time state. The Call's
// slices into frame storage stay; the next call of either kind
// re-points them.
func (o *sameOp) release(f *Frame) {
	c := &f.call
	if !o.lend {
		clear(c.in)
	}
	if o.callerOuts {
		clear(f.outBufs[:len(o.Params)])
	}
	for i := range c.outs {
		c.outs[i].clear()
	}
	c.ret.clear()
	if len(c.afterReply) > 0 {
		clear(c.afterReply)
		c.afterReply = c.afterReply[:0]
	}
	c.Op, c.opPres, c.in, c.inPrivate = nil, nil, nil, nil
	c.retBuf, c.ctx = nil, nil
	frames.Put(f)
}

// deliver hands one out value, in slot s, to the client. Only where
// both sides insisted on their own buffer does the stub copy — straight
// from the slot into the client's buffer when it fits — and every other
// semantics delivers by reference, in a box of its own, unless deferred
// actions are about to release what the reference aliases. A buffer
// that lands in the client's buffer, copied there or filled in place by
// the server, is the parameter's bound view of it (slab.go). A value
// outside the mapping fails as it fails a reply encode.
func (p *sameParam) deliver(s *slot, buf []byte, deferred bool) (Value, error) {
	switch {
	case s.kind == slotOther:
		return nil, typeErr(p.typ, s.value())
	case p.caller && s.kind == slotBytes && cap(s.byts) > 0 && cap(s.byts) == cap(buf) && &s.byts[:1][0] == &buf[:1][0]:
		return p.view.land(buf, len(s.byts)), nil
	case p.copy && s.kind == slotBytes && buf != nil && len(buf) >= len(s.byts):
		return p.view.land(buf, copy(buf, s.byts)), nil
	case (p.copy || deferred) && mutable(p.typ):
		// CopyValue keeps nothing of a mutable value's view.
		return CopyValue(p.typ, s.view())
	}
	return s.value(), nil
}
