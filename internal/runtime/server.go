package runtime

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// A Handler is a server work function for one operation.
type Handler func(c *Call) error

// A Call carries one invocation to a server work function. The
// presentation decides what the work function sees: whether in
// buffers are private, whether an out buffer was provided for it to
// fill, and whether buffers it returns will be deallocated by the
// stub (move semantics) or left to the server ([dealloc(never)]).
type Call struct {
	Op *ir.Operation

	in         []Value
	inPrivate  []bool
	outs       []Value
	ret        Value
	outBufs    [][]byte
	retBuf     []byte
	opPres     *pres.OpPres
	afterReply []func()
	ctx        context.Context
}

// Context returns the context the call was dispatched under:
// transports that plumb per-call deadlines (InvokeContext,
// ServeMessageContext) install it so work functions can observe
// cancellation; everywhere else it is context.Background().
func (c *Call) Context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// SetContext installs the dispatch context; transports call this
// before Invoke.
func (c *Call) SetContext(ctx context.Context) { c.ctx = ctx }

// AfterReply schedules fn to run once the reply has been marshaled —
// the stub's deallocation point. A [dealloc(never)] server uses this
// to commit consumption of storage it lent to the stub (e.g. advance
// the circular-buffer read pointer) without racing the marshal; this
// is the "synchronization issue" footnote 5 of the paper refers to.
func (c *Call) AfterReply(fn func()) {
	c.afterReply = append(c.afterReply, fn)
}

// RunAfterReply runs the deferred actions; transports call it after
// the reply has been marshaled out of server-owned storage.
func (c *Call) RunAfterReply() {
	for _, fn := range c.afterReply {
		fn()
	}
	c.afterReply = nil
}

// Arg returns the value of parameter i (in or inout).
func (c *Call) Arg(i int) Value { return c.in[i] }

// ArgBytes returns parameter i as a byte buffer.
func (c *Call) ArgBytes(i int) []byte {
	b, _ := c.in[i].([]byte)
	return b
}

// ArgPrivate reports whether the work function may modify the
// buffer behind parameter i: true when the stub copied it or the
// client declared it [trashable]. A work function that needs to
// modify a non-private buffer must make its own copy — the glue the
// paper's fixed borrow-semantics systems force (§4.4.1).
func (c *Call) ArgPrivate(i int) bool { return c.inPrivate[i] }

// OutBuffer returns the negotiated landing buffer for out parameter
// i, or nil when the server should provide the data itself
// (server-buffer or stub-alloc semantics).
func (c *Call) OutBuffer(i int) []byte { return c.outBufs[i] }

// ResultBuffer returns the negotiated landing buffer for the
// result, or nil.
func (c *Call) ResultBuffer() []byte { return c.retBuf }

// SetOut supplies the value of out/inout parameter i.
func (c *Call) SetOut(i int, v Value) { c.outs[i] = v }

// SetResult supplies the operation result.
func (c *Call) SetResult(v Value) { c.ret = v }

// SetIn primes parameter i before invocation; transports call this.
func (c *Call) SetIn(i int, v Value, private bool) {
	c.in[i] = v
	c.inPrivate[i] = private
}

// SetOutBuffer installs a caller-provided landing buffer for out
// parameter i (caller-buffer semantics).
func (c *Call) SetOutBuffer(i int, buf []byte) { c.outBufs[i] = buf }

// SetResultBuffer installs a caller-provided landing buffer for the
// result.
func (c *Call) SetResultBuffer(buf []byte) { c.retBuf = buf }

// Out returns the value set for out/inout parameter i.
func (c *Call) Out(i int) Value { return c.outs[i] }

// Result returns the value set for the operation result.
func (c *Call) Result() Value { return c.ret }

// ResultMoved reports whether the stub will take ownership of
// (“deallocate”) the buffer returned as the result — CORBA move
// semantics. Under [dealloc(never)] it reports false and the server
// may return a slice of storage it keeps, e.g. its circular buffer
// (paper §4.2.1).
func (c *Call) ResultMoved() bool {
	a, ok := c.opPres.Params[pres.ResultParam]
	if !ok {
		return true
	}
	return a.Dealloc != pres.DeallocNever
}

// errNoHandler distinguishes unimplemented operations.
var errNoHandler = errors.New("runtime: no handler registered")

// A Dispatcher is the server half of the interpreted stubs: a
// presentation plus a work function per operation.
type Dispatcher struct {
	Pres     *pres.Presentation
	handlers map[string]Handler
	hooks    SpecialHooks
	callPool sync.Pool
	stats    *stats.Endpoint
}

// NewDispatcher creates a dispatcher serving p's interface under
// p's presentation.
func NewDispatcher(p *pres.Presentation) *Dispatcher {
	return &Dispatcher{Pres: p, handlers: make(map[string]Handler)}
}

// SetHooks installs the [special] marshal hooks used when serving
// message transports.
func (d *Dispatcher) SetHooks(h SpecialHooks) { d.hooks = h }

// Hooks returns the installed hooks.
func (d *Dispatcher) Hooks() SpecialHooks { return d.hooks }

// Handle registers the work function for op.
func (d *Dispatcher) Handle(op string, h Handler) {
	d.handlers[op] = h
}

// EnableStats switches on server-side observability, creating the
// endpoint on first use: per-op dispatch counters and latency, codec
// meters on the message paths, and session replay/bad-frame counts
// when a SessionServer wraps this dispatcher. Enable before serving.
func (d *Dispatcher) EnableStats() *stats.Endpoint {
	if d.stats == nil {
		d.stats = stats.New(opNames(d.Pres))
	}
	return d.stats
}

// SetStats installs (or, with nil, removes) the observability
// endpoint; EnableStats is the common path.
func (d *Dispatcher) SetStats(e *stats.Endpoint) { d.stats = e }

// Stats snapshots the server-side counters; on a disabled dispatcher
// the snapshot is empty but non-nil.
func (d *Dispatcher) Stats() *stats.Snapshot { return d.stats.Snapshot() }

// opNames lists p's operations in interface order — the op-index
// space shared by plans, dispatchers and stats endpoints.
func opNames(p *pres.Presentation) []string {
	names := make([]string, len(p.Interface.Ops))
	for i := range p.Interface.Ops {
		names[i] = p.Interface.Ops[i].Name
	}
	return names
}

// OutcomeOf classifies a call error for the stats counters: nil is
// OK, a recovered handler panic is Panicked, a deadline expiry is
// TimedOut, anything else Failed. Transports that keep their own
// endpoints (inproc, pipeconn) share this taxonomy.
func OutcomeOf(err error) stats.Outcome { return serverOutcome(err) }

// serverOutcome classifies a dispatch error for the counters.
func serverOutcome(err error) stats.Outcome {
	if err == nil {
		return stats.OK
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return stats.Panicked
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return stats.TimedOut
	}
	return stats.Failed
}

// A PanicError reports a server work function that panicked; the
// dispatcher converts the panic into an RPC error reply so one bad
// request cannot take the whole server process down.
type PanicError struct {
	Op    string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runtime: handler %s panicked: %v", e.Op, e.Value)
}

// Invoke runs the work function for a fully prepared Call. A
// panicking work function is recovered into a *PanicError: the
// transport turns it into an error reply and keeps serving.
func (d *Dispatcher) Invoke(c *Call) error {
	return d.invoke(c, 0)
}

// invoke is Invoke carrying the session layer's trace id. With stats
// disabled the extra cost is exactly the one nil check.
func (d *Dispatcher) invoke(c *Call, tid uint32) error {
	h, ok := d.handlers[c.Op.Name]
	if !ok {
		err := fmt.Errorf("%w: %s", errNoHandler, c.Op.Name)
		if d.stats != nil {
			d.stats.RecordCall(d.stats.OpIndex(c.Op.Name), 0, 0, 0, stats.Failed)
		}
		return err
	}
	if d.stats == nil {
		return invokeRecover(h, c)
	}
	op := d.stats.OpIndex(c.Op.Name)
	d.stats.Trace(tid, op, stats.StageDispatch)
	t0 := time.Now()
	err := invokeRecover(h, c)
	d.stats.RecordCall(op, time.Since(t0), 0, 0, serverOutcome(err))
	return err
}

// invokeRecover isolates the recover so Invoke's own frame stays
// defer-free on the zero-alloc hot path.
func invokeRecover(h Handler, c *Call) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Op: c.Op.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	return h(c)
}

// NewCall prepares a Call for the named operation; transports fill
// the inputs before Invoke.
func (d *Dispatcher) NewCall(op *ir.Operation) *Call {
	n := len(op.Params)
	return &Call{
		Op:        op,
		in:        make([]Value, n),
		inPrivate: make([]bool, n),
		outs:      make([]Value, n),
		outBufs:   make([][]byte, n),
		opPres:    d.Pres.Op(op.Name),
	}
}

// AcquireCall is NewCall with recycling: the Call and its slices come
// from a pool, so the steady-state invocation path allocates nothing.
// Pair with ReleaseCall once the call's values are no longer needed.
func (d *Dispatcher) AcquireCall(op *ir.Operation) *Call {
	c, _ := d.callPool.Get().(*Call)
	if c == nil {
		c = &Call{}
	}
	n := len(op.Params)
	c.Op = op
	c.opPres = d.Pres.Op(op.Name)
	if cap(c.in) < n {
		c.in = make([]Value, n)
		c.inPrivate = make([]bool, n)
		c.outs = make([]Value, n)
		c.outBufs = make([][]byte, n)
	} else {
		c.in = c.in[:n]
		c.inPrivate = c.inPrivate[:n]
		c.outs = c.outs[:n]
		c.outBufs = c.outBufs[:n]
	}
	return c
}

// ReleaseCall returns a Call obtained from AcquireCall to the pool,
// dropping every reference it holds so pooled storage does not pin
// user buffers.
func (d *Dispatcher) ReleaseCall(c *Call) {
	for i := range c.in {
		c.in[i] = nil
		c.inPrivate[i] = false
		c.outs[i] = nil
		c.outBufs[i] = nil
	}
	c.Op = nil
	c.opPres = nil
	c.ret = nil
	c.retBuf = nil
	c.ctx = nil
	c.afterReply = c.afterReply[:0]
	d.callPool.Put(c)
}

// Reply status words on the wire between runtime client and
// dispatcher.
const (
	replyOK  = 0
	replyErr = 1
)

// ServeMessage handles one marshaled request arriving from a
// message transport: decode under the server plan, invoke, encode
// the reply (status word first) into enc. The Call and decoder are
// pooled, so the steady-state path allocates only what the decoded
// argument values themselves need.
func (d *Dispatcher) ServeMessage(plan *Plan, opIdx int, body []byte, enc Encoder) {
	d.ServeMessageContext(nil, plan, opIdx, body, enc)
}

// ServeMessageContext is ServeMessage with a dispatch context: work
// functions observe it through Call.Context, so a client deadline
// that a session transport forwards can cancel server-side work. ctx
// may be nil (treated as Background).
func (d *Dispatcher) ServeMessageContext(ctx context.Context, plan *Plan, opIdx int, body []byte, enc Encoder) {
	d.serveMessageTraced(ctx, plan, opIdx, body, enc, 0)
}

// serveMessageTraced is the message-serving core, tagged with the
// session layer's trace id (0 = untraced).
func (d *Dispatcher) serveMessageTraced(ctx context.Context, plan *Plan, opIdx int, body []byte, enc Encoder, tid uint32) {
	if opIdx < 0 || opIdx >= len(plan.Ops) {
		encodeFailure(enc, fmt.Sprintf("bad operation index %d", opIdx))
		return
	}
	op := plan.Ops[opIdx]
	dec := plan.AcquireDecoder(body)
	call := d.AcquireCall(op.Op)
	call.ctx = ctx
	defer d.ReleaseCall(call)
	defer plan.ReleaseDecoder(dec)
	encBase := 0
	if d.stats != nil {
		d.stats.Decode.Add(len(body))
		encBase = len(enc.Bytes())
	}
	if err := op.DecodeRequestInto(dec, call.in); err != nil {
		encodeFailure(enc, err.Error())
		return
	}
	if d.stats != nil {
		d.stats.Trace(tid, opIdx, stats.StageServerDecode)
	}
	for i := range call.inPrivate {
		// Data that crossed a protection boundary is always private.
		call.inPrivate[i] = true
	}
	if err := d.invoke(call, tid); err != nil {
		encodeFailure(enc, err.Error())
		d.meterReply(opIdx, encBase, len(body), enc, tid)
		return
	}
	enc.PutUint32(replyOK)
	if err := op.EncodeReply(enc, call.outs, call.ret); err != nil {
		enc.Reset()
		encodeFailure(enc, err.Error())
	}
	d.meterReply(opIdx, encBase, len(body), enc, tid)
	// The reply is marshaled: server-owned storage is free again.
	call.RunAfterReply()
}

// meterReply records the marshaled reply once it is in enc.
func (d *Dispatcher) meterReply(opIdx, encBase, bodyLen int, enc Encoder, tid uint32) {
	if d.stats == nil {
		return
	}
	out := len(enc.Bytes()) - encBase
	d.stats.Encode.Add(out)
	d.stats.AddOp(opIdx, stats.OpBytesOut, out)
	d.stats.AddOp(opIdx, stats.OpBytesIn, bodyLen)
	d.stats.Trace(tid, opIdx, stats.StageServerReply)
}

// ServeMessageRaw is ServeMessage for self-framing transports: no
// status word is emitted; decode, application, and marshal errors
// are returned for the transport's own error channel.
func (d *Dispatcher) ServeMessageRaw(plan *Plan, opIdx int, body []byte, enc Encoder) error {
	return d.ServeMessageRawContext(nil, plan, opIdx, body, enc)
}

// ServeMessageRawContext is ServeMessageRaw with a dispatch context
// (see ServeMessageContext). ctx may be nil.
func (d *Dispatcher) ServeMessageRawContext(ctx context.Context, plan *Plan, opIdx int, body []byte, enc Encoder) error {
	if opIdx < 0 || opIdx >= len(plan.Ops) {
		return fmt.Errorf("runtime: bad operation index %d", opIdx)
	}
	op := plan.Ops[opIdx]
	dec := plan.AcquireDecoder(body)
	call := d.AcquireCall(op.Op)
	call.ctx = ctx
	defer d.ReleaseCall(call)
	defer plan.ReleaseDecoder(dec)
	encBase := 0
	if d.stats != nil {
		d.stats.Decode.Add(len(body))
		encBase = len(enc.Bytes())
	}
	if err := op.DecodeRequestInto(dec, call.in); err != nil {
		return err
	}
	if d.stats != nil {
		d.stats.Trace(0, opIdx, stats.StageServerDecode)
	}
	for i := range call.inPrivate {
		call.inPrivate[i] = true
	}
	if err := d.Invoke(call); err != nil {
		return err
	}
	if err := op.EncodeReply(enc, call.outs, call.ret); err != nil {
		return err
	}
	d.meterReply(opIdx, encBase, len(body), enc, 0)
	call.RunAfterReply()
	return nil
}

func encodeFailure(enc Encoder, msg string) {
	enc.PutUint32(replyErr)
	enc.PutString(msg)
}

// A RemoteError is an application or marshal error reported by the
// server over a message transport.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "runtime: remote: " + e.Msg }
