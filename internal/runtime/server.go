package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
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

	idx        int // Op's index in the interface: the handler and stats slot
	in         []Value
	inBytes    [][]byte // request byte buffers landed unboxed; see Arg
	inPrivate  []bool
	outs       []slot // by parameter; see SetOut
	ret        slot
	outBufs    [][]byte
	retBuf     []byte
	opPres     *pres.OpPres
	afterReply []func()
	ctx        context.Context
}

// Context returns the context the call was dispatched under: paths
// that plumb per-call deadlines (the same-domain program's
// InvokeContext, Frame.ServeMessageRawContext) install it so work
// functions can observe cancellation; everywhere else it is
// context.Background().
func (c *Call) Context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// AfterReply schedules fn to run once the reply has been marshaled —
// the stub's deallocation point. A [dealloc(never)] server uses this
// to commit consumption of storage it lent to the stub (e.g. advance
// the circular-buffer read pointer) without racing the marshal; this
// is the "synchronization issue" footnote 5 of the paper refers to.
func (c *Call) AfterReply(fn func()) {
	c.afterReply = append(c.afterReply, fn)
}

// runAfterReply runs the deferred actions once the reply no longer
// needs server-owned storage: marshaled out of it, or copied out of it
// by the same-domain program.
func (c *Call) runAfterReply() {
	for i, fn := range c.afterReply {
		fn()
		c.afterReply[i] = nil
	}
	c.afterReply = c.afterReply[:0]
}

// Arg returns the value of parameter i (in or inout). A byte buffer
// the request decode borrowed from the message sits unboxed in the
// Call; Arg boxes it here, for the work function that asks — ArgBytes
// reads it without.
func (c *Call) Arg(i int) Value {
	if b := c.inBytes[i]; b != nil {
		return b
	}
	return c.in[i]
}

// ArgBytes returns parameter i as a byte buffer.
func (c *Call) ArgBytes(i int) []byte {
	if b := c.inBytes[i]; b != nil {
		return b
	}
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

// SetOut supplies the value of out/inout parameter i. The Call keeps
// the value's contents, not its box: v must be a Value of the mapping
// value.go lists, and a handler's c.SetOut(i, buf[:n]) builds its box
// on its own stack. A value of any other Go type keeps only its type,
// and the reply then fails as a mistyped value does.
func (c *Call) SetOut(i int, v Value) { c.outs[i].set(v) }

// SetResult supplies the operation result. Like SetOut, it keeps the
// value's contents, not its box.
func (c *Call) SetResult(v Value) { c.ret.set(v) }

// Out returns the value set for out/inout parameter i, boxed afresh: a
// value outside the mapping comes back as its type's zero value.
func (c *Call) Out(i int) Value { return c.outs[i].value() }

// Result returns the value set for the operation result, boxed afresh
// as Out does.
func (c *Call) Result() Value { return c.ret.value() }

// ResultMoved reports whether the stub will take ownership of
// (“deallocate”) the buffer returned as the result — CORBA move
// semantics. Under [dealloc(never)] it reports false and the server
// may return a slice of storage it keeps, e.g. its circular buffer
// (paper §4.2.1).
func (c *Call) ResultMoved() bool {
	a := c.opPres.Result()
	return a == nil || a.Dealloc != pres.DeallocNever
}

// A slot holds one value a work function set, unboxed: kind says which
// field holds it. set type-switches over value.go's closed mapping, so
// the slot keeps what the Value points at, never the Value itself. A
// transient view (view) points at the slot for one reply encode; a
// consumer that keeps the value gets a box of its own (value).
type slot struct {
	kind slotKind
	leaf leafKind     // slotLeaf: which scalar
	word [1]uint64    // slotLeaf: its wire bits, readLeaf's form; a bool is 0 or 1
	str  string       // slotString
	byts []byte       // slotBytes
	vals []Value      // slotValues
	typ  reflect.Type // slotOther: the type of a value outside the mapping
}

type slotKind uint8

const (
	slotNil slotKind = iota
	slotLeaf
	slotString
	slotBytes
	slotValues
	slotOther
)

func (s *slot) set(v Value) {
	if s.kind != slotNil {
		s.clear()
	}
	switch x := v.(type) {
	case nil:
	case bool:
		w := uint64(0)
		if x {
			w = 1
		}
		s.setLeaf(leafBool, w)
	case int32:
		s.setLeaf(leafInt32, uint64(uint32(x)))
	case uint32:
		s.setLeaf(leafUint32, uint64(x))
	case float32:
		s.setLeaf(leafFloat32, uint64(math.Float32bits(x)))
	case PortName:
		s.setLeaf(leafPort, uint64(x))
	case int64:
		s.setLeaf(leafInt64, uint64(x))
	case uint64:
		s.setLeaf(leafUint64, x)
	case float64:
		s.setLeaf(leafFloat64, math.Float64bits(x))
	case string:
		s.kind, s.str = slotString, x
	case []byte:
		s.kind, s.byts = slotBytes, x
	case []Value:
		s.kind, s.vals = slotValues, x
	default:
		// reflect.TypeOf reads only the type word: v's box stays the
		// caller's.
		s.kind, s.typ = slotOther, reflect.TypeOf(v)
	}
}

func (s *slot) setLeaf(k leafKind, w uint64) {
	s.kind, s.leaf, s.word[0] = slotLeaf, k, w
}

// clear empties the slot. Only the field its kind names holds anything,
// so clearing writes that field alone: a whole-slot store is a write
// barrier per pointer word while the collector marks.
func (s *slot) clear() {
	switch s.kind {
	case slotLeaf:
		s.word[0] = 0
	case slotString:
		s.str = ""
	case slotBytes:
		s.byts = nil
	case slotValues:
		s.vals = nil
	case slotOther:
		s.typ = nil
	}
	s.kind = slotNil
}

// view returns the slot's value as a Value whose data word points at
// the slot (slab.go's transient-view rule): it is valid until the slot
// is next set or cleared, so only a reply encode that is done before
// then may read it, and it never reaches user code.
func (s *slot) view() Value {
	switch s.kind {
	case slotLeaf:
		if s.leaf == leafBool {
			return s.word[0] != 0
		}
		return boxLeaf(s.word[:], 0, s.leaf, s.word[0])
	case slotString:
		return stringBox.at(&s.str)
	case slotBytes:
		return bytesBox.at(&s.byts)
	case slotValues:
		return valuesBox.at(&s.vals)
	}
	return s.value()
}

// value returns the slot's value in a box of its own, which the caller
// may keep; a scalar boxes as a decoded one does (boxScalar). A value
// outside the mapping is its type's zero value: what is left of it, and
// enough for typeErr's text.
func (s *slot) value() Value {
	switch s.kind {
	case slotLeaf:
		return boxScalar(s.leaf, s.word[0])
	case slotString:
		return s.str
	case slotBytes:
		return s.byts
	case slotValues:
		return s.vals
	case slotOther:
		return reflect.Zero(s.typ).Interface()
	}
	return nil
}

// errNoHandler distinguishes unimplemented operations.
var errNoHandler = errors.New("runtime: no handler registered")

// A Dispatcher is the server half of the interpreted stubs: a
// presentation plus a work function per operation. Work functions and
// operation presentations sit in tables indexed by operation — the
// index space plans, stats endpoints and the wire already share — so
// serving a call looks nothing up by name.
type Dispatcher struct {
	Pres     *pres.Presentation
	handlers []Handler      // by op index; nil = not registered
	opPres   []*pres.OpPres // by op index
	stats    *stats.Endpoint

	// mu guards the server plans, compiled once per codec under hooks —
	// the one home of the server's [special] routines.
	mu    sync.Mutex
	hooks SpecialHooks
	plans []*Plan
}

// NewDispatcher creates a dispatcher serving p's interface under
// p's presentation.
func NewDispatcher(p *pres.Presentation) *Dispatcher {
	ops := p.Interface.Ops
	d := &Dispatcher{Pres: p, handlers: make([]Handler, len(ops)), opPres: make([]*pres.OpPres, len(ops))}
	for i := range ops {
		d.opPres[i] = &p.Ops[i]
	}
	return d
}

// SetHooks installs the [special] marshal hooks the dispatcher's server
// plans are compiled under. The hooks are part of every plan Plan has
// compiled, so setting them after the first compile is a programming
// error and panics.
func (d *Dispatcher) SetHooks(h SpecialHooks) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.plans) > 0 {
		panic(fmt.Sprintf("runtime: SetHooks on interface %s after its server plan was compiled", d.Pres.Interface.Name))
	}
	d.hooks = h
}

// Plan returns the dispatcher's server plan for codec: compiled from its
// presentation under its hooks on first use, then shared by every
// transport that serves it. Safe for concurrent use.
func (d *Dispatcher) Plan(codec Codec) (*Plan, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.plans {
		if p.Codec == codec {
			return p, nil
		}
	}
	p, err := NewPlan(d.Pres, codec, d.hooks)
	if err != nil {
		return nil, err
	}
	d.plans = append(d.plans, p)
	return p, nil
}

// Handle registers the work function for op. Naming an operation the
// interface does not have is a programming error — no request could
// ever reach the handler — and panics.
func (d *Dispatcher) Handle(op string, h Handler) {
	d.handlers[d.mustIndex(op)] = h
}

func (d *Dispatcher) mustIndex(op string) int {
	if i := opIndex(d.Pres.Interface.Ops, op); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("runtime: interface %s has no operation %q", d.Pres.Interface.Name, op))
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

// serverOutcome classifies a call error for the stats counters: nil is
// OK, a recovered handler panic is Panicked, a deadline expiry is
// TimedOut, anything else Failed. The same-domain program's client-side
// endpoint shares this taxonomy.
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

// invoke runs the work function for a fully prepared Call, under the
// session layer's trace id (0 = untraced). A panicking work function is
// recovered into a *PanicError: the transport turns it into an error
// reply and keeps serving. With stats disabled the extra cost is
// exactly the one nil check.
func (d *Dispatcher) invoke(c *Call, tid uint32) error {
	h := d.handlers[c.idx]
	if h == nil {
		if d.stats != nil {
			d.stats.RecordCall(c.idx, 0, 0, 0, stats.Failed)
		}
		return fmt.Errorf("%w: %s", errNoHandler, c.Op.Name)
	}
	if d.stats == nil {
		return invokeRecover(h, c)
	}
	d.stats.Trace(tid, c.idx, stats.StageDispatch)
	t0 := time.Now()
	err := invokeRecover(h, c)
	d.stats.RecordCall(c.idx, time.Since(t0), 0, 0, serverOutcome(err))
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

// Reply status words on the wire between runtime client and
// dispatcher.
const (
	replyOK  = 0
	replyErr = 1
)

// ServeMessage handles one marshaled request arriving from a
// message transport: decode under the server plan, invoke, encode
// the reply (status word first) into enc. The working state is one
// pooled Frame, so the steady-state path allocates only what the
// decoded argument values themselves need.
func (d *Dispatcher) ServeMessage(plan *Plan, opIdx int, body []byte, enc Encoder) {
	f := acquireFrame()
	d.serve(nil, f, plan, opIdx, body, enc, 0, true)
	frames.Put(f)
}

// ServeMessageRaw is ServeMessage for self-framing transports: no
// status word is emitted; decode, application, and marshal errors
// are returned for the transport's own error channel.
func (d *Dispatcher) ServeMessageRaw(plan *Plan, opIdx int, body []byte, enc Encoder) error {
	f := acquireFrame()
	err := d.serve(nil, f, plan, opIdx, body, enc, 0, false)
	frames.Put(f)
	return err
}

// serve is the one message-serving path: decode body under plan into
// f's Call, invoke, encode the reply into enc, and leave f cleared. tid
// is the session layer's trace id (0 = untraced). With framed set the
// reply leads with the status word and every failure is written into
// enc as an error reply, so the result is always nil; without it
// failures are returned for the transport's own error channel and enc
// holds only a successful reply's body.
func (d *Dispatcher) serve(ctx context.Context, f *Frame, plan *Plan, opIdx int, body []byte, enc Encoder, tid uint32, framed bool) error {
	if opIdx < 0 || opIdx >= len(plan.Ops) || opIdx >= len(d.handlers) {
		return failReply(enc, fmt.Errorf("runtime: bad operation index %d", opIdx), framed)
	}
	op := plan.Ops[opIdx]
	if ours := &d.Pres.Interface.Ops[opIdx]; op.Op != ours && op.Op.Name != ours.Name {
		// Dispatch is by index: a plan compiled from an interface that
		// orders its operations differently would reach the wrong handler.
		return failReply(enc, fmt.Errorf("runtime: plan operation %d is %s, the dispatcher's is %s", opIdx, op.Op.Name, ours.Name), framed)
	}
	call := f.begin(ctx, d, opIdx)
	encBase := 0
	if d.stats != nil {
		d.stats.Decode.Add(len(body))
		encBase = len(enc.Bytes())
	}
	if err := op.decodeRequestCall(f.decoder(plan, body), call); err != nil {
		f.end()
		return failReply(enc, err, framed)
	}
	if d.stats != nil {
		d.stats.Trace(tid, opIdx, stats.StageServerDecode)
	}
	for i := range call.inPrivate {
		// Data that crossed a protection boundary is always private.
		call.inPrivate[i] = true
	}
	err := d.invoke(call, tid)
	invoked := err == nil
	if invoked {
		if framed {
			enc.PutUint32(replyOK)
		}
		err = op.encodeReplyCall(enc, call)
	}
	if err != nil {
		if !framed {
			f.end()
			return err
		}
		if invoked {
			enc.Reset() // drop the partial reply
		}
		encodeFailure(enc, err.Error())
	}
	d.meterReply(opIdx, encBase, len(body), enc, tid)
	if invoked {
		// The reply is marshaled: server-owned storage is free again.
		call.runAfterReply()
	}
	f.end()
	return nil
}

// failReply reports a request that never reached its work function:
// in band as an error reply when framed, else as the error itself.
func failReply(enc Encoder, err error, framed bool) error {
	if !framed {
		return err
	}
	encodeFailure(enc, err.Error())
	return nil
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
