package runtime

import (
	"fmt"
	"slices"

	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// SpecialHooks supply programmer-provided marshal routines for
// parameters carrying the [special] presentation attribute — the
// mechanism behind the Linux NFS client's direct-to-user-space
// unmarshaling (§4.1) and the pipe server's fbuf pass-through
// (§4.3). The generated stubs call these at exactly the point the
// default marshal code would have run.
type SpecialHooks interface {
	// EncodeSpecial marshals v for the named operation parameter.
	// It must produce the same wire bytes a default marshal of the
	// parameter's wire type would, or the peer will misparse.
	EncodeSpecial(op, param string, enc Encoder, v Value) error
	// DecodeSpecial unmarshals the named parameter, returning the
	// presentation-specific local value.
	DecodeSpecial(op, param string, dec Decoder) (Value, error)
}

// A Plan is the compiled marshal program for one endpoint: one
// OpPlan per operation, honoring the endpoint's presentation.
//
// Compilation happens once, at bind time: every parameter's wire
// type, presentation attributes, [special] hook and codec dispatch
// are resolved into flat step lists — the moral equivalent of the
// Mach combination signatures the paper describes in §4.5, threaded
// code built per endpoint pair so the per-call path is a straight
// loop with no map lookups and no type switches.
type Plan struct {
	Pres  *pres.Presentation
	Codec Codec
	Ops   []*OpPlan
	hooks SpecialHooks

	// maxDecode bounds any single variable-length item the plan's
	// decoders accept (see Decoder.SetMaxLength); hostile length prefixes
	// fail instead of forcing a huge allocation. A trusted peer
	// ([leaky, unprotected] — the paper's trust model, same ladder
	// FV005 lints against) gets the relaxed bound.
	maxDecode uint32

	// stats, when set, receives the copy/alloc meters the compiled
	// decode steps feed and the per-op [traced] parameter sizes. Set
	// before the plan is shared (Client.SetStats does this); nil —
	// the default — costs one nil check inside the affected steps.
	stats *stats.Endpoint
}

// SetStats points the plan's meters at e (nil disables). Servers that
// drive a Plan directly (SessionServer, suntcp, a shmring.Bound's
// ServerPlan) pass the dispatcher's endpoint so codec meters land
// beside its counters.
func (p *Plan) SetStats(e *stats.Endpoint) { p.stats = e }

// meterCopy records a decode-side copy into owned or caller storage.
func (p *Plan) meterCopy(n int) {
	if p.stats != nil {
		p.stats.Copy.Add(n)
	}
}

// meterTail records a string or owned buffer of n bytes copied out of
// the message into its block's tail: a copy into a fresh allocation.
func (p *Plan) meterTail(n int) {
	if p.stats != nil {
		p.stats.Alloc.Add(n)
		p.stats.Copy.Add(n)
	}
}

// Decode bounds applied by NewPlan according to the presentation's
// trust level.
const (
	DefaultMaxDecode uint32 = 16 << 20
	TrustedMaxDecode uint32 = 256 << 20
)

// Step phases, in per-call execution order. Request-encode and
// reply-decode run on the client; request-decode and reply-encode on
// the server.
const (
	PhaseReqEncode = "req-encode"
	PhaseReqDecode = "req-decode"
	PhaseRepEncode = "rep-encode"
	PhaseRepDecode = "rep-decode"
)

// A Landing says where a decoded value's bytes end up. resolveLanding
// is the one place a landing is chosen: compile builds the program that
// does what it says, DecodeReply hands a caller buffer to the steps it
// marks, and the certificate reports it.
type Landing string

const (
	LandScalar  Landing = "scalar"  // fixed-size word, no buffer storage
	LandBorrow  Landing = "borrow"  // byte buffers alias the request frame
	LandCaller  Landing = "caller"  // lands in a caller-provided buffer
	LandOwn     Landing = "own"     // fresh heap storage per call
	LandSpecial Landing = "special" // programmer hook; storage unknown
	LandNone    Landing = "none"    // void / encode-only step
)

// An OpPlan marshals one operation's requests and replies via its
// compiled step lists.
type OpPlan struct {
	Idx  int
	Op   *ir.Operation
	pres *pres.OpPres
	plan *Plan

	reqEnc []step // in/inout params, request encode
	reqDec []step // in/inout params, request decode
	repEnc []step // out/inout params + result, reply encode
	repDec []step // out/inout params + result, reply decode
	nOut   int    // out/inout param count (0 → DecodeReply outs == nil)
}

// A step marshals or unmarshals one parameter (arg == -1 for the
// result) in one phase. Both phases of a direction walk the one program
// of the parameter's type and that direction's landing; a [special]
// parameter has hooks instead.
type step struct {
	arg     int
	name    string
	landing Landing
	traced  bool // an encode step whose parameter is [traced]: it meters what it writes
	// view is set on a request-decode step whose parameter is itself a
	// byte buffer landing by borrow: it lands the slice in a Call's byte
	// slot instead of boxing it into a Value.
	view bool
	// caller: a caller-landed reply step's bound view (slab.go).
	caller callerView
	prog   *blockProg
	// one is the last step of a program that is not a struct or array,
	// which an encode step that is not [traced] runs directly.
	one *blockStep
	enc encodeFn // [special]
	dec decodeFn // [special]
}

// An encodeFn is a [special] parameter's encode hook.
type encodeFn func(enc Encoder, v Value) error

// A decodeFn is a [special] parameter's decode hook.
type decodeFn func(dec Decoder, dst []byte) (Value, error)

// NewPlan compiles marshal plans for every operation of p's
// interface. hooks may be nil when no parameter is [special].
//
// A bind allocates the OpPlans in one array and every op's four step
// lists in another, each at its final size, so compiling costs a few
// allocations per plan rather than several per op.
func NewPlan(p *pres.Presentation, codec Codec, hooks SpecialHooks) (*Plan, error) {
	ops := p.Interface.Ops
	if len(p.Ops) != len(ops) {
		return nil, fmt.Errorf("runtime: presentation of %s has %d operations, its interface %d", p.Interface.Name, len(p.Ops), len(ops))
	}
	pl := &Plan{Pres: p, Codec: codec, hooks: hooks}
	pl.maxDecode = DefaultMaxDecode
	if p.Trust >= pres.TrustFull {
		pl.maxDecode = TrustedMaxDecode
	}
	nsteps := 0
	for i := range ops {
		in, out := stepCounts(&ops[i])
		nsteps += 2 * (in + out)
	}
	opPlans, steps := make([]OpPlan, len(ops)), make([]step, 0, nsteps)
	pl.Ops = make([]*OpPlan, len(ops))
	for i := range ops {
		op, o := &ops[i], &opPlans[i]
		if err := pl.compileOp(o, i, op, &p.Ops[i], &steps); err != nil {
			return nil, err
		}
		pl.Ops[i] = o
	}
	return pl, nil
}

// OpIndex returns the plan index for the named operation, or -1.
func (p *Plan) OpIndex(name string) int { return opIndex(p.Pres.Interface.Ops, name) }

// opIndex returns the index of the operation named name in ops, or -1.
// An interface has a handful of operations, and a string compare tests
// the lengths before any byte, so the scan costs less than a hash of
// name would — and a bind builds no index for it.
func opIndex(ops []ir.Operation, name string) int {
	for i := range ops {
		if ops[i].Name == name {
			return i
		}
	}
	return -1
}

// AcquireDecoder returns a decoder positioned at body under the plan's
// decode bound: a pooled Frame's, lent as the frame itself. Pair with
// ReleaseDecoder. A caller that serialises its calls keeps its own
// instead (NewDecoder).
func (p *Plan) AcquireDecoder(body []byte) Decoder {
	f := acquireFrame()
	f.decoder(p, body)
	return f
}

// ReleaseDecoder returns a decoder obtained from AcquireDecoder to
// the pool once the decoded message is no longer referenced.
func (p *Plan) ReleaseDecoder(d Decoder) {
	f := d.(*Frame)
	f.Decoder.Reset(nil)
	frames.Put(f)
}

// NewDecoder returns a decoder positioned at body under the plan's
// decode bound, for a caller that owns it and re-aims it per message
// with Reset.
func (p *Plan) NewDecoder(body []byte) Decoder {
	d := p.Codec.NewDecoder(body)
	d.SetMaxLength(p.maxDecode)
	return d
}

// attrs returns the presentation attributes of parameter arg, or of
// the result when arg is -1.
func (op *OpPlan) attrs(arg int) *pres.ParamAttrs {
	if arg < 0 {
		return op.pres.Result()
	}
	return &op.pres.Params[arg]
}

// stepCounts returns how many of op's parameters travel in the request
// and how many, the result included, in the reply.
func stepCounts(op *ir.Operation) (in, out int) {
	for i := range op.Params {
		if op.Params[i].Dir != ir.Out {
			in++
		}
		if op.Params[i].Dir != ir.In {
			out++
		}
	}
	if op.HasResult() {
		out++
	}
	return in, out
}

// compileOp builds the four step lists for one operation into o, each
// an empty list carved from the plan's step array with room for exactly
// its steps.
func (pl *Plan) compileOp(o *OpPlan, idx int, op *ir.Operation, opPres *pres.OpPres, steps *[]step) error {
	*o = OpPlan{Idx: idx, Op: op, pres: opPres, plan: pl}
	in, out := stepCounts(op)
	o.reqEnc, o.reqDec = carve(steps, in), carve(steps, in)
	o.repEnc, o.repDec = carve(steps, out), carve(steps, out)
	for i := range op.Params {
		prm := &op.Params[i]
		if err := o.compileParam(i, prm.Name, prm.Type, prm.Dir != ir.Out, prm.Dir != ir.In); err != nil {
			return err
		}
		if prm.Dir != ir.In {
			o.nOut++
		}
	}
	if op.HasResult() {
		return o.compileParam(-1, pres.ResultParam, op.Result, false, true)
	}
	return nil
}

// carve takes the next n steps of a plan's step array as an empty list
// that appends in place.
func carve(steps *[]step, n int) []step {
	at := len(*steps)
	*steps = (*steps)[:at+n]
	return (*steps)[at : at : at+n]
}

// compileParam appends one parameter's steps to the request lists
// when it travels in and to the reply lists when it travels out. Each
// direction compiles one program, for the landing its decode resolves,
// and its encode step walks the same one.
func (o *OpPlan) compileParam(arg int, name string, t *ir.Type, in, out bool) error {
	pl, a := o.plan, o.attrs(arg)
	var enc encodeFn
	var dec decodeFn
	if a.Special {
		var err error
		if enc, dec, err = pl.compileSpecial(o.Op.Name, name); err != nil {
			return err
		}
	}
	add := func(encs, decs *[]step, encPhase, decPhase string) {
		l := resolveLanding(decPhase, t, a)
		var pr *blockProg
		if !a.Special {
			pr = program(t, l)
		}
		var one *blockStep
		if pr != nil && pr.n < 0 && !a.Traced {
			one = &pr.steps[len(pr.steps)-1]
		}
		*encs = append(*encs, step{arg: arg, name: name, landing: resolveLanding(encPhase, t, a), traced: a.Traced, prog: pr, one: one, enc: enc})
		view := l == LandBorrow && (t.Kind == ir.Bytes || t.Kind == ir.FixedBytes)
		*decs = append(*decs, step{arg: arg, name: name, landing: l, view: view, prog: pr, dec: dec})
	}
	if in {
		add(&o.reqEnc, &o.reqDec, PhaseReqEncode, PhaseReqDecode)
	}
	if out {
		add(&o.repEnc, &o.repDec, PhaseRepEncode, PhaseRepDecode)
	}
	return nil
}

// resolveLanding decides where one parameter lands in one phase.
// Server-side in parameters borrow: byte buffers alias the request
// message — the CORBA server mapping: in parameters are valid for the
// duration of the call, and a work function that retains them must
// copy — which is what lets a server receive bulk data with exactly
// one kernel copy on the request path. Replies land in storage the
// consumer owns (default move semantics) unless the presentation says
// the caller allocates a byte buffer ([alloc(caller)]). A composite
// reports where its byte-buffer leaves land; a string is always a
// fresh Go string.
func resolveLanding(phase string, t *ir.Type, a *pres.ParamAttrs) Landing {
	switch {
	case a.Special:
		return LandSpecial
	case t == nil || t.Kind == ir.Void, phase == PhaseReqEncode, phase == PhaseRepEncode:
		return LandNone
	}
	switch t.Kind {
	case ir.Bytes, ir.FixedBytes, ir.Seq, ir.Array, ir.Struct:
		if phase == PhaseReqDecode {
			return LandBorrow
		}
		if a.Alloc == pres.AllocCaller && (t.Kind == ir.Bytes || t.Kind == ir.FixedBytes) {
			return LandCaller
		}
		return LandOwn
	case ir.String:
		return LandOwn
	}
	return LandScalar
}

// compileSpecial resolves a [special] parameter to its hooks. A hook
// that panics fails its step instead: the call then ends like any
// other marshal error — on a server, an error reply that the reply
// cache keeps and a released admission slot — rather than unwinding
// through the session layer with its cache key still executing.
func (pl *Plan) compileSpecial(opName, prmName string) (encodeFn, decodeFn, error) {
	what := "param " + prmName
	if prmName == pres.ResultParam {
		what = "result"
	}
	if pl.hooks == nil {
		return nil, nil, fmt.Errorf("runtime: %s.%s %s is [special] but no hooks were provided",
			pl.Pres.Interface.Name, opName, what)
	}
	hooks := pl.hooks
	recoverHook := func(err *error, hook string) {
		if r := recover(); r != nil {
			*err = fmt.Errorf("runtime: %s.%s %s: [special] %s hook panicked: %v",
				pl.Pres.Interface.Name, opName, what, hook, r)
		}
	}
	return func(e Encoder, v Value) (err error) {
			defer recoverHook(&err, "encode")
			return hooks.EncodeSpecial(opName, prmName, e, v)
		},
		func(d Decoder, _ []byte) (v Value, err error) {
			defer recoverHook(&err, "decode")
			return hooks.DecodeSpecial(opName, prmName, d)
		}, nil
}

// One program per (wire type, landing) is the only description of a
// wire type: the decoder, the encoder and the certificate all read it.
//
// Decoding runs in two phases:
//
//   - phase 1 reads the wire in order into the decoder's scratch: each
//     maximal run of adjacent scalar leaves in one codec call, a string
//     or byte buffer as a view of the message, a sequence as its own
//     decoded value. Nothing of the value itself is allocated yet, so a
//     malformed message fails here with no block; only a sequence,
//     decoded apart, allocates on the way;
//   - phase 2 allocates the value's one block (slab.go) with a tail of
//     the size phase 1 measured, stores the scalars in its slab and the
//     strings and owned buffers in its tail, and boxes every Value. A
//     top-level value that needs no storage slot — a scalar, a borrowed
//     or caller-landed buffer, a sequence's header — gets Go's own box
//     instead, and so does a top-level string or owned buffer that
//     turned out empty.
//
// Encoding expands a struct or array's []Value tree into the encoder's
// scratch in the numbering the block uses, checking each composite's
// kind and length, then walks the same steps in wire order.

// A blockProg is the compiled program of one wire type and landing: its
// steps in wire order, where each run is followed by its leaves, and
// its nested structs and arrays, parents before children. A top-level
// value that is not a struct or array is the value of its one step
// (dst -1) and has n -1.
type blockProg struct {
	t     *ir.Type
	bt    *blockType // nil when the shape has no storage slot
	n     int        // a struct or array's element count; -1 for any other type
	steps []blockStep
	fixed []blockFixed
	words int // scratch words: one per scalar leaf
	views int // scratch views: one per string and byte buffer
	seqs  int // scratch sequences
	vals  int // encode scratch: the value's element Values, nested ones included
	// allocs is what decoding one value allocates: its block, or Go's
	// box for a top-level scalar other than bool, a top-level buffer or
	// a top-level sequence's header; and for each sequence its backing
	// and its slab, or one element's allocations, its length not being
	// static. lengths: some step reads a length prefix.
	allocs  int
	lengths bool
	// minXDR and minCDR are the fewest wire bytes one value takes on
	// each codec: what bounds a sequence's element count (decodeSeq).
	minXDR, minCDR int
}

type stepKind uint8

const (
	stepRun    stepKind = iota // a run of scalar leaves: one codec call
	stepLeaf                   // one of its run's leaves
	stepString                 // a view, copied into the tail
	stepBytes                  // a view, copied into the tail when own
	stepSeq                    // a sequence, decoded apart
	stepVoid                   // nothing on the wire, nil in the value
	stepFail                   // a kind no plan marshals: size holds it
)

// A blockStep is one step of a blockProg. A leaf lands scratch word idx
// in value slot dst and slab byte offset off. A string, byte buffer or
// sequence fills scratch slot idx in phase 1 and lands it in region
// slot at and value slot dst in phase 2. dst -1 is the value itself.
type blockStep struct {
	kind         stepKind
	leaf         leafKind // stepLeaf; stepSeq: its elements' kind, which but for bool land in one slab
	own          bool     // stepBytes: copied into the tail
	caller       bool     // stepBytes: copied into the caller's buffer when it fits, else into the tail
	n            int32    // stepRun: its leaves
	size         int32    // stepBytes: the fixed length, or -1 when the wire carries it; stepFail: the kind
	dst, at, idx int32
	off          uint32
	xdr          int32      // stepRun: wire size on XDR
	cdr          [8]int32   // stepRun: wire size on CDR by start offset modulo 8
	elem         *blockProg // stepSeq: each element
}

// sizes fills in run step run[0]'s wire sizes from its leaves run[1:].
// CDR aligns each leaf to its own size from the message start, so there
// a run's size depends on where it starts.
func sizes(run []blockStep) {
	r, leaves := &run[0], run[1:]
	for i := range leaves {
		r.xdr += 4
		if leaves[i].leaf >= leafInt64 {
			r.xdr += 4
		}
	}
	for at := range r.cdr {
		p := int32(at)
		for i := range leaves {
			switch k := leaves[i].leaf; {
			case k == leafBool:
				p++
			case k >= leafInt64:
				p += -p&7 + 8
			default:
				p += -p&3 + 4
			}
		}
		r.cdr[at] = p - int32(at)
	}
}

// A leafKind is the wire and Value form of one scalar leaf. Kinds from
// leafInt64 on are 8 bytes wide on the wire and in the slab, the others
// 4, except that a bool has no slab slot: it keeps the Go runtime's free
// static box. An enum is an int32 that names its own kind in errors.
type leafKind uint8

const (
	leafBool leafKind = iota
	leafInt32
	leafUint32
	leafFloat32
	leafPort
	leafEnum
	leafInt64
	leafUint64
	leafFloat64
)

// leafIR is each leaf kind's wire kind.
var leafIR = [...]ir.Kind{
	leafBool: ir.Bool, leafInt32: ir.Int32, leafUint32: ir.Uint32, leafFloat32: ir.Float32, leafPort: ir.Port,
	leafEnum: ir.Enum, leafInt64: ir.Int64, leafUint64: ir.Uint64, leafFloat64: ir.Float64,
}

// leafKindOf returns the leaf kind of wire type t, or false when t is
// not a scalar.
func leafKindOf(t *ir.Type) (leafKind, bool) {
	for k, kind := range leafIR {
		if t.Kind == kind {
			return leafKind(k), true
		}
	}
	return 0, false
}

// width is the size of k's slab slot in bytes.
func (k leafKind) width() uintptr {
	switch {
	case k == leafBool:
		return 0
	case k >= leafInt64:
		return 8
	}
	return 4
}

// A blockFixed is a nested struct or array of type t: its header, in
// hdrs slot at, covers vals[v0:v0+nv] and boxes into vals[dst].
type blockFixed struct {
	dst, at, v0, nv int
	t               *ir.Type
}

// A blockLayout places a value's slots in its block at bind time and
// emits the steps that fill them. It runs twice: once to count, so that
// the second run allocates each slice at its final size.
type blockLayout struct {
	l       Landing
	count   bool // the counting run: emit nothing
	steps   []blockStep
	fixeds  []blockFixed
	nsteps  int
	nfixed  int
	run     int // the open run step, or -1 when a non-scalar step closed it
	leaves  int // scalar leaves so far
	views   int
	seqs    int
	allocs  int
	lengths bool
	shape   blockShape
	half    uintptr // slab byte offset of the open half-word; 0 when none is open
}

// shared holds the programs of the top-level types that need nothing
// but their kind, and a variable-length byte buffer's by landing: every
// plan reads the same ones, so compiling such a parameter allocates
// nothing.
var shared = map[sharedKey]*blockProg{}

func init() {
	for _, k := range append(leafIR[:], ir.String, ir.Void) {
		shared[sharedKey{k, ""}] = compile(&ir.Type{Kind: k}, "")
	}
	for _, l := range []Landing{LandBorrow, LandOwn, LandCaller} {
		shared[sharedKey{ir.Bytes, l}] = compile(ir.BytesType, l)
	}
}

type sharedKey struct {
	kind ir.Kind
	l    Landing // a byte buffer's; "" for the others
}

// program returns the program of wire type t landing as l.
func program(t *ir.Type, l Landing) *blockProg {
	if t == nil {
		t = ir.VoidType
	}
	key := sharedKey{t.Kind, ""}
	if t.Kind == ir.Bytes {
		key.l = l
	}
	if pr := shared[key]; pr != nil {
		return pr
	}
	return compile(t, l)
}

// compile builds the program of wire type t landing as l. A struct or
// array is one block per decoded value: nested structs and arrays
// flatten into it, strings and owned byte buffers land in its tail, and
// only a sequence's backing and slab allocate apart.
func compile(t *ir.Type, l Landing) *blockProg {
	first := blockLayout{l: l, count: true, run: -1}
	first.root(t)
	lay := blockLayout{l: l, run: -1, steps: make([]blockStep, 0, first.nsteps)}
	if first.nfixed > 0 {
		lay.fixeds = make([]blockFixed, 0, first.nfixed)
	}
	lay.root(t)
	pr := &blockProg{t: t, n: -1, steps: lay.steps, fixed: lay.fixeds, words: lay.leaves, views: lay.views,
		seqs: lay.seqs, vals: lay.shape.vals, allocs: lay.allocs, lengths: lay.lengths}
	// A value's fewest wire bytes: each run's size, at the CDR start
	// offset that pads it least; a fixed byte buffer's bytes, padded on
	// XDR; a length word for any other buffer, string or sequence.
	for i := range lay.steps {
		switch s := &lay.steps[i]; {
		case s.kind == stepRun:
			sizes(lay.steps[i : i+1+int(s.n)])
			pr.minXDR, pr.minCDR = pr.minXDR+int(s.xdr), pr.minCDR+int(slices.Min(s.cdr[:]))
		case s.kind == stepBytes && s.size >= 0:
			pr.minXDR, pr.minCDR = pr.minXDR+int(s.size+3)&^3, pr.minCDR+int(s.size)
		case s.kind == stepString || s.kind == stepBytes || s.kind == stepSeq:
			pr.minXDR, pr.minCDR = pr.minXDR+4, pr.minCDR+4
		}
	}
	if t.Kind == ir.Array || t.Kind == ir.Struct {
		pr.n = fixedLen(t)
	}
	if lay.shape != (blockShape{}) {
		pr.bt = blockTypeOf(lay.shape)
	}
	return pr
}

// fixedLen is the element count of a struct or array.
func fixedLen(t *ir.Type) int {
	if t.Kind == ir.Array {
		return t.Size
	}
	return len(t.Fields)
}

// emit appends step s and returns its index.
func (lay *blockLayout) emit(s blockStep) int {
	lay.nsteps++
	if !lay.count {
		lay.steps = append(lay.steps, s)
	}
	return lay.nsteps - 1
}

// root lays out a top-level value of wire type t: a struct or array is
// its block, anything else the value of one step, boxed by Go unless a
// string or a buffer copied into the tail gives it a slot.
func (lay *blockLayout) root(t *ir.Type) {
	if t.Kind == ir.Array || t.Kind == ir.Struct {
		lay.allocs++
		lay.fixed(t)
		return
	}
	if t.Kind != ir.Bool && t.Kind != ir.Void {
		lay.allocs++
	}
	lay.place(t, -1, 1)
}

// fixed places composite t's header in the next hdrs slot and its
// elements in the next vals slots, then lays the elements out.
func (lay *blockLayout) fixed(t *ir.Type) {
	lay.shape.hdrs++
	v0 := lay.shape.vals
	lay.shape.vals += fixedLen(t)
	if t.Kind == ir.Array {
		lay.place(t.Elem, v0, t.Size)
		return
	}
	for i, f := range t.Fields {
		lay.place(f.Type, v0+i, 1)
	}
}

// place lays out n values of wire type t landing at vals[dst:dst+n]
// (dst -1: the top-level value) and emits the steps that read and write
// them.
func (lay *blockLayout) place(t *ir.Type, dst, n int) {
	if t.Kind == ir.Array || t.Kind == ir.Struct {
		for j := 0; j < n; j++ {
			lay.nfixed++
			if !lay.count {
				lay.fixeds = append(lay.fixeds, blockFixed{dst + j, lay.shape.hdrs, lay.shape.vals, fixedLen(t), t})
			}
			lay.fixed(t)
		}
		return
	}
	if k, ok := leafKindOf(t); ok {
		if lay.run < 0 {
			lay.run = lay.emit(blockStep{kind: stepRun})
		}
		w, off := k.width(), uintptr(0)
		if w > 0 && dst >= 0 {
			off = lay.words(w, n)
		}
		for j := 0; j < n; j++ {
			lay.emit(blockStep{kind: stepLeaf, leaf: k, dst: int32(dst + j), idx: int32(lay.leaves), off: uint32(off + uintptr(j)*w)})
			lay.leaves++
		}
		if !lay.count {
			lay.steps[lay.run].n += int32(n)
		}
		return
	}
	lay.run = -1
	take := func(c *int) int32 { at := *c; *c++; return int32(at) }
	s := blockStep{size: -1}
	var slot *int // the region s takes a slot of, if any
	switch t.Kind {
	case ir.Void:
		s.kind = stepVoid
	case ir.String:
		s.kind, slot, lay.lengths = stepString, &lay.shape.strs, true
	case ir.Bytes, ir.FixedBytes:
		s.kind, s.own, s.caller = stepBytes, lay.l == LandOwn, lay.l == LandCaller
		if t.Kind == ir.FixedBytes {
			s.size = int32(t.Size)
		} else {
			lay.lengths = true
		}
		if dst >= 0 || lay.l != LandBorrow {
			slot = &lay.shape.byts
		}
	case ir.Seq:
		s.kind, lay.lengths = stepSeq, true
		if dst >= 0 {
			slot = &lay.shape.hdrs
		}
		s.leaf, _ = leafKindOf(t.Elem) // leafBool for any other type
		if !lay.count {
			s.elem = program(t.Elem, lay.l)
			lay.allocs += n // the backing
			if s.leaf != leafBool {
				lay.allocs += n // the slab
			} else {
				lay.allocs += n * s.elem.allocs
			}
		}
	default:
		s.kind, s.size = stepFail, int32(t.Kind)
	}
	for j := 0; j < n; j++ {
		s.dst = int32(dst + j)
		if slot != nil {
			s.at = take(slot)
		}
		switch s.kind {
		case stepString, stepBytes:
			s.idx = take(&lay.views)
		case stepSeq:
			s.idx = take(&lay.seqs)
		}
		lay.emit(s)
	}
}

// words places n slab slots w bytes wide side by side and returns the
// first one's byte offset. An 8-byte slot takes the next whole word, and
// a lone 4-byte slot the open half of a word when there is one, else the
// first half of the next word; a run leaves its last half-word open.
func (lay *blockLayout) words(w uintptr, n int) uintptr {
	if n == 1 && w == 4 && lay.half != 0 {
		off := lay.half
		lay.half = 0
		return off
	}
	off, size := uintptr(lay.shape.words)*8, uintptr(n)*w
	lay.shape.words += int((size + 7) / 8)
	if size%8 != 0 {
		lay.half = off + size
	}
	return off
}

// A scratch is a decoder's phase-1 store: one word per scalar leaf,
// and the views and sequences a block lands in phase 2. It lives as long
// as its decoder, so a decode allocates nothing for it once it has grown
// to the widest value met. It is a stack, because a sequence inside a
// block decodes its own elements' blocks while the outer phase 1 is
// open; a decode clears the views and sequences it took before it
// returns, so the scratch keeps no pointer into a message.
type scratch struct {
	words []uint64
	views [][]byte
	seqs  [][]Value
	top   scratchTop
}

// scratchTop is how much of each scratch region is taken.
type scratchTop struct{ words, views, seqs int }

// take returns the next nw words, nv views and ns sequences. A region
// too small for them is replaced, not copied: whoever took the slots
// below the top holds its own slices of the old one.
func (s *scratch) take(nw, nv, ns int) ([]uint64, [][]byte, [][]Value) {
	return grow(&s.words, &s.top.words, nw), grow(&s.views, &s.top.views, nv), grow(&s.seqs, &s.top.seqs, ns)
}

func grow[T any](buf *[]T, top *int, n int) []T {
	at := *top
	if at+n > len(*buf) {
		*buf = make([]T, max(2*len(*buf), at+n))
	}
	*top = at + n
	return (*buf)[at : at+n : at+n]
}

// reset drops what a decode left taken when a panic unwound it;
// Decoder.Reset calls it before each message.
func (s *scratch) reset() { s.top = scratchTop{} }

// An encoder's scratch is a stack of Values: the elements of the struct
// or array being encoded, and below them those of any that contain it.
type valueStack struct {
	vals []Value
	top  int
}

// decode decodes one value of pr's type. A struct or array runs its
// two phases, into the decoder's scratch and then one fresh block; any
// other type is its one step (decodeOne).
func (pl *Plan) decode(dec Decoder, pr *blockProg) (Value, error) {
	if pr.n < 0 {
		return pl.decodeOne(dec, pr, nil, nil)
	}
	sc := dec.scratch()
	top := sc.top
	words, views, seqs := sc.take(pr.words, pr.views, pr.seqs)
	v, err := pl.fillBlock(dec, pr, words, views, seqs)
	clear(views)
	clear(seqs)
	sc.top = top
	return v, err
}

// decodeOne decodes a value that is not a struct or array: the last
// step of its program, after a scalar's run. A scalar boxes on its own
// (boxScalar); a borrowed buffer and a sequence's header take Go's box;
// a caller-landed one that fits the caller's dst is its view cv; a
// string or other buffer lands in the program's one-slot block, its
// bytes in the tail, unless it is an empty string.
func (pl *Plan) decodeOne(dec Decoder, pr *blockProg, dst []byte, cv *callerView) (Value, error) {
	s := &pr.steps[len(pr.steps)-1]
	var v []byte
	var err error
	switch s.kind {
	case stepLeaf:
		return decodeLeaf(dec, s.leaf)
	case stepSeq:
		vs, err := pl.decodeSeq(dec, s)
		if err != nil {
			return nil, err
		}
		return vs, nil
	case stepVoid:
		return nil, nil
	case stepFail:
		return nil, fmt.Errorf("runtime: cannot unmarshal kind %v", ir.Kind(s.size))
	case stepString:
		v, err = dec.stringView()
	default:
		v, err = readView(dec, s)
	}
	switch {
	case err != nil:
		return nil, err
	case s.caller && dst != nil && len(v) <= len(dst):
		pl.meterCopy(len(v))
		return cv.land(dst, copy(dst, v)), nil
	case s.kind == stepBytes && !s.own && !s.caller:
		return v, nil
	}
	pl.meterTail(len(v))
	var b block
	if s.kind == stepBytes {
		pr.bt.alloc(&b, len(v))
		return bytesBox.setAt(b.byts, 0, b.bytes(v)), nil
	}
	if len(v) == 0 {
		return "", nil
	}
	pr.bt.alloc(&b, len(v))
	return stringBox.setAt(b.strs, 0, b.string(v)), nil
}

// readView reads byte buffer step s's bytes as a view of the message.
func readView(dec Decoder, s *blockStep) ([]byte, error) {
	if s.size < 0 {
		return dec.Bytes()
	}
	return dec.FixedBytes(int(s.size))
}

// fillBlock runs a struct or array program's two phases over scratch
// words, views and seqs.
func (pl *Plan) fillBlock(dec Decoder, pr *blockProg, words []uint64, views [][]byte, seqs [][]Value) (Value, error) {
	tail := 0
	for i := 0; i < len(pr.steps); i++ {
		s := &pr.steps[i]
		var err error
		switch s.kind {
		case stepRun:
			err = dec.scalars(pr.steps[i:i+1+int(s.n)], words[pr.steps[i+1].idx:])
			i += int(s.n)
		case stepString:
			views[s.idx], err = dec.stringView()
			tail += len(views[s.idx])
		case stepBytes:
			if views[s.idx], err = readView(dec, s); s.own {
				tail += len(views[s.idx])
			}
		case stepSeq:
			seqs[s.idx], err = pl.decodeSeq(dec, s)
		case stepFail:
			err = fmt.Errorf("runtime: cannot unmarshal kind %v", ir.Kind(s.size))
		}
		if err != nil {
			return nil, err
		}
	}

	var b block
	pr.bt.alloc(&b, tail)
	for i := range pr.steps {
		switch s := &pr.steps[i]; s.kind {
		case stepLeaf:
			if s.leaf == leafBool {
				b.vals[s.dst] = words[s.idx] != 0
			} else {
				b.vals[s.dst] = boxLeaf(b.slab, uintptr(s.off), s.leaf, words[s.idx])
			}
		case stepString:
			pl.meterTail(len(views[s.idx]))
			b.vals[s.dst] = stringBox.setAt(b.strs, int(s.at), b.string(views[s.idx]))
		case stepBytes:
			v := views[s.idx]
			if s.own {
				pl.meterTail(len(v))
				v = b.bytes(v)
			}
			b.vals[s.dst] = bytesBox.setAt(b.byts, int(s.at), v)
		case stepSeq:
			b.vals[s.dst] = valuesBox.setAt(b.hdrs, int(s.at), seqs[s.idx])
		}
	}
	// Children before parents, so that every Value a header covers is
	// written before the header is.
	for i := len(pr.fixed) - 1; i >= 0; i-- {
		f := &pr.fixed[i]
		b.vals[f.dst] = valuesBox.setAt(b.hdrs, f.at, b.vals[f.v0:f.v0+f.nv:f.v0+f.nv])
	}
	return valuesBox.setAt(b.hdrs, 0, b.vals[:pr.n:pr.n]), nil
}

// decodeLeaf reads a top-level scalar of kind k and boxes it on its
// own (boxScalar), as a decode step does directly for a scalar
// parameter.
func decodeLeaf(dec Decoder, k leafKind) (Value, error) {
	switch {
	case k == leafBool:
		return dec.Bool()
	case k >= leafInt64:
		w, err := dec.Uint64()
		return boxScalar(k, w), err
	}
	w, err := dec.Uint32()
	return boxScalar(k, uint64(w)), err
}

// decodeSeq decodes sequence step s's value: its elements are scalars
// in one slab, or each decodes through s.elem.
func (pl *Plan) decodeSeq(dec Decoder, s *blockStep) ([]Value, error) {
	// Each element takes at least its program's fewest wire bytes, and at
	// least one byte, so a count the rest of the message cannot hold is a
	// corrupt (or hostile) message, not a huge allocation.
	n, err := dec.Len()
	if w := max(dec.minWire(s.elem), 1); err == nil && n > dec.Remaining()/w {
		err = fmt.Errorf("runtime: sequence of %d elements of at least %d bytes exceeds %d remaining bytes", n, w, dec.Remaining())
	}
	if err != nil {
		return nil, err
	}
	vs := make([]Value, n)
	if s.leaf != leafBool {
		// Each element runs the run step of its kind's program.
		sc := dec.scratch()
		top := sc.top
		bits, _, _ := sc.take(1, 0, 0)
		defer func() { sc.top = top }()
		w := s.leaf.width()
		slab := make([]uint64, (uintptr(n)*w+7)/8)
		for i := range vs {
			if err := dec.scalars(s.elem.steps, bits); err != nil {
				return nil, err
			}
			vs[i] = boxLeaf(slab, uintptr(i)*w, s.leaf, bits[0])
		}
		return vs, nil
	}
	for i := range vs {
		if vs[i], err = pl.decode(dec, s.elem); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// encode marshals v, a value of pr's type. A struct or array expands
// into the encoder's scratch first, so a value of the wrong shape fails
// before any of it is written; any other type is its one step, after a
// scalar's run.
func (pl *Plan) encode(enc Encoder, pr *blockProg, v Value) error {
	if pr.n < 0 {
		return pl.putOne(enc, &pr.steps[len(pr.steps)-1], v)
	}
	if vs, ok := v.([]Value); ok && len(pr.fixed) == 0 && len(vs) == pr.n {
		return pl.put(enc, pr, vs) // nothing nested: v is its own expansion
	}
	sc := enc.values()
	top := sc.top
	vals := grow(&sc.vals, &sc.top, pr.vals)
	err := pr.expand(v, vals)
	if err == nil {
		err = pl.put(enc, pr, vals)
	}
	clear(vals)
	sc.top = top
	return err
}

// expand lays struct or array value v out in vals, numbered as pr's
// block numbers them, parents before children.
func (pr *blockProg) expand(v Value, vals []Value) error {
	if err := fill(pr.t, v, vals[:pr.n]); err != nil {
		return err
	}
	for i := range pr.fixed {
		f := &pr.fixed[i]
		if err := fill(f.t, vals[f.dst], vals[f.v0:f.v0+f.nv]); err != nil {
			return pr.wrap(f.dst, err)
		}
	}
	return nil
}

// fill checks that v is a value of struct or array type t and copies
// its elements into out.
func fill(t *ir.Type, v Value, out []Value) error {
	vs, ok := v.([]Value)
	switch {
	case !ok:
		return typeErr(t, v)
	case len(vs) == len(out):
		copy(out, vs)
		return nil
	case t.Kind == ir.Array:
		return fmt.Errorf("runtime: array needs %d elements, have %d", t.Size, len(vs))
	}
	return fmt.Errorf("runtime: struct %s needs %d fields, have %d", t.Name, len(out), len(vs))
}

// wrap prefixes err with the path from the top-level value to value
// slot d: "field x: element 2: ...".
func (pr *blockProg) wrap(d int, err error) error {
	for d >= 0 {
		t, v0, up := pr.t, 0, -1
		for i := range pr.fixed {
			if f := &pr.fixed[i]; d >= f.v0 && d < f.v0+f.nv {
				t, v0, up = f.t, f.v0, f.dst
			}
		}
		if t.Kind == ir.Array {
			err = fmt.Errorf("element %d: %w", d-v0, err)
		} else {
			err = fmt.Errorf("field %s: %w", t.Fields[d-v0].Name, err)
		}
		d = up
	}
	return err
}

// put walks pr's steps in wire order, writing the elements expand laid
// out in vals; a run of scalar leaves in one codec call.
func (pl *Plan) put(enc Encoder, pr *blockProg, vals []Value) error {
	for i := 0; i < len(pr.steps); i++ {
		s := &pr.steps[i]
		var err error
		switch {
		case s.kind == stepRun:
			run := pr.steps[i : i+1+int(s.n)]
			i += int(s.n)
			if j := enc.putScalars(run, vals); j > 0 {
				s, err = &run[j], putErr(&run[j], vals[run[j].dst])
			}
		default:
			err = pl.putOne(enc, s, vals[s.dst])
		}
		if err != nil {
			return pr.wrap(int(s.dst), err)
		}
	}
	return nil
}

// putOne writes v as step s, any step but a run.
func (pl *Plan) putOne(enc Encoder, s *blockStep, v Value) error {
	switch s.kind {
	case stepLeaf:
		if w, ok := leafBits(s.leaf, &v); ok {
			switch {
			case s.leaf == leafBool:
				enc.PutBool(w != 0)
			case s.leaf >= leafInt64:
				enc.PutUint64(w)
			default:
				enc.PutUint32(uint32(w))
			}
			return nil
		}
	case stepString:
		if str, ok := v.(string); ok {
			enc.PutString(str)
			return nil
		}
	case stepBytes:
		if b, ok := v.([]byte); ok && s.size < 0 {
			enc.PutBytes(b)
			return nil
		} else if ok && len(b) == int(s.size) {
			enc.PutFixedBytes(b)
			return nil
		}
	case stepSeq:
		return pl.putSeq(enc, s, v)
	case stepVoid:
		if v == nil {
			return nil
		}
	}
	return putErr(s, v)
}

// putErr is why v does not fit step s.
func putErr(s *blockStep, v Value) error {
	switch s.kind {
	case stepLeaf:
		return kindErr(leafIR[s.leaf], v)
	case stepString:
		return kindErr(ir.String, v)
	case stepBytes:
		if s.size < 0 {
			return kindErr(ir.Bytes, v)
		}
		if b, ok := v.([]byte); ok {
			return fmt.Errorf("runtime: fixed opaque needs %d bytes, have %d", s.size, len(b))
		}
		return typeErr(&ir.Type{Kind: ir.FixedBytes, Size: int(s.size)}, v)
	case stepVoid:
		return fmt.Errorf("runtime: void value must be nil, have %T", v)
	}
	return fmt.Errorf("runtime: cannot marshal kind %v", ir.Kind(s.size))
}

// putSeq writes v as sequence step s: its length, then each element
// through s.elem.
func (pl *Plan) putSeq(enc Encoder, s *blockStep, v Value) error {
	vs, ok := v.([]Value)
	if !ok {
		return typeErr(&ir.Type{Kind: ir.Seq, Elem: s.elem.t}, v)
	}
	enc.PutLen(len(vs))
	for j, e := range vs {
		if err := pl.encode(enc, s.elem, e); err != nil {
			return fmt.Errorf("element %d: %w", j, err)
		}
	}
	return nil
}

// encodeStep runs encode step st on v: its [special] hook or its
// program, metered when the parameter is [traced] and stats are on.
func (op *OpPlan) encodeStep(enc Encoder, st *step, v Value) error {
	if s := st.one; s != nil {
		// A lone unsigned long goes straight to its codec call.
		if x, ok := v.(uint32); ok && s.kind == stepLeaf && s.leaf == leafUint32 {
			enc.PutUint32(x)
			return nil
		}
		return op.plan.putOne(enc, s, v)
	}
	pl, before := op.plan, -1
	if st.traced && pl.stats != nil {
		before = len(enc.Bytes())
	}
	var err error
	if st.prog == nil {
		err = st.enc(enc, v)
	} else {
		err = pl.encode(enc, st.prog, v)
	}
	if err == nil && before >= 0 {
		pl.stats.AddOp(op.Idx, stats.OpTracedMsgs, 1)
		pl.stats.AddOp(op.Idx, stats.OpTracedBytes, len(enc.Bytes())-before)
	}
	return err
}

// decodeStep runs decode step st: its [special] hook or its program,
// with dst the caller's buffer for a caller-landed one.
func (op *OpPlan) decodeStep(dec Decoder, st *step, dst []byte) (Value, error) {
	switch pr := st.prog; {
	case pr == nil:
		return st.dec(dec, dst)
	case pr.n < 0 && pr.words > 0:
		return decodeLeaf(dec, pr.steps[1].leaf)
	case pr.n < 0:
		return op.plan.decodeOne(dec, pr, dst, &st.caller)
	}
	return op.plan.decode(dec, st.prog)
}

// EncodeRequest marshals the in and inout arguments. args is indexed
// by parameter position; out-only positions are ignored.
func (op *OpPlan) EncodeRequest(enc Encoder, args []Value) error {
	if len(args) != len(op.Op.Params) {
		return fmt.Errorf("runtime: %s takes %d params, have %d values", op.Op.Name, len(op.Op.Params), len(args))
	}
	for i := range op.reqEnc {
		st := &op.reqEnc[i]
		if err := op.encodeStep(enc, st, args[st.arg]); err != nil {
			return fmt.Errorf("%s param %s: %w", op.Op.Name, st.name, err)
		}
	}
	return nil
}

// DecodeRequest unmarshals the in and inout arguments into a
// positional value slice (see DecodeRequestInto for the semantics).
func (op *OpPlan) DecodeRequest(dec Decoder) ([]Value, error) {
	args := make([]Value, len(op.Op.Params))
	if err := op.DecodeRequestInto(dec, args); err != nil {
		return nil, err
	}
	return args, nil
}

// DecodeRequestInto unmarshals the in and inout arguments into args,
// which must have one slot per parameter. Byte buffers alias the
// request message — the CORBA server mapping: in parameters are valid
// for the duration of the call, and a work function that retains them
// must copy. Pooled server paths use this to land arguments directly
// in a recycled Call without an intermediate slice.
func (op *OpPlan) DecodeRequestInto(dec Decoder, args []Value) error {
	for i := range op.reqDec {
		st := &op.reqDec[i]
		v, err := op.decodeStep(dec, st, nil)
		if err != nil {
			return fmt.Errorf("%s param %s: %w", op.Op.Name, st.name, err)
		}
		args[st.arg] = v
	}
	return nil
}

// noBytes stands for an empty borrowed buffer in a Call's byte slot,
// where nil means "not landed here".
var noBytes = []byte{}

// decodeRequestCall is DecodeRequestInto landing in a Call: a
// parameter that is itself a borrowed byte buffer goes to the Call's
// byte slot as a slice, never boxed; everything else to its Value slot.
func (op *OpPlan) decodeRequestCall(dec Decoder, c *Call) error {
	for i := range op.reqDec {
		st := &op.reqDec[i]
		var err error
		if !st.view {
			c.in[st.arg], err = op.decodeStep(dec, st, nil)
		} else if c.inBytes[st.arg], err = readView(dec, &st.prog.steps[0]); c.inBytes[st.arg] == nil {
			c.inBytes[st.arg] = noBytes
		}
		if err != nil {
			return fmt.Errorf("%s param %s: %w", op.Op.Name, st.name, err)
		}
	}
	return nil
}

// EncodeReply marshals the out/inout values and the result.
func (op *OpPlan) EncodeReply(enc Encoder, outs []Value, ret Value) error {
	for i := range op.repEnc {
		st := &op.repEnc[i]
		v := ret
		if st.arg >= 0 {
			v = outs[st.arg]
		}
		if err := op.encodeStep(enc, st, v); err != nil {
			return replyParamErr(op.Op, st.arg, err)
		}
	}
	return nil
}

// encodeReplyCall is EncodeReply reading a Call's slots: each step
// encodes a transient view of its slot, except that a [special] hook,
// user code that may keep what it is given, gets a heap box, and a
// value outside the mapping fails it as it fails a default step.
func (op *OpPlan) encodeReplyCall(enc Encoder, c *Call) error {
	for i := range op.repEnc {
		st := &op.repEnc[i]
		s := &c.ret
		if st.arg >= 0 {
			s = &c.outs[st.arg]
		}
		var err error
		switch {
		case st.landing != LandSpecial:
			err = op.encodeStep(enc, st, s.view())
		case s.kind == slotOther:
			err = typeErr(replyType(op.Op, st.arg), s.value())
		default:
			err = op.encodeStep(enc, st, s.value())
		}
		if err != nil {
			return replyParamErr(op.Op, st.arg, err)
		}
	}
	return nil
}

// replyType is the wire type of reply parameter arg of op (-1: the
// result).
func replyType(op *ir.Operation, arg int) *ir.Type {
	if arg < 0 {
		return op.Result
	}
	return op.Params[arg].Type
}

// replyParamErr names the reply parameter of op that err is about (arg -1:
// the result).
func replyParamErr(op *ir.Operation, arg int, err error) error {
	if arg < 0 {
		return fmt.Errorf("%s result: %w", op.Name, err)
	}
	return fmt.Errorf("%s out param %s: %w", op.Name, op.Params[arg].Name, err)
}

// DecodeReply unmarshals the out/inout values and result. outBufs,
// when non-nil, is indexed by parameter position and supplies
// caller-allocated landing buffers for byte-buffer parameters whose
// presentation says the caller allocates; retBuf does the same for
// the result. The returned values alias those buffers when they are
// used — the stub unmarshals directly into the caller's storage
// instead of allocating (§4.1's optimization) — and are each step's
// one view of its buffer, whose length the next reply landed there
// rewrites. outs is nil when the operation has no out or inout
// parameters.
func (op *OpPlan) DecodeReply(dec Decoder, outBufs [][]byte, retBuf []byte) ([]Value, Value, error) {
	var outs []Value
	if op.nOut > 0 {
		outs = make([]Value, len(op.Op.Params))
	}
	var ret Value
	for i := range op.repDec {
		st := &op.repDec[i]
		var buf []byte
		if st.landing == LandCaller {
			if st.arg < 0 {
				buf = retBuf
			} else if outBufs != nil {
				buf = outBufs[st.arg]
			}
		}
		v, err := op.decodeStep(dec, st, buf)
		if err != nil {
			return nil, nil, replyParamErr(op.Op, st.arg, err)
		}
		if st.arg >= 0 {
			outs[st.arg] = v
		} else {
			ret = v
		}
	}
	return outs, ret, nil
}
