package runtime

import (
	"fmt"
	"math"

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
// is the one place a landing is chosen: compileDecode builds the
// closure that does what it says, DecodeReply hands a caller buffer to
// the steps it marks, and the certificate reports it.
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
// result) in one phase: enc is set in the encode phases, dec in the
// decode phases.
type step struct {
	arg     int
	name    string
	landing Landing
	traced  bool // enc is wrapped by the [traced] meter
	enc     encodeFn
	dec     decodeFn
	// borrow is set on a request-decode step whose parameter is itself a
	// byte buffer landing by borrow: the typed form of dec, which lands
	// the slice in a Call's byte slot instead of boxing it into a Value.
	borrow func(Decoder) ([]byte, error)
}

// An encodeFn is a compiled marshal step: it encodes one parameter
// value, with the parameter's type, presentation attributes and codec
// dispatch already resolved at bind time.
type encodeFn func(enc Encoder, v Value) error

// A decodeFn is a compiled unmarshal step. dst is the caller's
// landing buffer; only LandCaller steps look at it.
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
// step's landing is resolved here, stored, and the decode closure is
// built from it.
func (o *OpPlan) compileParam(arg int, name string, t *ir.Type, in, out bool) error {
	pl, a := o.plan, o.attrs(arg)
	var enc encodeFn
	var hook decodeFn // set for a [special] parameter
	if a.Special {
		var err error
		if enc, hook, err = pl.compileSpecial(o.Op.Name, name); err != nil {
			return err
		}
	} else {
		enc = compileEncode(t)
	}
	if a.Traced {
		enc = pl.wrapTraced(o.Idx, enc)
	}
	add := func(list *[]step, phase string) {
		st := step{arg: arg, name: name, landing: resolveLanding(phase, t, a)}
		switch {
		case phase == PhaseReqEncode || phase == PhaseRepEncode:
			st.enc, st.traced = enc, a.Traced
		case hook != nil:
			st.dec = hook
		default:
			st.dec = pl.compileDecode(t, st.landing)
			if phase == PhaseReqDecode && st.landing == LandBorrow {
				st.borrow = borrowBytes(t)
			}
		}
		*list = append(*list, st)
	}
	if in {
		add(&o.reqEnc, PhaseReqEncode)
		add(&o.reqDec, PhaseReqDecode)
	}
	if out {
		add(&o.repEnc, PhaseRepEncode)
		add(&o.repDec, PhaseRepDecode)
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

// wrapTraced meters an encode step whose parameter carries [traced]:
// the per-op traced Meter accumulates how many values and encoded
// bytes flowed through it. Free when stats are disabled beyond one
// nil check.
func (pl *Plan) wrapTraced(opIdx int, inner encodeFn) encodeFn {
	return func(enc Encoder, v Value) error {
		if pl.stats == nil {
			return inner(enc, v)
		}
		before := len(enc.Bytes())
		if err := inner(enc, v); err != nil {
			return err
		}
		pl.stats.AddOp(opIdx, stats.OpTracedMsgs, 1)
		pl.stats.AddOp(opIdx, stats.OpTracedBytes, len(enc.Bytes())-before)
		return nil
	}
}

// compileEncode builds the encode step for wire type t: the type
// switch runs here, once, at bind time; the returned function performs
// only the type assertion and the codec call. A kind whose step needs
// nothing from t but the kind has one package-level function, shared by
// every plan, so compiling its leaves allocates nothing.
func compileEncode(t *ir.Type) encodeFn {
	if t == nil || t.Kind == ir.Void {
		return encVoid
	}
	switch t.Kind {
	case ir.Bool:
		return encBool
	case ir.Int32:
		return encInt32
	case ir.Enum:
		return encEnum
	case ir.Uint32:
		return encUint32
	case ir.Int64:
		return encInt64
	case ir.Uint64:
		return encUint64
	case ir.Float32:
		return encFloat32
	case ir.Float64:
		return encFloat64
	case ir.String:
		return encString
	case ir.Bytes:
		return encBytes
	case ir.Port:
		return encPort
	case ir.FixedBytes:
		size := t.Size
		return func(enc Encoder, v Value) error {
			b, ok := v.([]byte)
			if !ok {
				return typeErr(t, v)
			}
			if len(b) != size {
				return fmt.Errorf("runtime: fixed opaque needs %d bytes, have %d", size, len(b))
			}
			enc.PutFixedBytes(b)
			return nil
		}
	case ir.Seq:
		elem := compileEncode(t.Elem)
		return func(enc Encoder, v Value) error {
			vs, ok := v.([]Value)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutLen(len(vs))
			for i, e := range vs {
				if err := elem(enc, e); err != nil {
					return fmt.Errorf("element %d: %w", i, err)
				}
			}
			return nil
		}
	case ir.Array:
		elem := compileEncode(t.Elem)
		size := t.Size
		return func(enc Encoder, v Value) error {
			vs, ok := v.([]Value)
			if !ok {
				return typeErr(t, v)
			}
			if len(vs) != size {
				return fmt.Errorf("runtime: array needs %d elements, have %d", size, len(vs))
			}
			for i, e := range vs {
				if err := elem(enc, e); err != nil {
					return fmt.Errorf("element %d: %w", i, err)
				}
			}
			return nil
		}
	case ir.Struct:
		type field struct {
			name string
			enc  encodeFn
		}
		fields := make([]field, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = field{f.Name, compileEncode(f.Type)}
		}
		structName := t.Name
		return func(enc Encoder, v Value) error {
			vs, ok := v.([]Value)
			if !ok {
				return typeErr(t, v)
			}
			if len(vs) != len(fields) {
				return fmt.Errorf("runtime: struct %s needs %d fields, have %d", structName, len(fields), len(vs))
			}
			for i := range fields {
				if err := fields[i].enc(enc, vs[i]); err != nil {
					return fmt.Errorf("field %s: %w", fields[i].name, err)
				}
			}
			return nil
		}
	}
	return func(Encoder, Value) error {
		return fmt.Errorf("runtime: cannot marshal kind %v", t.Kind)
	}
}

// The package-level encode steps. Each fails with typeErr's text, which
// for these kinds is the kind's name ("enum" for an enum, which is why
// it does not share int32's step).

func encVoid(_ Encoder, v Value) error {
	if v != nil {
		return fmt.Errorf("runtime: void value must be nil, have %T", v)
	}
	return nil
}

func encBool(enc Encoder, v Value) error {
	b, ok := v.(bool)
	if !ok {
		return kindErr(ir.Bool, v)
	}
	enc.PutBool(b)
	return nil
}

func encInt32(enc Encoder, v Value) error {
	n, ok := v.(int32)
	if !ok {
		return kindErr(ir.Int32, v)
	}
	enc.PutInt32(n)
	return nil
}

func encEnum(enc Encoder, v Value) error {
	n, ok := v.(int32)
	if !ok {
		return kindErr(ir.Enum, v)
	}
	enc.PutInt32(n)
	return nil
}

func encUint32(enc Encoder, v Value) error {
	n, ok := v.(uint32)
	if !ok {
		return kindErr(ir.Uint32, v)
	}
	enc.PutUint32(n)
	return nil
}

func encInt64(enc Encoder, v Value) error {
	n, ok := v.(int64)
	if !ok {
		return kindErr(ir.Int64, v)
	}
	enc.PutInt64(n)
	return nil
}

func encUint64(enc Encoder, v Value) error {
	n, ok := v.(uint64)
	if !ok {
		return kindErr(ir.Uint64, v)
	}
	enc.PutUint64(n)
	return nil
}

func encFloat32(enc Encoder, v Value) error {
	f, ok := v.(float32)
	if !ok {
		return kindErr(ir.Float32, v)
	}
	enc.PutFloat32(f)
	return nil
}

func encFloat64(enc Encoder, v Value) error {
	f, ok := v.(float64)
	if !ok {
		return kindErr(ir.Float64, v)
	}
	enc.PutFloat64(f)
	return nil
}

func encString(enc Encoder, v Value) error {
	s, ok := v.(string)
	if !ok {
		return kindErr(ir.String, v)
	}
	enc.PutString(s)
	return nil
}

func encBytes(enc Encoder, v Value) error {
	b, ok := v.([]byte)
	if !ok {
		return kindErr(ir.Bytes, v)
	}
	enc.PutBytes(b)
	return nil
}

func encPort(enc Encoder, v Value) error {
	p, ok := v.(PortName)
	if !ok {
		return kindErr(ir.Port, v)
	}
	enc.PutUint32(uint32(p))
	return nil
}

// compileDecode builds the decode step that lands wire type t where l
// says. The type switch runs here, once, at bind time; composites
// pass their landing down to their elements. A top-level scalar boxes
// into its own Value; a string or owned byte buffer lands in one block,
// its header with its bytes (ownString, ownBytes); a struct or array
// lands in one block per decoded value (compileBlock), and a sequence's
// scalar elements in one slab (seqLeaf).
func (pl *Plan) compileDecode(t *ir.Type, l Landing) decodeFn {
	if t == nil || t.Kind == ir.Void {
		return func(Decoder, []byte) (Value, error) { return nil, nil }
	}
	switch t.Kind {
	case ir.Bool:
		return func(dec Decoder, _ []byte) (Value, error) { return dec.Bool() }
	case ir.Int32, ir.Enum:
		return func(dec Decoder, _ []byte) (Value, error) { return dec.Int32() }
	case ir.Uint32:
		return func(dec Decoder, _ []byte) (Value, error) { return dec.Uint32() }
	case ir.Int64:
		return func(dec Decoder, _ []byte) (Value, error) { return dec.Int64() }
	case ir.Uint64:
		return func(dec Decoder, _ []byte) (Value, error) { return dec.Uint64() }
	case ir.Float32:
		return func(dec Decoder, _ []byte) (Value, error) { return dec.Float32() }
	case ir.Float64:
		return func(dec Decoder, _ []byte) (Value, error) { return dec.Float64() }
	case ir.String:
		return func(dec Decoder, _ []byte) (Value, error) {
			v, err := dec.stringView()
			if err != nil {
				return nil, err
			}
			return pl.ownString(v), nil
		}
	case ir.Port:
		return func(dec Decoder, _ []byte) (Value, error) {
			v, err := dec.Uint32()
			return PortName(v), err
		}
	case ir.Bytes:
		if l == LandBorrow {
			return func(dec Decoder, _ []byte) (Value, error) { return dec.Bytes() }
		}
		own := func(dec Decoder, _ []byte) (Value, error) {
			v, err := dec.Bytes()
			if err != nil {
				return nil, err
			}
			return pl.ownBytes(v), nil
		}
		if l != LandCaller {
			return own
		}
		return func(dec Decoder, dst []byte) (Value, error) {
			if dst == nil {
				return own(dec, nil)
			}
			b, err := dec.BytesInto(dst)
			if err == nil {
				pl.meterCopy(len(b))
			}
			return b, err
		}
	case ir.FixedBytes:
		size := t.Size
		if l == LandBorrow {
			return func(dec Decoder, _ []byte) (Value, error) { return dec.FixedBytes(size) }
		}
		own := func(dec Decoder, _ []byte) (Value, error) {
			v, err := dec.FixedBytes(size)
			if err != nil {
				return nil, err
			}
			return pl.ownBytes(v), nil
		}
		if l != LandCaller {
			return own
		}
		return func(dec Decoder, dst []byte) (Value, error) {
			if len(dst) < size {
				return own(dec, nil)
			}
			if err := dec.FixedBytesInto(dst[:size]); err != nil {
				return nil, err
			}
			pl.meterCopy(size)
			return dst[:size], nil
		}
	case ir.Seq:
		k, slab := seqLeaf(t.Elem)
		var elem decodeFn
		if !slab {
			elem = pl.compileDecode(t.Elem, l)
		}
		return func(dec Decoder, _ []byte) (Value, error) {
			vs, err := decodeSeq(dec, k, elem)
			if err != nil {
				return nil, err
			}
			return vs, nil
		}
	case ir.Array, ir.Struct:
		return pl.compileBlock(t, l)
	}
	kind := t.Kind
	return func(Decoder, []byte) (Value, error) {
		return nil, fmt.Errorf("runtime: cannot unmarshal kind %v", kind)
	}
}

// borrowBytes is compileDecode for a byte buffer landing by borrow, in
// typed form; nil for any other wire type.
func borrowBytes(t *ir.Type) func(Decoder) ([]byte, error) {
	switch t.Kind {
	case ir.Bytes:
		return Decoder.Bytes
	case ir.FixedBytes:
		size := t.Size
		return func(dec Decoder) ([]byte, error) { return dec.FixedBytes(size) }
	}
	return nil
}

// decodeSeq decodes a sequence: with elem nil, its elements are scalars
// of kind k in one slab; otherwise each decodes through elem.
func decodeSeq(dec Decoder, k leafKind, elem decodeFn) ([]Value, error) {
	n, err := decodeSeqLen(dec)
	if err != nil {
		return nil, err
	}
	vs := make([]Value, n)
	if elem == nil {
		w := k.width()
		s := make([]uint64, (uintptr(n)*w+7)/8)
		for i := range vs {
			bits, err := readLeaf(dec, k)
			if err != nil {
				return nil, err
			}
			vs[i] = boxLeaf(s, uintptr(i)*w, k, bits)
		}
		return vs, nil
	}
	for i := range vs {
		if vs[i], err = elem(dec, nil); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// seqLeaf returns the leaf kind of wire type t and whether a sequence
// of t lands its elements in one slab: t is a scalar other than bool,
// which keeps the Go runtime's free static box.
func seqLeaf(t *ir.Type) (leafKind, bool) {
	k, ok := leafKindOf(t)
	return k, ok && k != leafBool
}

// readLeaf decodes one non-bool scalar of kind k as its wire bits, the
// form boxLeaf stores.
func readLeaf(dec Decoder, k leafKind) (uint64, error) {
	switch k {
	case leafInt32:
		v, err := dec.Int32()
		return uint64(uint32(v)), err
	case leafUint32, leafPort:
		v, err := dec.Uint32()
		return uint64(v), err
	case leafFloat32:
		v, err := dec.Float32()
		return uint64(math.Float32bits(v)), err
	case leafInt64:
		v, err := dec.Int64()
		return uint64(v), err
	case leafUint64:
		return dec.Uint64()
	}
	v, err := dec.Float64()
	return math.Float64bits(v), err
}

// Decoding a fixed-shape value (a struct or an array) runs in two
// phases over a program compiled once per type at bind time:
//
//   - phase 1 reads the wire in order into the decoder's scratch: each
//     maximal run of adjacent scalar leaves in one codec call, a string
//     or byte buffer as a view of the message, a sequence as its own
//     decoded value. Nothing of the value itself is allocated yet, so a
//     malformed message fails here with no block; only a sequence,
//     decoded apart, allocates on the way;
//   - phase 2 allocates the value's one block (slab.go) with a tail of
//     the size phase 1 measured, stores the scalars in its slab and the
//     strings and owned buffers in its tail, and boxes every Value.

// A blockProg is the compiled decode of one fixed-shape value: its
// steps in wire order, where each run is followed by its leaves, and
// its nested structs and arrays, parents before children.
type blockProg struct {
	bt    *blockType
	n     int // the value's element count
	steps []blockStep
	fixed []blockFixed
	words int // scratch words: one per scalar leaf
	views int // scratch views: one per string and byte buffer
	seqs  int // scratch sequences
}

type stepKind uint8

const (
	stepRun    stepKind = iota // a run of scalar leaves: one codec call
	stepLeaf                   // one of its run's leaves
	stepString                 // a view, copied into the tail
	stepBytes                  // a view, copied into the tail when own
	stepSeq                    // a sequence, decoded apart
	stepFail                   // a kind no plan decodes: elem fails
)

// A blockStep is one step of a blockProg. A leaf lands scratch word idx
// in value slot dst and slab byte offset off. A string, byte buffer or
// sequence fills scratch slot idx in phase 1 and lands it in region
// slot at and value slot dst in phase 2.
type blockStep struct {
	kind         stepKind
	leaf         leafKind // stepLeaf; stepSeq: its elements' kind when they land in a slab
	own          bool     // stepBytes: copied into the tail
	n            int32    // stepRun: its leaves
	size         int32    // stepBytes: the fixed length, or -1 when the wire carries it
	dst, at, idx int32
	off          uint32
	xdr          int32    // stepRun: wire size on XDR
	cdr          [8]int32 // stepRun: wire size on CDR by start offset modulo 8
	elem         decodeFn // stepSeq: each element, unless they land in a slab; stepFail
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
// static box.
type leafKind uint8

const (
	leafBool leafKind = iota
	leafInt32
	leafUint32
	leafFloat32
	leafPort
	leafInt64
	leafUint64
	leafFloat64
)

// leafKindOf returns the leaf kind of wire type t, or false when t is
// not a scalar.
func leafKindOf(t *ir.Type) (leafKind, bool) {
	switch t.Kind {
	case ir.Bool:
		return leafBool, true
	case ir.Int32, ir.Enum:
		return leafInt32, true
	case ir.Uint32:
		return leafUint32, true
	case ir.Float32:
		return leafFloat32, true
	case ir.Port:
		return leafPort, true
	case ir.Int64:
		return leafInt64, true
	case ir.Uint64:
		return leafUint64, true
	case ir.Float64:
		return leafFloat64, true
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

// A blockFixed is a nested struct or array: its header, in hdrs slot
// at, covers vals[v0:v0+nv] and boxes into vals[dst].
type blockFixed struct{ dst, at, v0, nv int }

// A blockLayout places a fixed-shape value's slots in its block at bind
// time and emits the steps that fill them. It runs twice: once to count,
// so that the second run allocates each slice at its final size.
type blockLayout struct {
	pl     *Plan
	l      Landing
	count  bool // the counting run: emit nothing
	steps  []blockStep
	fixeds []blockFixed
	nsteps int
	nfixed int
	run    int // the open run step, or -1 when a non-scalar step closed it
	leaves int // scalar leaves so far
	views  int
	seqs   int
	shape  blockShape
	half   uintptr // slab byte offset of the open half-word; 0 when none is open
}

// compileBlock builds the decode of a fixed-shape value t (a struct or
// an array). Each decoded value is one allocation, a block: nested
// structs and arrays flatten into it, strings and owned byte buffers
// land in its tail, and only a sequence's backing and slab allocate
// apart.
func (pl *Plan) compileBlock(t *ir.Type, l Landing) decodeFn {
	first := blockLayout{pl: pl, l: l, count: true, run: -1}
	first.fixed(t)
	lay := blockLayout{pl: pl, l: l, run: -1, steps: make([]blockStep, 0, first.nsteps)}
	if first.nfixed > 0 {
		lay.fixeds = make([]blockFixed, 0, first.nfixed)
	}
	lay.fixed(t)
	for i, s := range lay.steps {
		if s.kind == stepRun {
			sizes(lay.steps[i : i+1+int(s.n)])
		}
	}
	pr := blockProg{bt: blockTypeOf(lay.shape), n: fixedLen(t), steps: lay.steps, fixed: lay.fixeds,
		words: lay.leaves, views: lay.views, seqs: lay.seqs}
	return func(dec Decoder, _ []byte) (Value, error) {
		return pl.decodeBlock(dec, pr)
	}
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

// place lays out n values of wire type t landing at vals[dst:dst+n] and
// emits the steps that decode them.
func (lay *blockLayout) place(t *ir.Type, dst, n int) {
	if t.Kind == ir.Array || t.Kind == ir.Struct {
		for j := 0; j < n; j++ {
			lay.nfixed++
			if !lay.count {
				lay.fixeds = append(lay.fixeds, blockFixed{dst + j, lay.shape.hdrs, lay.shape.vals, fixedLen(t)})
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
		if w > 0 {
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
	if t.Kind == ir.Void {
		return
	}
	lay.run = -1
	take := func(c *int) int32 { at := *c; *c++; return int32(at) }
	s := blockStep{size: -1}
	switch t.Kind {
	case ir.String:
		s.kind = stepString
	case ir.Bytes, ir.FixedBytes:
		s.kind, s.own = stepBytes, lay.l != LandBorrow
		if t.Kind == ir.FixedBytes {
			s.size = int32(t.Size)
		}
	case ir.Seq:
		s.kind = stepSeq
		var slab bool
		if s.leaf, slab = seqLeaf(t.Elem); !slab && !lay.count {
			s.elem = lay.pl.compileDecode(t.Elem, lay.l)
		}
	default:
		s.kind, s.elem = stepFail, lay.pl.compileDecode(t, lay.l)
	}
	for j := 0; j < n; j++ {
		s.dst = int32(dst + j)
		switch s.kind {
		case stepString:
			s.at, s.idx = take(&lay.shape.strs), take(&lay.views)
		case stepBytes:
			s.at, s.idx = take(&lay.shape.byts), take(&lay.views)
		case stepSeq:
			s.at, s.idx = take(&lay.shape.hdrs), take(&lay.seqs)
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

// decodeBlock decodes one value of pr's shape: phase 1 into the
// decoder's scratch, phase 2 into one fresh block.
func (pl *Plan) decodeBlock(dec Decoder, pr blockProg) (Value, error) {
	sc := dec.scratch()
	top := sc.top
	words, views, seqs := sc.take(pr.words, pr.views, pr.seqs)
	v, err := pl.fillBlock(dec, &pr, words, views, seqs)
	clear(views)
	clear(seqs)
	sc.top = top
	return v, err
}

// fillBlock runs pr's two phases over scratch words, views and seqs.
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
			if s.size < 0 {
				views[s.idx], err = dec.Bytes()
			} else {
				views[s.idx], err = dec.FixedBytes(int(s.size))
			}
			if s.own {
				tail += len(views[s.idx])
			}
		case stepSeq:
			seqs[s.idx], err = decodeSeq(dec, s.leaf, s.elem)
		case stepFail:
			_, err = s.elem(dec, nil)
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

// Top-level strings and owned byte buffers are blocks too: the header
// and, in the tail, the bytes.
var (
	stringBlock = blockTypeOf(blockShape{strs: 1})
	bytesBlock  = blockTypeOf(blockShape{byts: 1})
)

// ownString lands a string, a view of the message, in one fresh block;
// an empty one boxes for free.
func (pl *Plan) ownString(v []byte) Value {
	pl.meterTail(len(v))
	if len(v) == 0 {
		return ""
	}
	var b block
	stringBlock.alloc(&b, len(v))
	return stringBox.setAt(b.strs, 0, b.string(v))
}

// ownBytes lands a byte buffer, a view of the message, in one fresh
// block.
func (pl *Plan) ownBytes(v []byte) Value {
	pl.meterTail(len(v))
	var b block
	bytesBlock.alloc(&b, len(v))
	return bytesBox.setAt(b.byts, 0, b.bytes(v))
}

// EncodeRequest marshals the in and inout arguments. args is indexed
// by parameter position; out-only positions are ignored.
func (op *OpPlan) EncodeRequest(enc Encoder, args []Value) error {
	if len(args) != len(op.Op.Params) {
		return fmt.Errorf("runtime: %s takes %d params, have %d values", op.Op.Name, len(op.Op.Params), len(args))
	}
	for i := range op.reqEnc {
		st := &op.reqEnc[i]
		if err := st.enc(enc, args[st.arg]); err != nil {
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
		v, err := st.dec(dec, nil)
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
		if st.borrow == nil {
			c.in[st.arg], err = st.dec(dec, nil)
		} else if c.inBytes[st.arg], err = st.borrow(dec); c.inBytes[st.arg] == nil {
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
		if err := st.enc(enc, v); err != nil {
			if st.arg >= 0 {
				return fmt.Errorf("%s out param %s: %w", op.Op.Name, st.name, err)
			}
			return fmt.Errorf("%s result: %w", op.Op.Name, err)
		}
	}
	return nil
}

// DecodeReply unmarshals the out/inout values and result. outBufs,
// when non-nil, is indexed by parameter position and supplies
// caller-allocated landing buffers for byte-buffer parameters whose
// presentation says the caller allocates; retBuf does the same for
// the result. The returned values alias those buffers when they are
// used — the stub unmarshals directly into the caller's storage
// instead of allocating (§4.1's optimization). outs is nil when the
// operation has no out or inout parameters.
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
		v, err := st.dec(dec, buf)
		if err != nil {
			if st.arg >= 0 {
				return nil, nil, fmt.Errorf("%s out param %s: %w", op.Op.Name, st.name, err)
			}
			return nil, nil, fmt.Errorf("%s result: %w", op.Op.Name, err)
		}
		if st.arg >= 0 {
			outs[st.arg] = v
		} else {
			ret = v
		}
	}
	return outs, ret, nil
}

// decodeSeqLen reads a sequence element count and bounds it by the
// bytes actually present: every element occupies at least one input
// byte, so a length word larger than the remaining message is a
// corrupt (or hostile) message, not a huge allocation.
func decodeSeqLen(dec Decoder) (int, error) {
	n, err := dec.Len()
	if err != nil {
		return 0, err
	}
	if n > dec.Remaining() {
		return 0, fmt.Errorf("runtime: sequence of %d elements exceeds %d remaining bytes", n, dec.Remaining())
	}
	return n, nil
}
