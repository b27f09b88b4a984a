package runtime

import (
	"fmt"

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
	Pres   *pres.Presentation
	Codec  Codec
	Ops    []*OpPlan
	hooks  SpecialHooks
	byName map[string]int

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

// meterAlloc records a fresh landing-buffer allocation.
func (p *Plan) meterAlloc(n int) {
	if p.stats != nil {
		p.stats.Alloc.Add(n)
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
func NewPlan(p *pres.Presentation, codec Codec, hooks SpecialHooks) (*Plan, error) {
	pl := &Plan{Pres: p, Codec: codec, hooks: hooks, byName: make(map[string]int)}
	pl.maxDecode = DefaultMaxDecode
	if p.Trust >= pres.TrustFull {
		pl.maxDecode = TrustedMaxDecode
	}
	for i := range p.Interface.Ops {
		op := &p.Interface.Ops[i]
		opPres := p.Op(op.Name)
		if opPres == nil {
			return nil, fmt.Errorf("runtime: presentation missing operation %q", op.Name)
		}
		opPlan, err := pl.compileOp(i, op, opPres)
		if err != nil {
			return nil, err
		}
		pl.Ops = append(pl.Ops, opPlan)
		pl.byName[op.Name] = i
	}
	return pl, nil
}

// OpIndex returns the plan index for the named operation, or -1.
func (p *Plan) OpIndex(name string) int {
	if i, ok := p.byName[name]; ok {
		return i
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

// attrs returns the presentation attributes for a parameter name,
// or a zero value when unannotated.
func (op *OpPlan) attrs(name string) *pres.ParamAttrs {
	if a, ok := op.pres.Params[name]; ok {
		return a
	}
	return &zeroAttrs
}

var zeroAttrs pres.ParamAttrs

// compileOp builds the four step lists for one operation.
func (pl *Plan) compileOp(idx int, op *ir.Operation, opPres *pres.OpPres) (*OpPlan, error) {
	o := &OpPlan{Idx: idx, Op: op, pres: opPres, plan: pl}
	for i := range op.Params {
		prm := &op.Params[i]
		if err := o.compileParam(i, prm.Name, prm.Type, prm.Dir != ir.Out, prm.Dir != ir.In); err != nil {
			return nil, err
		}
		if prm.Dir != ir.In {
			o.nOut++
		}
	}
	if op.HasResult() {
		if err := o.compileParam(-1, pres.ResultParam, op.Result, false, true); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// compileParam appends one parameter's steps to the request lists
// when it travels in and to the reply lists when it travels out. Each
// step's landing is resolved here, stored, and the decode closure is
// built from it.
func (o *OpPlan) compileParam(arg int, name string, t *ir.Type, in, out bool) error {
	pl, a := o.plan, o.attrs(name)
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

// compileSpecial resolves a [special] parameter to its hooks.
func (pl *Plan) compileSpecial(opName, prmName string) (encodeFn, decodeFn, error) {
	if pl.hooks == nil {
		what := "param " + prmName
		if prmName == pres.ResultParam {
			what = "result"
		}
		return nil, nil, fmt.Errorf("runtime: %s.%s %s is [special] but no hooks were provided",
			pl.Pres.Interface.Name, opName, what)
	}
	hooks := pl.hooks
	return func(e Encoder, v Value) error { return hooks.EncodeSpecial(opName, prmName, e, v) },
		func(d Decoder, _ []byte) (Value, error) { return hooks.DecodeSpecial(opName, prmName, d) }, nil
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
// switch runs here, once, at bind time; the returned closure performs
// only the type assertion and the codec call.
func compileEncode(t *ir.Type) encodeFn {
	if t == nil || t.Kind == ir.Void {
		return func(enc Encoder, v Value) error {
			if v != nil {
				return fmt.Errorf("runtime: void value must be nil, have %T", v)
			}
			return nil
		}
	}
	switch t.Kind {
	case ir.Bool:
		return func(enc Encoder, v Value) error {
			b, ok := v.(bool)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutBool(b)
			return nil
		}
	case ir.Int32, ir.Enum:
		return func(enc Encoder, v Value) error {
			n, ok := v.(int32)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutInt32(n)
			return nil
		}
	case ir.Uint32:
		return func(enc Encoder, v Value) error {
			n, ok := v.(uint32)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutUint32(n)
			return nil
		}
	case ir.Int64:
		return func(enc Encoder, v Value) error {
			n, ok := v.(int64)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutInt64(n)
			return nil
		}
	case ir.Uint64:
		return func(enc Encoder, v Value) error {
			n, ok := v.(uint64)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutUint64(n)
			return nil
		}
	case ir.Float32:
		return func(enc Encoder, v Value) error {
			f, ok := v.(float32)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutFloat32(f)
			return nil
		}
	case ir.Float64:
		return func(enc Encoder, v Value) error {
			f, ok := v.(float64)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutFloat64(f)
			return nil
		}
	case ir.String:
		return func(enc Encoder, v Value) error {
			s, ok := v.(string)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutString(s)
			return nil
		}
	case ir.Bytes:
		return func(enc Encoder, v Value) error {
			b, ok := v.([]byte)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutBytes(b)
			return nil
		}
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
		fields := make([]encodeFn, len(t.Fields))
		names := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = compileEncode(f.Type)
			names[i] = f.Name
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
			for i, fn := range fields {
				if err := fn(enc, vs[i]); err != nil {
					return fmt.Errorf("field %s: %w", names[i], err)
				}
			}
			return nil
		}
	case ir.Port:
		return func(enc Encoder, v Value) error {
			p, ok := v.(PortName)
			if !ok {
				return typeErr(t, v)
			}
			enc.PutUint32(uint32(p))
			return nil
		}
	}
	return func(Encoder, Value) error {
		return fmt.Errorf("runtime: cannot marshal kind %v", t.Kind)
	}
}

// compileDecode builds the decode step that lands wire type t where l
// says. The type switch runs here, once, at bind time; composites
// pass their landing down to their elements. A top-level scalar boxes
// into its own Value; a struct or array lands in one block per decoded
// value (compileBlock), and a sequence's scalar elements in one slab
// (slabLeaf).
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
		return func(dec Decoder, _ []byte) (Value, error) { return dec.String() }
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
			b, err := dec.Bytes()
			if err != nil {
				return nil, err
			}
			return pl.ownBytes(b), nil
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
			out := make([]byte, size)
			if err := dec.FixedBytesInto(out); err != nil {
				return nil, err
			}
			pl.meterAlloc(size)
			pl.meterCopy(size)
			return out, nil
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
		leaf, w := slabLeaf(t.Elem)
		var elem decodeFn
		if leaf == nil {
			elem = pl.compileDecode(t.Elem, l)
		}
		return func(dec Decoder, _ []byte) (Value, error) {
			vs, err := decodeSeq(dec, leaf, w, elem)
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

// ownBytes copies a borrowed byte buffer into fresh storage, metered.
func (pl *Plan) ownBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	pl.meterAlloc(len(b))
	pl.meterCopy(len(b))
	return out
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

// decodeSeq decodes a sequence: its scalar elements into one slab when
// leaf is set, each through elem otherwise.
func decodeSeq(dec Decoder, leaf leafFn, w uintptr, elem decodeFn) ([]Value, error) {
	n, err := decodeSeqLen(dec)
	if err != nil {
		return nil, err
	}
	vs := make([]Value, n)
	if leaf != nil {
		s := make([]uint64, (uintptr(n)*w+7)/8)
		for i := range vs {
			if vs[i], err = leaf(dec, s, uintptr(i)*w); err != nil {
				return nil, err
			}
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

// A blockOp decodes n values of one wire type in a row into a block:
// one field, or an array's run of elements. Value j lands in
// vals[dst+j]; whatever else it boxes lands in slot at+j of its region,
// or for a scalar leaf at slab byte offset off+j*w.
type blockOp struct {
	n, dst, at int
	v0, nv     int // opFixed: its elements are vals[v0:v0+nv]
	off, w     uintptr
	bytes      func(Decoder) ([]byte, error) // opBytes, by borrow (borrowBytes)
	leaf       leafFn                        // opLeaf; opSeq of scalar elements
	elem       decodeFn                      // opSeq of other elements; opValue itself
	kind       blockOpKind
	own        bool // opBytes: copied into fresh storage
}

type blockOpKind uint8

const (
	opValue  blockOpKind = iota // boxes through elem (a bool, which is free)
	opLeaf                      // a non-bool scalar in the slab
	opString                    // header in strs
	opBytes                     // header in byts
	opSeq                       // header in hdrs; backing and slab apart
	opFixed                     // a nested struct or array: header in hdrs
)

// A blockLayout places a fixed-shape value's slots in its block at bind
// time, and appends the ops that fill them.
type blockLayout struct {
	shape blockShape
	half  uintptr // slab byte offset of the open half-word; 0 when none is open
	ops   []blockOp
}

// compileBlock builds the decode of a fixed-shape value t (a struct or
// an array). Each decoded value is one allocation, a block (slab.go):
// nested structs and arrays flatten into it, and only string bytes,
// owned byte storage and a sequence's backing and slab allocate apart.
func (pl *Plan) compileBlock(t *ir.Type, l Landing) decodeFn {
	lay := blockLayout{ops: make([]blockOp, 0, elemOps(t))}
	lay.fixed(pl, t, l)
	bt, ops, n := blockTypeOf(lay.shape), lay.ops, fixedLen(t)
	return func(dec Decoder, _ []byte) (Value, error) {
		return pl.decodeBlock(dec, bt, n, ops)
	}
}

// fixedLen is the element count of a struct or array.
func fixedLen(t *ir.Type) int {
	if t.Kind == ir.Array {
		return t.Size
	}
	return len(t.Fields)
}

// elemOps counts the ops that decode the elements of struct or array t.
func elemOps(t *ir.Type) int {
	if t.Kind == ir.Array {
		return placeOps(t.Elem, t.Size)
	}
	count := 0
	for _, f := range t.Fields {
		count += placeOps(f.Type, 1)
	}
	return count
}

// placeOps counts the ops place emits for n values of wire type t.
func placeOps(t *ir.Type, n int) int {
	if t.Kind != ir.Array && t.Kind != ir.Struct {
		return 1
	}
	return n * (1 + elemOps(t))
}

// fixed places composite t's header in the next hdrs slot and its
// elements in the next vals slots, then lays the elements out.
func (lay *blockLayout) fixed(pl *Plan, t *ir.Type, l Landing) {
	lay.shape.hdrs++
	v0 := lay.shape.vals
	lay.shape.vals += fixedLen(t)
	if t.Kind == ir.Array {
		lay.place(pl, t.Elem, l, v0, t.Size)
		return
	}
	for i, f := range t.Fields {
		lay.place(pl, f.Type, l, v0+i, 1)
	}
}

// place lays out n values of wire type t landing at vals[dst:dst+n] and
// appends the ops that decode them.
func (lay *blockLayout) place(pl *Plan, t *ir.Type, l Landing, dst, n int) {
	if t.Kind == ir.Array || t.Kind == ir.Struct {
		// Each element is its own op, followed by its elements' ops: a
		// composite's fields need not be one kind.
		for j := 0; j < n; j++ {
			o := lay.next()
			o.kind, o.n, o.dst, o.at, o.v0, o.nv = opFixed, 1, dst+j, lay.shape.hdrs, lay.shape.vals, fixedLen(t)
			lay.fixed(pl, t, l)
		}
		return
	}
	o := lay.next()
	o.n, o.dst = n, dst
	if leaf, w := slabLeaf(t); leaf != nil {
		o.kind, o.leaf, o.w, o.off = opLeaf, leaf, w, lay.words(w, n)
		return
	}
	take := func(c *int) int { at := *c; *c += n; return at }
	switch t.Kind {
	case ir.String:
		o.kind, o.at = opString, take(&lay.shape.strs)
	case ir.Bytes, ir.FixedBytes:
		o.kind, o.at, o.own, o.bytes = opBytes, take(&lay.shape.byts), l != LandBorrow, borrowBytes(t)
	case ir.Seq:
		o.kind, o.at = opSeq, take(&lay.shape.hdrs)
		if o.leaf, o.w = slabLeaf(t.Elem); o.leaf == nil {
			o.elem = pl.compileDecode(t.Elem, l)
		}
	default:
		o.elem = pl.compileDecode(t, l)
	}
}

// next appends a zero op and returns it; compileBlock sized ops so that
// it never grows.
func (lay *blockLayout) next() *blockOp {
	lay.ops = append(lay.ops, blockOp{})
	return &lay.ops[len(lay.ops)-1]
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

// decodeBlock decodes one fixed-shape value of n elements into a fresh
// block of type bt by running its ops in wire order.
func (pl *Plan) decodeBlock(dec Decoder, bt *blockType, n int, ops []blockOp) (Value, error) {
	var b block
	bt.alloc(&b)
	root := valuesBox.setAt(b.hdrs, 0, b.vals[:n:n])
	var err error
	for i := range ops {
		o := &ops[i]
		vals := b.vals[o.dst : o.dst+o.n]
		switch o.kind {
		case opLeaf:
			for j := range vals {
				if vals[j], err = o.leaf(dec, b.slab, o.off+uintptr(j)*o.w); err != nil {
					return nil, err
				}
			}
		case opString:
			for j := range vals {
				var s string
				if s, err = dec.String(); err != nil {
					return nil, err
				}
				vals[j] = stringBox.setAt(b.strs, o.at+j, s)
			}
		case opBytes:
			for j := range vals {
				var bs []byte
				if bs, err = o.bytes(dec); err != nil {
					return nil, err
				}
				if o.own {
					bs = pl.ownBytes(bs)
				}
				vals[j] = bytesBox.setAt(b.byts, o.at+j, bs)
			}
		case opSeq:
			for j := range vals {
				var vs []Value
				if vs, err = decodeSeq(dec, o.leaf, o.w, o.elem); err != nil {
					return nil, err
				}
				vals[j] = valuesBox.setAt(b.hdrs, o.at+j, vs)
			}
		case opFixed:
			vals[0] = valuesBox.setAt(b.hdrs, o.at, b.vals[o.v0:o.v0+o.nv:o.v0+o.nv])
		default:
			for j := range vals {
				if vals[j], err = o.elem(dec, nil); err != nil {
					return nil, err
				}
			}
		}
	}
	return root, nil
}

// A leafFn decodes one non-bool scalar leaf of a composite into the
// composite's slab at byte offset off (see slab.go).
type leafFn func(dec Decoder, s []uint64, off uintptr) (Value, error)

// slabLeaf returns the slab decode of wire type t and the width of its
// slot in bytes, or nil and 0 when t is not a non-bool scalar. It is
// the only decode a scalar inside a composite has; a bool keeps the Go
// runtime's free static box.
func slabLeaf(t *ir.Type) (leafFn, uintptr) {
	if t == nil {
		return nil, 0
	}
	switch t.Kind {
	case ir.Int32, ir.Enum:
		return func(dec Decoder, s []uint64, off uintptr) (Value, error) {
			n, err := dec.Int32()
			return slabInt32.boxAt(s, off, n), err
		}, 4
	case ir.Uint32:
		return func(dec Decoder, s []uint64, off uintptr) (Value, error) {
			n, err := dec.Uint32()
			return slabUint32.boxAt(s, off, n), err
		}, 4
	case ir.Int64:
		return func(dec Decoder, s []uint64, off uintptr) (Value, error) {
			n, err := dec.Int64()
			return slabInt64.boxAt(s, off, n), err
		}, 8
	case ir.Uint64:
		return func(dec Decoder, s []uint64, off uintptr) (Value, error) {
			n, err := dec.Uint64()
			return slabUint64.boxAt(s, off, n), err
		}, 8
	case ir.Float32:
		return func(dec Decoder, s []uint64, off uintptr) (Value, error) {
			f, err := dec.Float32()
			return slabFloat32.boxAt(s, off, f), err
		}, 4
	case ir.Float64:
		return func(dec Decoder, s []uint64, off uintptr) (Value, error) {
			f, err := dec.Float64()
			return slabFloat64.boxAt(s, off, f), err
		}, 8
	case ir.Port:
		return func(dec Decoder, s []uint64, off uintptr) (Value, error) {
			n, err := dec.Uint32()
			return slabPort.boxAt(s, off, PortName(n)), err
		}, 4
	}
	return nil, 0
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
