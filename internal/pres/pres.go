// Package pres models RPC presentation: the "programmer's contract"
// between generated stubs and the code that calls or implements them.
//
// A Presentation is always attached to an ir.Interface (the network
// contract) but never alters it; two endpoints of one connection may
// hold arbitrarily different Presentations of the same interface and
// still interoperate. This separation — and the performance won by
// exploiting it — is the central idea of the paper.
package pres

import (
	"fmt"
	"sort"

	"flexrpc/internal/idl"
	"flexrpc/internal/ir"
)

// Style selects the fixed rule-set used to compute an interface's
// default presentation, mirroring the language mappings of existing
// RPC systems.
type Style int

// Presentation styles.
const (
	// StyleCORBA follows the CORBA C mapping: out parameters and
	// results use move semantics (callee allocates, stub/consumer
	// deallocates); in parameters have copy semantics.
	StyleCORBA Style = iota
	// StyleSun follows rpcgen: like CORBA for allocation, XDR wire
	// conventions, results returned through pointers.
	StyleSun
	// StyleMIG follows the Mach Interface Generator for
	// non-copy-on-write parameters: the caller allocates out
	// buffers and the callee fills them in.
	StyleMIG
)

func (s Style) String() string {
	switch s {
	case StyleCORBA:
		return "corba"
	case StyleSun:
		return "sun"
	case StyleMIG:
		return "mig"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// AllocPolicy says which side provides storage for a buffer-like
// parameter.
type AllocPolicy int

// Allocation policies.
const (
	// AllocAuto lets the RPC system decide (and adapt to the peer).
	AllocAuto AllocPolicy = iota
	// AllocCaller means the caller provides the buffer and the
	// callee fills it (MIG-style out parameters).
	AllocCaller
	// AllocCallee means the callee allocates the buffer and donates
	// it to the caller (CORBA/COM move semantics).
	AllocCallee
)

func (a AllocPolicy) String() string {
	switch a {
	case AllocAuto:
		return "auto"
	case AllocCaller:
		return "caller"
	case AllocCallee:
		return "callee"
	}
	return fmt.Sprintf("AllocPolicy(%d)", int(a))
}

// DeallocPolicy says whether the stub deallocates a buffer after
// marshaling it (relevant on the side that sends the data).
type DeallocPolicy int

// Deallocation policies.
const (
	// DeallocDefault applies the style's rule (move semantics under
	// CORBA: the stub frees the server's buffer after marshaling).
	DeallocDefault DeallocPolicy = iota
	// DeallocAlways forces the stub to free the buffer.
	DeallocAlways
	// DeallocNever tells the stub the endpoint manages its own
	// storage — the paper's fix for the pipe server's circular
	// buffer (Figure 5).
	DeallocNever
)

func (d DeallocPolicy) String() string {
	switch d {
	case DeallocDefault:
		return "default"
	case DeallocAlways:
		return "always"
	case DeallocNever:
		return "never"
	}
	return fmt.Sprintf("DeallocPolicy(%d)", int(d))
}

// Trust is the degree to which one endpoint trusts its peer; it is a
// presentation attribute because it affects only local guarantees,
// never the network contract (paper §4.5).
type Trust int

// Trust levels, in increasing order of trust.
const (
	// TrustNone: the peer is fully untrusted (default).
	TrustNone Trust = iota
	// TrustLeaky ([leaky]): information may leak to the peer, but
	// the peer must not be able to corrupt us.
	TrustLeaky
	// TrustFull ([leaky,unprotected]): the peer may see and corrupt
	// everything — e.g. a privileged personality server.
	TrustFull
)

func (t Trust) String() string {
	switch t {
	case TrustNone:
		return "none"
	case TrustLeaky:
		return "leaky"
	case TrustFull:
		return "leaky,unprotected"
	}
	return fmt.Sprintf("Trust(%d)", int(t))
}

// A ParamAttr names one parameter attribute a PDL file can apply; it
// indexes ParamAttrs.At.
type ParamAttr uint8

// Parameter attributes.
const (
	AttrAlloc ParamAttr = iota
	AttrDealloc
	AttrTrashable
	AttrPreserved
	AttrSpecial
	AttrLengthIs
	AttrNonUnique
	AttrTraced
	numParamAttrs
)

// An OpAttr names one operation attribute; it indexes OpPres.At.
type OpAttr uint8

// Operation attributes.
const (
	AttrCommStatus OpAttr = iota
	AttrIdempotent
	AttrBatchable
	numOpAttrs
)

// An IfaceAttr names one interface attribute; it indexes
// Presentation.At.
type IfaceAttr uint8

// Interface attributes. [trusted] is shared memory's spelling of
// [unprotected]; each is recorded under its own name.
const (
	AttrLeaky IfaceAttr = iota
	AttrUnprotected
	AttrTrusted
	AttrCORBAStyle
	AttrMIGStyle
	numIfaceAttrs
)

// ParamAttrs carries the presentation attributes of one parameter
// (or of the operation result, under the pseudo-parameter name
// "return").
type ParamAttrs struct {
	// Alloc selects who provides buffer storage.
	Alloc AllocPolicy
	// Dealloc selects whether the stub frees the buffer after
	// marshaling.
	Dealloc DeallocPolicy
	// Trashable (client side, in parameters): the caller permits
	// its buffer to be trashed during the call.
	Trashable bool
	// Preserved (server side, in parameters): the work function
	// promises not to modify the buffer it receives.
	Preserved bool
	// Special: the parameter is marshaled/unmarshaled by
	// programmer-provided routines ([special]), e.g. the Linux NFS
	// client's copyin/copyout path.
	Special bool
	// LengthIs names a companion integer parameter carrying the
	// explicit length of this buffer ([length_is(param)]).
	LengthIs string
	// NonUnique (port parameters): the receiving task does not need
	// the unique-name invariant for this right ([nonunique]).
	NonUnique bool
	// Traced: the parameter's encoded size is metered into the
	// endpoint's per-op traced counters when stats are enabled
	// ([traced]). Free when stats are off.
	Traced bool
	// Pos is the source position of the parameter's PDL annotation
	// clause, when the attributes came from a PDL file; the zero
	// value means the attributes were synthesized (Default) or built
	// by hand.
	Pos idl.Pos
	// At holds the source position of each explicitly applied
	// attribute, by ParamAttr; a zero position means the attribute was
	// not applied. It is nil until one is: a default presentation
	// carries no positions. pdl.Apply fills it so validation errors and
	// flexvet diagnostics can point at the PDL source line that caused
	// them.
	At *[numParamAttrs]idl.Pos
}

// MarkAt records that the attribute was explicitly applied at pos (as
// opposed to synthesized by the default-presentation rules).
func (a *ParamAttrs) MarkAt(attr ParamAttr, pos idl.Pos) {
	if a.At == nil {
		a.At = new([numParamAttrs]idl.Pos)
	}
	a.At[attr] = pos
	if a.Pos.Line == 0 {
		a.Pos = pos
	}
}

// Explicit reports whether the attribute was explicitly applied (by
// PDL or MarkAt) rather than defaulted.
func (a *ParamAttrs) Explicit(attr ParamAttr) bool { return a.At != nil && a.At[attr].Line != 0 }

// clone returns a copy of a that shares no positions with it.
func (a ParamAttrs) clone() ParamAttrs {
	if a.At != nil {
		at := *a.At
		a.At = &at
	}
	return a
}

// AttrPos picks the most precise recorded position for a diagnostic:
// that of the first listed attribute that was explicitly applied, else
// the parameter clause's.
func (a *ParamAttrs) AttrPos(attrs ...ParamAttr) idl.Pos {
	for _, attr := range attrs {
		if a.Explicit(attr) {
			return a.At[attr]
		}
	}
	return a.Pos
}

// OpPres is the presentation of a single operation.
type OpPres struct {
	Name string
	// Params[j] holds the attributes of the operation's parameter j;
	// the result's, when the operation has one, come last.
	Params []ParamAttrs
	// Dangling holds annotations of parameters the operation does not
	// have, in the order they were first annotated (Annotate).
	Dangling []NamedParam
	// CommStatus ([comm_status]): RPC failures are reported through
	// a status return instead of an exception environment.
	CommStatus bool
	// Idempotent ([idempotent]): re-executing the operation is
	// harmless, so a retrying client may retransmit it without
	// server-side duplicate suppression. Like every presentation
	// attribute it never changes the network contract — the wire
	// messages of an idempotent op are byte-identical to an
	// unannotated one.
	Idempotent bool
	// Batchable ([batchable]): the operation's calls may be queued
	// briefly and sent to the server merged with other batchable
	// calls in one session frame, trading a bounded added latency for
	// per-call wire and syscall overhead. Like [idempotent] this is
	// endpoint-private: the sub-call bodies inside a batch frame are
	// byte-identical to unbatched ones.
	Batchable bool
	// Pos is the source position of the operation's PDL declaration,
	// when one was applied.
	Pos idl.Pos
	// At holds the positions of explicitly applied operation
	// attributes, by OpAttr.
	At [numOpAttrs]idl.Pos
	// op is the interface's operation; nil when the interface has none
	// of this name.
	op *ir.Operation
}

// A NamedParam is one parameter's attributes under its name.
type NamedParam struct {
	Name  string
	Attrs *ParamAttrs
}

// MarkAt records that the operation attribute was explicitly applied
// at pos.
func (o *OpPres) MarkAt(attr OpAttr, pos idl.Pos) { o.At[attr] = pos }

// ResultParam is the name a presentation gives an operation's result.
const ResultParam = "return"

// Param returns the attributes of the operation's named parameter, or
// of its result under ResultParam; nil when the operation has no such
// parameter.
func (o *OpPres) Param(name string) *ParamAttrs {
	if o.op == nil {
		return nil
	}
	if name == ResultParam {
		return o.Result()
	}
	for j := range o.op.Params {
		if o.op.Params[j].Name == name {
			return &o.Params[j]
		}
	}
	return nil
}

// Result returns the attributes of the operation result, or nil when
// the operation has none.
func (o *OpPres) Result() *ParamAttrs {
	if o.op == nil || !o.op.HasResult() {
		return nil
	}
	return &o.Params[len(o.Params)-1]
}

// Annotate returns the record an annotation of the named parameter
// lands in: the parameter's attributes, or a Dangling entry when the
// operation has no such parameter, added on first use.
func (o *OpPres) Annotate(name string) *ParamAttrs {
	if a := o.Param(name); a != nil {
		return a
	}
	for _, d := range o.Dangling {
		if d.Name == name {
			return d.Attrs
		}
	}
	a := &ParamAttrs{}
	o.Dangling = append(o.Dangling, NamedParam{name, a})
	return a
}

// param is the name, wire type and direction of the parameter whose
// attributes are Params[j].
func (o *OpPres) param(j int) (string, *ir.Type, ir.Direction) {
	if j == len(o.op.Params) {
		return ResultParam, o.op.Result, ir.Out
	}
	prm := &o.op.Params[j]
	return prm.Name, prm.Type, prm.Dir
}

// ByName lists every parameter the operation annotates, its own and
// dangling ones, sorted by name: the order Walk visits them in.
func (o *OpPres) ByName() []NamedParam {
	all := make([]NamedParam, len(o.Params), len(o.Params)+len(o.Dangling))
	for j := range o.Params {
		name, _, _ := o.param(j)
		all[j] = NamedParam{name, &o.Params[j]}
	}
	all = append(all, o.Dangling...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// A Presentation is one endpoint's programmer's contract for an
// interface. It references the network contract but cannot change it.
type Presentation struct {
	Interface *ir.Interface
	Style     Style
	// Ops[i] is the presentation of Interface.Ops[i].
	Ops []OpPres
	// Dangling holds annotations of operations the interface does not
	// have, in the order they were first annotated (Annotate).
	Dangling []*OpPres
	// Trust is the connection-level trust this endpoint extends to
	// its peer.
	Trust Trust
	// At holds the positions of explicitly applied interface
	// attributes, by IfaceAttr.
	At [numIfaceAttrs]idl.Pos
}

// MarkAt records that the interface attribute was explicitly applied
// at pos.
func (p *Presentation) MarkAt(attr IfaceAttr, pos idl.Pos) { p.At[attr] = pos }

// PosOf returns the recorded position of the interface attribute and
// whether it was explicitly applied.
func (p *Presentation) PosOf(attr IfaceAttr) (idl.Pos, bool) {
	return p.At[attr], p.At[attr].Line != 0
}

// Default computes the standard presentation for iface under the
// given style's fixed rules. A PDL file is only needed to deviate
// from this (paper §3).
func Default(iface *ir.Interface, style Style) *Presentation {
	p := &Presentation{Interface: iface, Style: style, Ops: make([]OpPres, len(iface.Ops))}
	n := 0
	for i := range iface.Ops {
		n += paramSlots(&iface.Ops[i])
	}
	// One block of parameter attributes for every operation.
	attrs := make([]ParamAttrs, n)
	for i := range iface.Ops {
		op, po := &iface.Ops[i], &p.Ops[i]
		k := paramSlots(op)
		po.Name, po.op, po.Params, attrs = op.Name, op, attrs[:k:k], attrs[k:]
		for j := range op.Params {
			defaultParamAttrs(&po.Params[j], op.Params[j].Type, op.Params[j].Dir, style)
		}
		if op.HasResult() {
			defaultParamAttrs(&po.Params[k-1], op.Result, ir.Out, style)
		}
	}
	return p
}

// paramSlots is the length of op's OpPres.Params: its parameters, and
// its result when it has one.
func paramSlots(op *ir.Operation) int {
	if op.HasResult() {
		return len(op.Params) + 1
	}
	return len(op.Params)
}

// defaultParamAttrs sets a, which is zero, to the style's attributes
// for a parameter of type t and direction dir.
func defaultParamAttrs(a *ParamAttrs, t *ir.Type, dir ir.Direction, style Style) {
	if !IsBuffer(t) {
		return
	}
	switch dir {
	case In:
		// In parameters: copy semantics under every fixed style —
		// the stub must assume neither trashable nor preserved.
	case Out, InOut:
		switch style {
		case StyleCORBA, StyleSun:
			a.Alloc = AllocCallee
			a.Dealloc = DeallocAlways
		case StyleMIG:
			a.Alloc = AllocCaller
		}
	}
}

// Aliases for ir directions, letting this file read like the paper.
const (
	In    = ir.In
	Out   = ir.Out
	InOut = ir.InOut
)

// IsBuffer reports whether t is a buffer-like wire type — one whose
// local representation occupies storage that allocation, deallocation
// and mutability annotations can meaningfully govern.
func IsBuffer(t *ir.Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case ir.Bytes, ir.FixedBytes, ir.String, ir.Seq, ir.Array, ir.Struct:
		return true
	}
	return false
}

// Op returns the presentation of the named operation, or nil when the
// interface has none.
func (p *Presentation) Op(name string) *OpPres {
	for i := range p.Ops {
		if p.Ops[i].Name == name {
			return &p.Ops[i]
		}
	}
	return nil
}

// Annotate returns the record an annotation of the named operation
// lands in: the operation's presentation, or a Dangling entry when the
// interface has no such operation, added on first use.
func (p *Presentation) Annotate(name string) *OpPres {
	if op := p.Op(name); op != nil {
		return op
	}
	for _, op := range p.Dangling {
		if op.Name == name {
			return op
		}
	}
	op := &OpPres{Name: name}
	p.Dangling = append(p.Dangling, op)
	return op
}

// ByName lists every operation the presentation annotates, the
// interface's and dangling ones, sorted by name: the order Walk visits
// them in.
func (p *Presentation) ByName() []*OpPres {
	all := make([]*OpPres, len(p.Ops), len(p.Ops)+len(p.Dangling))
	for i := range p.Ops {
		all[i] = &p.Ops[i]
	}
	all = append(all, p.Dangling...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// PortNaming reports whether the endpoint has given up the unique-name
// invariant for transferred rights (paper §4.6). Transports relax the
// invariant per endpoint, not per parameter — one flag in the Mach
// endpoint signature, one name-table elision in a shmring binding — so
// an endpoint has given it up only when every port parameter or result
// it moves is [nonunique], vacuously so when it moves none. One
// unannotated port keeps unique naming for the whole endpoint.
func (p *Presentation) PortNaming() (nonUnique bool) {
	for i := range p.Ops {
		op := &p.Ops[i]
		for j := range op.Params {
			if _, t, _ := op.param(j); t != nil && t.Kind == ir.Port && !op.Params[j].NonUnique {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy sharing the (immutable) interface: a copy
// of the operations and of one block holding every parameter's
// attributes, with their own positions.
func (p *Presentation) Clone() *Presentation {
	q := *p
	q.Ops = append([]OpPres(nil), p.Ops...)
	n := 0
	for i := range p.Ops {
		n += len(p.Ops[i].Params)
	}
	attrs := make([]ParamAttrs, n)
	for i := range q.Ops {
		op := &q.Ops[i]
		for j := range op.Params {
			attrs[j] = op.Params[j].clone()
		}
		k := len(op.Params)
		op.Params, attrs = attrs[:k:k], attrs[k:]
		op.Dangling = cloneDangling(op.Dangling)
	}
	q.Dangling = nil
	for _, op := range p.Dangling {
		cp := *op
		cp.Params, cp.Dangling = nil, cloneDangling(op.Dangling)
		q.Dangling = append(q.Dangling, &cp)
	}
	return &q
}

func cloneDangling(params []NamedParam) []NamedParam {
	if params == nil {
		return nil
	}
	cp := make([]NamedParam, len(params))
	for i, d := range params {
		a := d.Attrs.clone()
		cp[i] = NamedParam{d.Name, &a}
	}
	return cp
}

// A Rule names one consistency rule between a presentation and the
// interface it is attached to; flexvet reports each under an FV id.
type Rule int

// Consistency rules, in the order one parameter is checked.
const (
	// RuleDangling: an annotated operation, parameter or result the
	// interface does not have.
	RuleDangling Rule = iota
	// RuleInOnly: trashable or preserved on a parameter that is not in.
	RuleInOnly
	// RuleMutability: trashable and preserved together.
	RuleMutability
	// RuleBufferOnly: allocation attributes on a non-buffer type.
	RuleBufferOnly
	// RulePortOnly: nonunique on a non-port type.
	RulePortOnly
	// RuleLengthIs: length_is names no integer parameter of the operation.
	RuleLengthIs
)

// A Violation is one broken rule: where, and what is wrong, worded as
// "Iface.op.param: ...".
type Violation struct {
	Rule Rule
	Pos  idl.Pos
	Msg  string
}

// A Site is one annotated parameter (or result, under ResultParam)
// that the interface has, with its wire type and direction.
type Site struct {
	Iface string
	Op    *OpPres
	Param string
	Attrs *ParamAttrs
	Type  *ir.Type
	Dir   ir.Direction
}

// Ctx names the site as "Iface.op.param", for messages.
func (s Site) Ctx() string { return s.Iface + "." + s.Op.Name + "." + s.Param }

// In reports whether the parameter carries data to the callee.
func (s Site) In() bool { return s.Dir == ir.In || s.Dir == ir.InOut }

// Out reports whether the parameter carries data back to the caller.
func (s Site) Out() bool { return s.Dir == ir.Out || s.Dir == ir.InOut }

// Walk checks the presentation against its interface: every annotated
// operation and parameter must exist, length_is must name an integer
// parameter of the same operation, and attributes must apply to the
// parameter's type and direction. It visits operations by name and
// each one's parameters by name (ByName), so the violations it returns
// are in the same order on every run; site, when not nil, is also
// called for every annotated parameter the interface has. This is the
// one rule walk: Validate returns its first violation, flexvet reports
// them all and hangs its own per-parameter lints on site.
func (p *Presentation) Walk(site func(Site)) []Violation {
	var out []Violation
	for _, op := range p.ByName() {
		if op.op == nil {
			out = append(out, Violation{RuleDangling, op.Pos, fmt.Sprintf("%s: operation %q not in interface %s: annotation can never apply",
				p.Interface.Name, op.Name, p.Interface.Name)})
			continue
		}
		for _, prm := range op.ByName() {
			t, dir, ok := lookupParam(op.op, prm.Name)
			out = p.checkParam(op, prm.Name, prm.Attrs, t, dir, ok, site, out)
		}
	}
	return out
}

// checkParam appends the violations of op's parameter pn, annotated a,
// to out; t and dir are its wire type and direction, and ok is false
// when the operation has no such parameter. It formats a message only
// for a violation.
func (p *Presentation) checkParam(op *OpPres, pn string, a *ParamAttrs, t *ir.Type, dir ir.Direction, ok bool,
	site func(Site), out []Violation) []Violation {
	bad := func(r Rule, pos idl.Pos, format string, args ...any) {
		out = append(out, Violation{r, pos, fmt.Sprintf(format, args...)})
	}
	if !ok {
		bad(RuleDangling, a.Pos, "%s.%s: parameter %q not in operation: annotation can never apply",
			p.Interface.Name, op.Name, pn)
		return out
	}
	s := Site{Iface: p.Interface.Name, Op: op, Param: pn, Attrs: a, Type: t, Dir: dir}
	if a.Trashable && !s.In() {
		bad(RuleInOnly, a.AttrPos(AttrTrashable), "%s: [trashable] applies only to in parameters, %s is %s", s.Ctx(), pn, dir)
	}
	if a.Preserved && !s.In() {
		bad(RuleInOnly, a.AttrPos(AttrPreserved), "%s: [preserved] applies only to in parameters, %s is %s", s.Ctx(), pn, dir)
	}
	if a.Trashable && a.Preserved {
		bad(RuleMutability, a.AttrPos(AttrPreserved, AttrTrashable),
			"%s: [trashable] and [preserved] on the same parameter are mutually exclusive", s.Ctx())
	}
	if (a.Alloc != AllocAuto || a.Dealloc != DeallocDefault) && !IsBuffer(t) {
		bad(RuleBufferOnly, a.AttrPos(AttrAlloc, AttrDealloc),
			"%s: allocation annotations require a buffer type, have %s", s.Ctx(), t.Signature())
	}
	if a.NonUnique && t.Kind != ir.Port {
		bad(RulePortOnly, a.AttrPos(AttrNonUnique), "%s: [nonunique] applies only to port parameters, have %s", s.Ctx(), t.Signature())
	}
	if a.LengthIs != "" {
		if lt, _, ok := lookupParam(op.op, a.LengthIs); !ok || a.LengthIs == ResultParam {
			bad(RuleLengthIs, a.AttrPos(AttrLengthIs), "%s: length_is(%s): no such parameter in the operation", s.Ctx(), a.LengthIs)
		} else if k := lt.Kind; k != ir.Int32 && k != ir.Uint32 && k != ir.Int64 && k != ir.Uint64 {
			bad(RuleLengthIs, a.AttrPos(AttrLengthIs), "%s: length_is(%s): parameter is %s, need an integer", s.Ctx(), a.LengthIs, lt.Signature())
		}
	}
	if site != nil {
		site(s)
	}
	return out
}

// Validate returns the first violation Walk finds, as an error carrying
// its position. A valid presentation can never alter the network
// contract.
func (p *Presentation) Validate() error {
	if p.valid() {
		return nil
	}
	v := p.Walk(nil)[0]
	if v.Pos.Line == 0 {
		return fmt.Errorf("pres: %s", v.Msg)
	}
	return idl.Errorf(v.Pos, "pres: %s", v.Msg)
}

// valid reports whether Walk would find no violation. Valid is the
// common case, so it checks in index order, which sorts nothing and
// formats no message; Validate walks an invalid presentation again, in
// Walk's order, for its first violation.
func (p *Presentation) valid() bool {
	if len(p.Dangling) > 0 {
		return false
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if len(op.Dangling) > 0 {
			return false
		}
		for j := range op.Params {
			name, t, dir := op.param(j)
			if len(p.checkParam(op, name, &op.Params[j], t, dir, true, nil, nil)) > 0 {
				return false
			}
		}
	}
	return true
}

// lookupParam finds the wire type and direction of the named parameter
// of op; ResultParam is the out pseudo-parameter of an operation that
// has a result.
func lookupParam(op *ir.Operation, name string) (*ir.Type, ir.Direction, bool) {
	if name == ResultParam {
		return op.Result, ir.Out, op.HasResult()
	}
	if param := op.Param(name); param != nil {
		return param.Type, param.Dir, true
	}
	return nil, 0, false
}
