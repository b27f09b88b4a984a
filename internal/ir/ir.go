// Package ir defines the intermediate representation shared by every
// IDL front-end and stub back-end: the network contract between a
// client and a server.
//
// The IR deliberately contains nothing about presentation — how
// parameters appear to local code, who allocates buffers, what may be
// trashed. Those live in package pres and may differ on each side of
// a connection; the IR is what both sides must agree on.
package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies the wire shape of a type.
type Kind int

// The wire-type kinds understood by the marshal engines.
const (
	Void Kind = iota
	Bool
	Int32
	Uint32
	Int64
	Uint64
	Float32
	Float64
	String     // variable-length character data
	Bytes      // variable-length opaque (CORBA sequence<octet>, XDR opaque<>)
	FixedBytes // fixed-length opaque[Size]
	Seq        // variable-length sequence of Elem
	Array      // fixed-length array of Elem, Size elements
	Struct     // ordered fields
	Enum       // named 32-bit enumeration
	Port       // object reference / port right (capability)
	Named      // unresolved reference to a typedef
)

var kindNames = map[Kind]string{
	Void: "void", Bool: "bool", Int32: "i32", Uint32: "u32",
	Int64: "i64", Uint64: "u64", Float32: "f32", Float64: "f64",
	String: "string", Bytes: "bytes", FixedBytes: "fbytes",
	Seq: "seq", Array: "array", Struct: "struct", Enum: "enum",
	Port: "port", Named: "named",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// A Type describes one wire type.
type Type struct {
	Kind        Kind
	Name        string  // Struct, Enum and Named types carry a name
	Elem        *Type   // element type for Seq and Array
	Size        int     // byte count for FixedBytes; element count for Array
	Fields      []Field // for Struct, in declaration (wire) order
	Enumerators []string
	// Off is a Named reference's byte offset in its source file, for
	// a Resolve error to be positioned there.
	Off int
}

// A Field is one member of a struct type.
type Field struct {
	Name string
	Type *Type
}

// Predefined singleton types for the primitives, safe to share
// because Types are immutable once built.
var (
	VoidType    = &Type{Kind: Void}
	BoolType    = &Type{Kind: Bool}
	Int32Type   = &Type{Kind: Int32}
	Uint32Type  = &Type{Kind: Uint32}
	Int64Type   = &Type{Kind: Int64}
	Uint64Type  = &Type{Kind: Uint64}
	Float32Type = &Type{Kind: Float32}
	Float64Type = &Type{Kind: Float64}
	StringType  = &Type{Kind: String}
	BytesType   = &Type{Kind: Bytes}
	PortType    = &Type{Kind: Port}
)

// SeqOf returns a sequence-of-elem type. sequence<octet> collapses to
// Bytes so every front-end produces the same wire type for byte
// buffers.
func SeqOf(elem *Type) *Type {
	if elem.Kind == octetKind {
		return BytesType
	}
	return &Type{Kind: Seq, Elem: elem}
}

// octetKind is the kind used to recognize byte elements; CORBA octet
// and XDR opaque bytes both map to it.
const octetKind = Uint8Kind

// Uint8Kind marks a single octet; it appears only as a sequence or
// array element and collapses into Bytes/FixedBytes at construction
// or, through a typedef, in Resolve. A bare octet has no wire type:
// Resolve refuses one.
const Uint8Kind Kind = 100

// OctetType is the element type used by front-ends for byte elements
// before collapsing.
var OctetType = &Type{Kind: Uint8Kind}

// ArrayOf returns a fixed-length array type; arrays of octets
// collapse to FixedBytes.
func ArrayOf(elem *Type, n int) *Type {
	if elem.Kind == octetKind {
		return &Type{Kind: FixedBytes, Size: n}
	}
	return &Type{Kind: Array, Elem: elem, Size: n}
}

// Signature returns a canonical, front-end-independent rendering of
// the wire type, used for contract comparison and bind-time
// signature exchange.
func (t *Type) Signature() string {
	if t == nil {
		return "void"
	}
	switch t.Kind {
	case Seq:
		return "seq<" + t.Elem.Signature() + ">"
	case Array:
		return fmt.Sprintf("array<%s,%d>", t.Elem.Signature(), t.Size)
	case FixedBytes:
		return fmt.Sprintf("fbytes<%d>", t.Size)
	case Struct:
		var b strings.Builder
		b.WriteString("struct{")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Type.Signature())
		}
		b.WriteByte('}')
		return b.String()
	case Enum:
		return "enum"
	case Named:
		return "named:" + t.Name
	default:
		return t.Kind.String()
	}
}

// Direction says which way a parameter travels.
type Direction int

// Parameter directions.
const (
	In Direction = iota
	Out
	InOut
)

func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// A Param is one operation parameter.
type Param struct {
	Name string
	Type *Type
	Dir  Direction
}

// An Operation is one callable method of an interface.
type Operation struct {
	Name   string
	Params []Param
	Result *Type // nil or VoidType for void
	Oneway bool
	// Proc is the Sun RPC procedure number when the interface came
	// from a .x file; zero otherwise.
	Proc uint32
}

// HasResult reports whether the operation returns a value.
func (o *Operation) HasResult() bool {
	return o.Result != nil && o.Result.Kind != Void
}

// Signature returns the canonical network-contract rendering of the
// operation.
func (o *Operation) Signature() string {
	var b strings.Builder
	b.WriteString(o.Name)
	b.WriteByte('(')
	for i, p := range o.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.Dir.String())
		b.WriteByte(':')
		b.WriteString(p.Type.Signature())
	}
	b.WriteString(")->")
	b.WriteString(o.Result.Signature())
	if o.Oneway {
		b.WriteString(" oneway")
	}
	return b.String()
}

// Param returns the named parameter, or nil.
func (o *Operation) Param(name string) *Param {
	for k := range o.Params {
		if o.Params[k].Name == name {
			return &o.Params[k]
		}
	}
	return nil
}

// ParamNameTaken reports whether name cannot be o's next parameter: an
// earlier parameter has it, or it is "return", the name a presentation
// gives the result.
func (o *Operation) ParamNameTaken(name string) bool {
	return name == "return" || o.Param(name) != nil
}

// An Interface is a named set of operations — the unit a client
// binds to.
type Interface struct {
	Name string
	Ops  []Operation
	// Program and Version identify a Sun RPC program when the
	// interface came from a .x file.
	Program uint32
	Version uint32
}

// Op returns the named operation, or nil.
func (i *Interface) Op(name string) *Operation {
	for k := range i.Ops {
		if i.Ops[k].Name == name {
			return &i.Ops[k]
		}
	}
	return nil
}

// Signature returns the canonical network contract for the whole
// interface. Two endpoints may interoperate iff their interface
// signatures are identical. Operation order is normalized so that
// declaration order is not part of the contract.
func (i *Interface) Signature() string {
	sigs := make([]string, len(i.Ops))
	for k := range i.Ops {
		sigs[k] = i.Ops[k].Signature()
	}
	sort.Strings(sigs)
	var b strings.Builder
	b.WriteString(i.Name)
	if i.Program != 0 {
		fmt.Fprintf(&b, "[prog=%d,vers=%d]", i.Program, i.Version)
	}
	b.WriteByte('{')
	b.WriteString(strings.Join(sigs, ";"))
	b.WriteByte('}')
	return b.String()
}

// SameContract reports whether i and j are the same network contract,
// i.Signature() == j.Signature(), without building either signature.
// (The two agree for names that are identifiers, as every front end's
// are.) Signature sorts the operations, so the contract is the multiset
// of operations; both sides usually declare them in one order, which is
// checked first.
func (i *Interface) SameContract(j *Interface) bool {
	if i.Name != j.Name || i.Program != j.Program || (i.Program != 0 && i.Version != j.Version) ||
		len(i.Ops) != len(j.Ops) {
		return false
	}
	for k := range i.Ops {
		if !i.Ops[k].sameAs(&j.Ops[k]) {
			return sameOps(i.Ops, j.Ops)
		}
	}
	return true
}

// sameOps reports whether a and b, of one length, hold the same
// operations in any order: each operation of a occurs in b as often as
// in a.
func sameOps(a, b []Operation) bool {
	count := func(ops []Operation, op *Operation) (n int) {
		for k := range ops {
			if ops[k].sameAs(op) {
				n++
			}
		}
		return n
	}
	for k := range a {
		if count(a, &a[k]) != count(b, &a[k]) {
			return false
		}
	}
	return true
}

// sameAs reports whether o.Signature() == p.Signature().
func (o *Operation) sameAs(p *Operation) bool {
	if o.Name != p.Name || o.Oneway != p.Oneway || len(o.Params) != len(p.Params) || !sameType(o.Result, p.Result) {
		return false
	}
	for k := range o.Params {
		if o.Params[k].Dir != p.Params[k].Dir || !sameType(o.Params[k].Type, p.Params[k].Type) {
			return false
		}
	}
	return true
}

// sameType reports whether a.Signature() == b.Signature().
func sameType(a, b *Type) bool {
	kind := func(t *Type) Kind {
		if t == nil {
			return Void
		}
		return t.Kind
	}
	k := kind(a)
	if k != kind(b) {
		return false
	}
	switch k {
	case Seq:
		return sameType(a.Elem, b.Elem)
	case Array:
		return a.Size == b.Size && sameType(a.Elem, b.Elem)
	case FixedBytes:
		return a.Size == b.Size
	case Struct:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for f := range a.Fields {
			if !sameType(a.Fields[f].Type, b.Fields[f].Type) {
				return false
			}
		}
	case Named:
		return a.Name == b.Name
	}
	return true
}

// A File is the result of parsing one IDL source file.
type File struct {
	Name       string
	Interfaces []*Interface
	Typedefs   map[string]*Type
	Consts     map[string]int64
}

// NewFile returns an empty File.
func NewFile(name string) *File {
	return &File{
		Name:     name,
		Typedefs: make(map[string]*Type),
		Consts:   make(map[string]int64),
	}
}

// Interface returns the named interface, or nil.
func (f *File) Interface(name string) *Interface {
	for _, i := range f.Interfaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// MaxTypeDepth bounds how deeply a type may nest: sequences, arrays,
// structs and typedef references, counted together. Every pass over a
// type (Signature, the presentation, the marshal plan) recurses on it,
// so the parsers whose type syntax nests (CORBA, MIG) and Resolve
// refuse a deeper one before any of them can run out of stack.
const MaxTypeDepth = 64

// MaxTypeNodes bounds the size of one parameter's or result's type as
// Resolve expands it, typedef references copied in. Within
// MaxTypeDepth a typedef'd struct whose two fields are the previous
// level doubles per level, so depth alone admits 2^33 - 1 nodes.
const MaxTypeNodes = 1 << 16

// A RefError is a typedef reference Resolve could not follow.
type RefError struct {
	Off int // the reference's byte offset in its source file
	Msg string
}

func (e *RefError) Error() string { return e.Msg }

// Resolve replaces every Named type reference in the file with the
// referenced typedef's structure. It reports an error on dangling or
// cyclic references and on a bare octet, a parameter, result or field
// that is one (a *RefError, wrapped), and on a type nesting deeper than
// MaxTypeDepth or expanding to more than MaxTypeNodes.
func (f *File) Resolve() error {
	var seen [8]string // typedef chains are short: no allocation for the names
	for _, iface := range f.Interfaces {
		for oi := range iface.Ops {
			op := &iface.Ops[oi]
			for pi := range op.Params {
				nodes := 0
				t, err := f.resolveValue(op.Params[pi].Type, seen[:0], &nodes)
				if err != nil {
					return fmt.Errorf("%s.%s param %s: %w", iface.Name, op.Name, op.Params[pi].Name, err)
				}
				op.Params[pi].Type = t
			}
			if op.Result != nil {
				nodes := 0
				t, err := f.resolveValue(op.Result, seen[:0], &nodes)
				if err != nil {
					return fmt.Errorf("%s.%s result: %w", iface.Name, op.Name, err)
				}
				op.Result = t
			}
		}
	}
	return nil
}

// resolveValue resolves t, the type of a parameter, result or field,
// which cannot be a bare octet.
func (f *File) resolveValue(t *Type, seen []string, nodes *int) (*Type, error) {
	rt, err := f.resolveType(t, seen, 0, nodes)
	if err == nil && rt.Kind == octetKind {
		return nil, &RefError{t.Off, "ir: " + bareOctet}
	}
	return rt, err
}

const bareOctet = "a bare octet has no wire type; use a sequence or array of it"

// resolveType resolves t, which sits depth levels inside the type being
// resolved; nodes counts the nodes of the resolved type so far.
func (f *File) resolveType(t *Type, seen []string, depth int, nodes *int) (*Type, error) {
	if t == nil {
		return nil, nil
	}
	if depth > MaxTypeDepth {
		return nil, fmt.Errorf("ir: type nests deeper than %d levels", MaxTypeDepth)
	}
	if t.Kind != Named {
		// A reference is replaced by what it names, so it is no node
		// of the resolved type.
		if *nodes++; *nodes > MaxTypeNodes {
			return nil, fmt.Errorf("ir: type expands to more than %d nodes", MaxTypeNodes)
		}
	}
	switch t.Kind {
	case Named:
		for _, s := range seen {
			if s == t.Name {
				return nil, &RefError{t.Off, fmt.Sprintf("ir: cyclic typedef %q", t.Name)}
			}
		}
		def, ok := f.Typedefs[t.Name]
		if !ok {
			return nil, &RefError{t.Off, fmt.Sprintf("ir: unknown type %q", t.Name)}
		}
		return f.resolveType(def, append(seen, t.Name), depth+1, nodes)
	case Seq, Array:
		elem, err := f.resolveType(t.Elem, seen, depth+1, nodes)
		if err != nil {
			return nil, err
		}
		if elem == t.Elem {
			return t, nil
		}
		if t.Kind == Seq {
			return SeqOf(elem), nil
		}
		return ArrayOf(elem, t.Size), nil
	case Struct:
		var fields []Field // a copy, made at the first field that changes
		for i, fl := range t.Fields {
			ft, err := f.resolveType(fl.Type, seen, depth+1, nodes)
			if err == nil && ft.Kind == octetKind {
				err = &RefError{fl.Type.Off, "ir: field " + fl.Name + ": " + bareOctet}
			}
			if err != nil {
				return nil, err
			}
			if ft != fl.Type && fields == nil {
				fields = append([]Field(nil), t.Fields...)
			}
			if fields != nil {
				fields[i].Type = ft
			}
		}
		if fields != nil {
			cp := *t
			cp.Fields = fields
			return &cp, nil
		}
		return t, nil
	default:
		return t, nil
	}
}
