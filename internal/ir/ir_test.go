package ir

import (
	"strings"
	"testing"
)

func TestSeqOfOctetCollapses(t *testing.T) {
	if got := SeqOf(OctetType); got != BytesType {
		t.Fatalf("SeqOf(octet) = %v, want BytesType", got)
	}
	if got := ArrayOf(OctetType, 16); got.Kind != FixedBytes || got.Size != 16 {
		t.Fatalf("ArrayOf(octet,16) = %+v", got)
	}
	seq := SeqOf(Int32Type)
	if seq.Kind != Seq || seq.Elem != Int32Type {
		t.Fatalf("SeqOf(i32) = %+v", seq)
	}
}

func TestTypeSignatures(t *testing.T) {
	cases := []struct {
		t    *Type
		want string
	}{
		{Int32Type, "i32"},
		{BytesType, "bytes"},
		{StringType, "string"},
		{nil, "void"},
		{SeqOf(Uint64Type), "seq<u64>"},
		{ArrayOf(Float64Type, 3), "array<f64,3>"},
		{ArrayOf(OctetType, 8), "fbytes<8>"},
		{&Type{Kind: Struct, Name: "P", Fields: []Field{
			{"x", Int32Type}, {"y", Int32Type}}}, "struct{i32,i32}"},
	}
	for _, c := range cases {
		if got := c.t.Signature(); got != c.want {
			t.Errorf("Signature = %q, want %q", got, c.want)
		}
	}
}

func TestStructWireEqualityIgnoresNames(t *testing.T) {
	a := &Type{Kind: Struct, Name: "A", Fields: []Field{{"x", Int32Type}}}
	b := &Type{Kind: Struct, Name: "B", Fields: []Field{{"y", Int32Type}}}
	c := &Type{Kind: Struct, Name: "A", Fields: []Field{{"x", Int64Type}}}
	if a.Signature() != b.Signature() {
		t.Error("same-shape structs should be wire-equal")
	}
	if a.Signature() == c.Signature() {
		t.Error("different-shape structs should not be wire-equal")
	}
}

func TestOperationSignature(t *testing.T) {
	op := Operation{
		Name: "read",
		Params: []Param{
			{Name: "count", Type: Uint32Type, Dir: In},
		},
		Result: BytesType,
	}
	want := "read(in:u32)->bytes"
	if got := op.Signature(); got != want {
		t.Fatalf("Signature = %q, want %q", got, want)
	}
	if !op.HasResult() {
		t.Error("HasResult should be true")
	}
	vop := Operation{Name: "ping", Result: VoidType}
	if vop.HasResult() {
		t.Error("void op should have no result")
	}
}

func TestInterfaceSignatureOrderIndependent(t *testing.T) {
	mk := func(names ...string) *Interface {
		i := &Interface{Name: "X"}
		for _, n := range names {
			i.Ops = append(i.Ops, Operation{Name: n, Result: VoidType})
		}
		return i
	}
	a := mk("alpha", "beta")
	b := mk("beta", "alpha")
	if a.Signature() != b.Signature() {
		t.Fatalf("order should not matter:\n%s\n%s", a.Signature(), b.Signature())
	}
}

func TestInterfaceSignatureIncludesProgram(t *testing.T) {
	i := &Interface{Name: "NFS", Program: 100003, Version: 2}
	if !strings.Contains(i.Signature(), "prog=100003") {
		t.Fatalf("signature missing program id: %s", i.Signature())
	}
}

func TestOpLookup(t *testing.T) {
	i := &Interface{Name: "X", Ops: []Operation{{Name: "a"}, {Name: "b"}}}
	if i.Op("b") == nil || i.Op("b").Name != "b" {
		t.Error("Op lookup failed")
	}
	if i.Op("zzz") != nil {
		t.Error("missing op should be nil")
	}
}

func TestResolveTypedefs(t *testing.T) {
	f := NewFile("t.idl")
	f.Typedefs["buf_t"] = BytesType
	f.Typedefs["pair"] = &Type{Kind: Struct, Name: "pair", Fields: []Field{
		{"a", &Type{Kind: Named, Name: "buf_t"}},
		{"b", Int32Type},
	}}
	iface := &Interface{Name: "S", Ops: []Operation{{
		Name: "put",
		Params: []Param{
			{Name: "p", Type: &Type{Kind: Named, Name: "pair"}, Dir: In},
		},
		Result: &Type{Kind: Named, Name: "buf_t"},
	}}}
	f.Interfaces = append(f.Interfaces, iface)
	if err := f.Resolve(); err != nil {
		t.Fatal(err)
	}
	got := iface.Ops[0].Params[0].Type
	if got.Kind != Struct || got.Fields[0].Type.Kind != Bytes {
		t.Fatalf("resolved param = %+v", got)
	}
	if iface.Ops[0].Result.Kind != Bytes {
		t.Fatalf("resolved result = %+v", iface.Ops[0].Result)
	}
}

func TestResolveUnknownType(t *testing.T) {
	f := NewFile("t.idl")
	f.Interfaces = append(f.Interfaces, &Interface{Name: "S", Ops: []Operation{{
		Name:   "op",
		Params: []Param{{Name: "x", Type: &Type{Kind: Named, Name: "nope"}, Dir: In}},
		Result: VoidType,
	}}})
	if err := f.Resolve(); err == nil {
		t.Fatal("expected unknown-type error")
	}
}

func TestResolveCycle(t *testing.T) {
	f := NewFile("t.idl")
	f.Typedefs["a"] = &Type{Kind: Named, Name: "b"}
	f.Typedefs["b"] = &Type{Kind: Named, Name: "a"}
	f.Interfaces = append(f.Interfaces, &Interface{Name: "S", Ops: []Operation{{
		Name:   "op",
		Params: []Param{{Name: "x", Type: &Type{Kind: Named, Name: "a"}, Dir: In}},
		Result: VoidType,
	}}})
	if err := f.Resolve(); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("err = %v, want cyclic typedef error", err)
	}
}

func TestResolveSeqOfNamedOctet(t *testing.T) {
	f := NewFile("t.idl")
	f.Typedefs["byte"] = OctetType
	f.Interfaces = append(f.Interfaces, &Interface{Name: "S", Ops: []Operation{{
		Name: "op",
		Params: []Param{{
			Name: "x",
			Type: &Type{Kind: Seq, Elem: &Type{Kind: Named, Name: "byte"}},
			Dir:  In,
		}},
		Result: VoidType,
	}}})
	if err := f.Resolve(); err != nil {
		t.Fatal(err)
	}
	if got := f.Interfaces[0].Ops[0].Params[0].Type; got.Kind != Bytes {
		t.Fatalf("seq<named-octet> should collapse to bytes, got %v", got.Kind)
	}
}

// SameContract is Signature equality without the strings: every pair
// drawn from interfaces that differ (or only seem to) in each part of
// the signature gets the same answer from both.
func TestSameContractAgreesWithSignature(t *testing.T) {
	st := func(name string, fields ...*Type) *Type {
		s := &Type{Kind: Struct, Name: name}
		for i, f := range fields {
			s.Fields = append(s.Fields, Field{Name: string(rune('a' + i)), Type: f})
		}
		return s
	}
	op := func(name string, result *Type, params ...Param) Operation {
		return Operation{Name: name, Result: result, Params: params}
	}
	in := func(t *Type) Param { return Param{Name: "p", Type: t, Dir: In} }
	base := []Operation{
		op("get", st("attr", Uint32Type, StringType), in(Uint32Type)),
		op("put", nil, in(BytesType), Param{Name: "n", Type: Int64Type, Dir: InOut}),
		op("list", SeqOf(ArrayOf(Int32Type, 3))),
	}
	variants := map[string]func(i *Interface){
		"same":             func(i *Interface) {},
		"name":             func(i *Interface) { i.Name = "J" },
		"program":          func(i *Interface) { i.Program, i.Version = 7, 1 },
		"version":          func(i *Interface) { i.Program, i.Version = 7, 2 },
		"version only":     func(i *Interface) { i.Version = 9 }, // ignored without a program
		"reordered":        func(i *Interface) { i.Ops[0], i.Ops[2] = i.Ops[2], i.Ops[0] },
		"op name":          func(i *Interface) { i.Ops[1].Name = "post" },
		"oneway":           func(i *Interface) { i.Ops[1].Oneway = true },
		"direction":        func(i *Interface) { i.Ops[1].Params[1].Dir = Out },
		"param name":       func(i *Interface) { i.Ops[1].Params[1].Name = "m" }, // not part of the contract
		"extra param":      func(i *Interface) { i.Ops[2].Params = append(i.Ops[2].Params, in(BoolType)) },
		"void result":      func(i *Interface) { i.Ops[1].Result = VoidType },
		"result":           func(i *Interface) { i.Ops[1].Result = Int32Type },
		"array size":       func(i *Interface) { i.Ops[2].Result = SeqOf(ArrayOf(Int32Type, 4)) },
		"array elem":       func(i *Interface) { i.Ops[2].Result = SeqOf(ArrayOf(Uint32Type, 3)) },
		"seq elem":         func(i *Interface) { i.Ops[2].Result = SeqOf(SeqOf(Int32Type)) },
		"fbytes":           func(i *Interface) { i.Ops[1].Params[0].Type = ArrayOf(OctetType, 8) },
		"fbytes size":      func(i *Interface) { i.Ops[1].Params[0].Type = ArrayOf(OctetType, 9) },
		"struct names":     func(i *Interface) { i.Ops[0].Result = st("other", Uint32Type, StringType) },
		"struct field":     func(i *Interface) { i.Ops[0].Result = st("attr", Uint32Type, BytesType) },
		"struct arity":     func(i *Interface) { i.Ops[0].Result = st("attr", Uint32Type) },
		"enum":             func(i *Interface) { i.Ops[0].Params[0].Type = &Type{Kind: Enum, Name: "e", Enumerators: []string{"x"}} },
		"other enum":       func(i *Interface) { i.Ops[0].Params[0].Type = &Type{Kind: Enum, Name: "f"} },
		"named":            func(i *Interface) { i.Ops[0].Params[0].Type = &Type{Kind: Named, Name: "h"} },
		"other named":      func(i *Interface) { i.Ops[0].Params[0].Type = &Type{Kind: Named, Name: "k"} },
		"duplicate first":  func(i *Interface) { i.Ops[2] = i.Ops[0] },
		"duplicate second": func(i *Interface) { i.Ops[2] = i.Ops[1] },
		"dup swapped":      func(i *Interface) { i.Ops[2], i.Ops[0] = i.Ops[0], i.Ops[1] },
	}
	var ifaces []*Interface
	var names []string
	for name, mutate := range variants {
		i := &Interface{Name: "I", Ops: make([]Operation, len(base))}
		for k, o := range base {
			o.Params = append([]Param(nil), o.Params...)
			i.Ops[k] = o
		}
		mutate(i)
		ifaces, names = append(ifaces, i), append(names, name)
	}
	for a := range ifaces {
		for b := range ifaces {
			want := ifaces[a].Signature() == ifaces[b].Signature()
			if got := ifaces[a].SameContract(ifaces[b]); got != want {
				t.Errorf("%s vs %s: SameContract = %v, signatures equal = %v", names[a], names[b], got, want)
			}
		}
	}
}
