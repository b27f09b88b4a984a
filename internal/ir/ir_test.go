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
