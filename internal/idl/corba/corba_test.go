package corba

import (
	"strings"
	"testing"

	"flexrpc/internal/ir"
)

func mustParse(t *testing.T, src string) *ir.File {
	t.Helper()
	f, err := Parse("test.idl", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

// The paper's introduction example.
func TestParseSysLog(t *testing.T) {
	f := mustParse(t, `
		interface SysLog {
		    void write_msg(in string msg);
		};`)
	iface := f.Interface("SysLog")
	if iface == nil {
		t.Fatal("SysLog not found")
	}
	op := iface.Op("write_msg")
	if op == nil || len(op.Params) != 1 {
		t.Fatalf("op = %+v", op)
	}
	if op.Params[0].Type.Kind != ir.String || op.Params[0].Dir != ir.In {
		t.Fatalf("param = %+v", op.Params[0])
	}
	if op.HasResult() {
		t.Error("write_msg should be void")
	}
}

// The paper's Figure 3 pipe-server interface.
func TestParseFileIO(t *testing.T) {
	f := mustParse(t, `
		interface FileIO {
		    sequence<octet> read(in unsigned long count);
		    void write(in sequence<octet> data);
		};`)
	iface := f.Interface("FileIO")
	read := iface.Op("read")
	if read.Result.Kind != ir.Bytes {
		t.Fatalf("read result = %v, want bytes (sequence<octet> collapses)", read.Result.Kind)
	}
	if read.Params[0].Type.Kind != ir.Uint32 {
		t.Fatalf("count type = %v", read.Params[0].Type.Kind)
	}
	if got := read.Signature(); got != "read(in:u32)->bytes" {
		t.Fatalf("signature = %q", got)
	}
}

func TestParsePrimitiveTypes(t *testing.T) {
	f := mustParse(t, `
		interface T {
			void a(in boolean b, in short s,
			       in long l, in long long ll, in unsigned long ul,
			       in unsigned long long ull, in unsigned short us,
			       in float f, in double d, in Object obj);
		};`)
	op := f.Interface("T").Op("a")
	wantKinds := []ir.Kind{
		ir.Bool, ir.Int32,
		ir.Int32, ir.Int64, ir.Uint32, ir.Uint64, ir.Uint32,
		ir.Float32, ir.Float64, ir.Port,
	}
	for i, k := range wantKinds {
		if op.Params[i].Type.Kind != k {
			t.Errorf("param %d kind = %v, want %v", i, op.Params[i].Type.Kind, k)
		}
	}
}

// An array of a typedef'd octet is a fixed opaque, as an array of a
// bare one is, in a typedef and in a struct member.
func TestArrayOfNamedOctet(t *testing.T) {
	f := mustParse(t, `typedef octet B; typedef B X[4]; struct s { B b[2]; };
		interface T { void op(in X x, in s y); };`)
	if got := f.Interface("T").Op("op").Signature(); got != "op(in:fbytes<4>,in:struct{fbytes<2>})->void" {
		t.Fatalf("signature = %q", got)
	}
}

func TestParseDirections(t *testing.T) {
	f := mustParse(t, `
		interface T { void op(in long a, out long b, inout long c); };`)
	op := f.Interface("T").Op("op")
	dirs := []ir.Direction{ir.In, ir.Out, ir.InOut}
	for i, d := range dirs {
		if op.Params[i].Dir != d {
			t.Errorf("param %d dir = %v, want %v", i, op.Params[i].Dir, d)
		}
	}
}

func TestParseTypedefStructEnum(t *testing.T) {
	f := mustParse(t, `
		typedef sequence<octet> buffer;
		typedef octet md5[16];
		enum color { red, green, blue };
		struct point { long x; long y; color tint; };
		interface Geo {
			point translate(in point p, in buffer extra, in md5 sum);
		};`)
	op := f.Interface("Geo").Op("translate")
	if op.Params[0].Type.Kind != ir.Struct || len(op.Params[0].Type.Fields) != 3 {
		t.Fatalf("p type = %+v", op.Params[0].Type)
	}
	if op.Params[0].Type.Fields[2].Type.Kind != ir.Enum {
		t.Fatalf("tint field = %+v", op.Params[0].Type.Fields[2])
	}
	if op.Params[1].Type.Kind != ir.Bytes {
		t.Fatalf("buffer = %v", op.Params[1].Type.Kind)
	}
	if op.Params[2].Type.Kind != ir.FixedBytes || op.Params[2].Type.Size != 16 {
		t.Fatalf("md5 = %+v", op.Params[2].Type)
	}
	if f.Consts["green"] != 1 {
		t.Fatalf("green = %d", f.Consts["green"])
	}
}

func TestParseConstAndBoundedSequence(t *testing.T) {
	f := mustParse(t, `
		const long MAX = 512;
		const long NEG = -3;
		typedef sequence<long, MAX> longs;
		interface T { void op(in longs v); };`)
	if f.Consts["MAX"] != 512 || f.Consts["NEG"] != -3 {
		t.Fatalf("consts = %v", f.Consts)
	}
	if f.Interface("T").Op("op").Params[0].Type.Kind != ir.Seq {
		t.Fatal("bounded sequence should still be a seq")
	}
}

func TestParseModuleFlattens(t *testing.T) {
	f := mustParse(t, `
		module Sys {
			interface Log { void put(in string m); };
		};`)
	if f.Interface("Log") == nil {
		t.Fatal("interface inside module not found")
	}
}

func TestParseOneway(t *testing.T) {
	f := mustParse(t, `interface T { oneway void notify(in long ev); };`)
	if !f.Interface("T").Op("notify").Oneway {
		t.Fatal("oneway flag lost")
	}
	if _, err := Parse("t", `interface T { oneway long bad(); };`); err == nil {
		t.Fatal("oneway with result should be rejected")
	}
	if _, err := Parse("t", `interface T { oneway void bad(out long x); };`); err == nil {
		t.Fatal("oneway with out param should be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{`interface T { void op(in nosuchtype x); };`, "unknown type"},
		{`interface T { void op(sideways long x); };`, "in/out/inout"},
		{`interface T { void op(in long x) };`, `expected ";"`},
		{`frobnicate T;`, "unknown declaration"},
		{`interface T { void a(); }; interface T { void b(); };`, "duplicate interface"},
		{`interface T { void a(); void a(); };`, "duplicate operation"},
		{`typedef long x; typedef long x;`, "duplicate typedef"},
		{`const long C = 1; const long C = 2;`, "duplicate const"},
		{`typedef sequence<long, UNDEFINED> x;`, "unknown constant"},
		{`enum E { A, A };`, `t.idl:1:13: duplicate enumerator "A"`},
		{`const long N = 8; enum E { N };`, `t.idl:1:28: duplicate enumerator "N"`},
		{`const long M = -2; typedef long A[M];`, `t.idl:1:35: negative bound -2`},
		{`typedef sequence<long, -1> s;`, `t.idl:1:24: negative bound -1`},
		{`interface T { void op(in octet x); };`, `t.idl:1:32: parameter "x": a bare octet has no wire type`},
		{`interface T { char op(); };`, `t.idl:1:20: result of "op": a bare octet has no wire type`},
		{`struct s { long a; octet b; };`, `t.idl:1:26: field "b": a bare octet has no wire type`},
		{`typedef octet B; interface T { void op(in B x); };`, `t.idl:1:43: T.op param x: ir: a bare octet has no wire type`},
		{`typedef char B; interface T { B op(); };`, `t.idl:1:31: T.op result: ir: a bare octet has no wire type`},
		{`typedef octet B; struct s { B b; }; interface T { void op(in s x); };`, `t.idl:1:29: T.op param x: ir: field b: a bare octet has no wire type`},
	}
	for _, c := range cases {
		_, err := Parse("t.idl", c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("src %q: err = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("pipe.idl", "interface T {\n  void op(bad long x);\n};")
	if err == nil || !strings.Contains(err.Error(), "pipe.idl:2:") {
		t.Fatalf("err = %v, want position in line 2", err)
	}
}

func TestSignatureStableAcrossDeclOrder(t *testing.T) {
	a := mustParse(t, `interface X { void p(in long v); long q(); };`)
	b := mustParse(t, `interface X { long q(); void p(in long v); };`)
	if a.Interface("X").Signature() != b.Interface("X").Signature() {
		t.Fatal("contract should not depend on declaration order")
	}
}

// A leading 0 is octal in CORBA IDL (section 7.2.6.1), as in C.
func TestOctalConstants(t *testing.T) {
	f := mustParse(t, `
		const long K = 010;
		typedef long a[K];
		typedef octet b[0x10];
		interface I { void f(in a x, in b y); };`)
	if got := f.Interface("I").Op("f").Signature(); got != "f(in:array<i32,8>,in:fbytes<16>)->void" {
		t.Fatalf("signature %s, want array<i32,8> and fbytes<16>", got)
	}
	_, err := Parse("test.idl", "const long K = 08;")
	if err == nil || err.Error() != `test.idl:1:16: bad integer literal "08"` {
		t.Fatalf("err = %v, want a positioned bad integer literal", err)
	}
}

// ">>" closes two nested sequences, as "> >" does.
func TestNestedSequenceCloses(t *testing.T) {
	var sigs []string
	for _, closer := range []string{">>", "> >"} {
		f := mustParse(t, "interface I { sequence<sequence<octet"+closer+" f(in sequence<sequence<long"+closer+" x); };")
		sigs = append(sigs, f.Interface("I").Signature())
	}
	if sigs[0] != sigs[1] || sigs[0] != "I{f(in:seq<seq<i32>>)->seq<bytes>}" {
		t.Fatalf("signatures %q", sigs)
	}
}

// Every parameter needs its own name, and "return" is the result's: a
// presentation keys its attributes by parameter name.
func TestParamNamesAreDistinct(t *testing.T) {
	for src, want := range map[string]string{
		"interface I { void f(in long a,\n  out long a); };": `test.idl:2:12: operation "f": parameter name "a" is taken`,
		"interface I { long f(in long return); };":           `test.idl:1:30: operation "f": parameter name "return" is taken`,
	} {
		if _, err := Parse("test.idl", src); err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %s", src, err, want)
		}
	}
}
