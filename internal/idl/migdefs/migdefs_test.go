package migdefs

import (
	"strings"
	"testing"

	"flexrpc/internal/ir"
)

const pipeDefs = `
subsystem pipeserver 2400;

import <mach/std_types.defs>;

type buf_t = array[*:4096] of char;
type md5_t = array[16] of char;
type counts_t = array[] of int;
type name_t = c_string[64];

routine pipe_write(
	server   : mach_port_t;
	in data  : buf_t);

routine pipe_read(
	server    : mach_port_t;
	in count  : int;
	out data  : buf_t);

skip;

simpleroutine pipe_poke(
	server  : mach_port_t;
	value   : int);

routine pipe_stat(
	server     : mach_port_t;
	out sizes  : counts_t;
	out digest : md5_t;
	out name   : name_t;
	out owner  : mach_port_t);
`

func mustParse(t *testing.T, src string) *ir.File {
	t.Helper()
	f, err := Parse("pipe.defs", src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseSubsystem(t *testing.T) {
	f := mustParse(t, pipeDefs)
	iface := f.Interface("pipeserver")
	if iface == nil {
		t.Fatal("subsystem interface missing")
	}
	if len(iface.Ops) != 4 {
		t.Fatalf("ops = %d", len(iface.Ops))
	}
}

func TestMessageIDs(t *testing.T) {
	iface := mustParse(t, pipeDefs).Interface("pipeserver")
	// base 2400; skip consumes an id.
	want := map[string]uint32{
		"pipe_write": 2400,
		"pipe_read":  2401,
		"pipe_poke":  2403, // 2402 skipped
		"pipe_stat":  2404,
	}
	for name, id := range want {
		op := iface.Op(name)
		if op == nil || op.Proc != id {
			t.Errorf("%s proc = %v, want %d", name, op, id)
		}
	}
}

func TestRequestPortDropped(t *testing.T) {
	iface := mustParse(t, pipeDefs).Interface("pipeserver")
	write := iface.Op("pipe_write")
	if len(write.Params) != 1 || write.Params[0].Name != "data" {
		t.Fatalf("params = %+v (request port must be dropped)", write.Params)
	}
}

func TestTypesAndDirections(t *testing.T) {
	iface := mustParse(t, pipeDefs).Interface("pipeserver")
	read := iface.Op("pipe_read")
	if read.Params[0].Dir != ir.In || read.Params[0].Type.Kind != ir.Int32 {
		t.Fatalf("count = %+v", read.Params[0])
	}
	if read.Params[1].Dir != ir.Out || read.Params[1].Type.Kind != ir.Bytes {
		t.Fatalf("data = %+v (array[*:N] of char must be bytes)", read.Params[1])
	}
	stat := iface.Op("pipe_stat")
	kinds := []ir.Kind{ir.Seq, ir.FixedBytes, ir.String, ir.Port}
	for i, k := range kinds {
		if stat.Params[i].Type.Kind != k {
			t.Errorf("stat param %d = %v, want %v", i, stat.Params[i].Type.Kind, k)
		}
	}
	if stat.Params[1].Type.Size != 16 {
		t.Errorf("md5 size = %d", stat.Params[1].Type.Size)
	}
}

func TestSimpleroutineIsOneway(t *testing.T) {
	iface := mustParse(t, pipeDefs).Interface("pipeserver")
	if !iface.Op("pipe_poke").Oneway {
		t.Fatal("simpleroutine must be oneway")
	}
	if iface.Op("pipe_read").Oneway {
		t.Fatal("routine must not be oneway")
	}
}

func TestRoutinesReturnVoid(t *testing.T) {
	// kern_return_t maps to the error return (comm_status), so IR
	// results are void.
	for _, op := range mustParse(t, pipeDefs).Interface("pipeserver").Ops {
		if op.HasResult() {
			t.Errorf("%s has a result", op.Name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{`routine r(server : mach_port_t);`, "before subsystem"},
		{`subsystem a 1; subsystem b 2;`, "duplicate subsystem"},
		{`subsystem s 1; routine r(x : int);`, "request port"},
		{`subsystem s 1; simpleroutine r(server : mach_port_t; out x : int);`, "out arguments"},
		{`subsystem s 1; type t = polymorphic;`, "polymorphic"},
		{`subsystem s 1; type t = int; type t = int;`, `duplicate type "t"`},
		{`subsystem s 1; routine r(server : mach_port_t); routine r(server : mach_port_t);`, "duplicate routine"},
		{`subsystem s 1; frobnicate;`, "unknown declaration"},
		{`subsystem s 1; routine r(server : mach_port_t; in x : nosuch);`, "unknown type"},
		{`subsystem s 1; type t = array[-1] of int;`, `t.defs:1:31: negative bound -1`},
		{`subsystem s 1; routine r(server : mach_port_t; in x : char);`, `t.defs:1:51: argument "x": a bare octet has no wire type`},
		{`subsystem s 1; type b = byte; routine r(server : mach_port_t; in x : b);`, `t.defs:1:70: s.r param x: ir: a bare octet has no wire type`},
	}
	for _, c := range cases {
		_, err := Parse("t.defs", c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("src %q:\n  err = %v, want %q", c.src, err, c.wantSub)
		}
	}
}

// An array of a typedef'd byte is a fixed opaque, as an array of a
// bare one is.
func TestArrayOfNamedByte(t *testing.T) {
	f := mustParse(t, `subsystem s 1; type b = byte; type quad = array[4] of b;
		routine r(server : mach_port_t; in x : quad; in y : array[4] of char);`)
	if got := f.Interface("s").Op("r").Signature(); got != "r(in:fbytes<4>,in:fbytes<4>)->void" {
		t.Fatalf("signature = %q", got)
	}
}

func TestContractSignatureStable(t *testing.T) {
	a := mustParse(t, pipeDefs).Interface("pipeserver")
	b := mustParse(t, pipeDefs).Interface("pipeserver")
	if a.Signature() != b.Signature() {
		t.Fatal("parsing is not deterministic")
	}
}

// Found by FuzzCompile: three arguments named A gave a default
// presentation that failed its own validation.
func TestArgNamesAreDistinct(t *testing.T) {
	_, err := Parse("t.defs", "subsystem pipe 0;type buf_t=array[*:0]of char;routine A(A:mach_port_t;in A:int;out A:buf_t);")
	if want := `t.defs:1:84: routine "A": argument name "A" is taken`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}
