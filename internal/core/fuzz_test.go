package core

import (
	"errors"
	"strings"
	"testing"

	"flexrpc/internal/idl"
	"flexrpc/internal/runtime"
)

// FuzzCompile runs each front end and the presentation stage on any
// input. A compile yields a result whose presentation is valid, whose
// contract the PDL left alone and which binds a marshal plan under XDR
// and CDR, or an error: an *idl.Error positioned inside the file it
// names, or a whole-file error that names the IDL file. It never
// panics.
func FuzzCompile(f *testing.F) {
	idlSrc, pdls := benchInputs(f)
	f.Add(uint8(FrontendCORBA), idlSrc, pdls["client.pdl"])
	f.Add(uint8(FrontendCORBA), idlSrc, pdls["server.pdl"])
	f.Add(uint8(FrontendCORBA), "const long K = 010;\ntypedef long a[K];\ninterface I { oneway void f(in a x); sequence<sequence<octet>> g(); };",
		"[leaky]\ninterface I {\n    [idempotent] g([alloc(caller)] return);\n};")
	f.Add(uint8(FrontendSunXDR), "const N = 0x10;\nstruct s { int a; opaque b<N>; };\nprogram P { version V { s GET(int) = 1; void PUT(s) = 2; } = 1; } = 0x20000001;",
		"interface P_V { GET([dealloc(never)] return); };")
	f.Add(uint8(FrontendMIG), "subsystem pipe 2400;\ntype buf_t = array[*:4096] of char;\nroutine pipe_read(server : mach_port_t; in count : int; out data : buf_t);",
		"interface pipe { pipe_read([alloc(caller)] data); };")
	// An enumerator that redefined a const gave fbytes<0>; a negative
	// bound panicked the bind (array<i32,-2>) or bound as variable-length
	// opaque (fbytes<-1>); an XDR program name overwrote a const.
	f.Add(uint8(FrontendCORBA), "const long N = 8;\nenum E { N };\ntypedef octet Buf[N];\ninterface I { void f(in Buf b); };", "")
	f.Add(uint8(FrontendCORBA), "const long M = -2;\ntypedef long A[M];\ninterface I { void f(in A a); };", "")
	f.Add(uint8(FrontendCORBA), "const long M = -1;\ntypedef octet B[M];\ninterface I { void f(in B b); };", "")
	f.Add(uint8(FrontendSunXDR), "const P = 7;\nprogram P { version V { void f(int) = 1; } = 1; } = 0x20000002;", "")
	f.Fuzz(func(t *testing.T, fe uint8, idlSrc, pdlSrc string) {
		o := Options{Frontend: Frontend(fe % 3), Filename: "f.idl", Source: idlSrc, PDL: pdlSrc, PDLFilename: "f.pdl"}
		c, err := Compile(o)
		if err != nil {
			checkCompileError(t, err, map[string]string{"f.idl": idlSrc, "f.pdl": pdlSrc})
			return
		}
		if err := c.Pres.Validate(); err != nil {
			t.Fatalf("compiled presentation is invalid: %v", err)
		}
		o.PDL = ""
		bare, err := Compile(o)
		if err != nil {
			t.Fatalf("compiles with its PDL but not without: %v", err)
		}
		if got, want := c.Iface.Signature(), bare.Iface.Signature(); got != want {
			t.Fatalf("the PDL changed the contract:\n  %s\n  %s", got, want)
		}
		for _, codec := range []runtime.Codec{runtime.XDRCodec, runtime.CDRCodec} {
			if _, err := runtime.NewPlan(bare.Pres, codec, nil); err != nil {
				t.Fatalf("the default presentation does not bind under %s: %v", codec.Name(), err)
			}
			_, _ = runtime.NewPlan(c.Pres, codec, nil) // a [special] parameter needs hooks
		}
	})
}

func checkCompileError(t *testing.T, err error, files map[string]string) {
	t.Helper()
	var e *idl.Error
	if !errors.As(err, &e) {
		if !strings.Contains(err.Error(), "f.idl") {
			t.Fatalf("error %q has no position and names no file", err)
		}
		return
	}
	src, ok := files[e.Pos.File]
	if !ok {
		t.Fatalf("error %q is positioned in an unknown file", err)
	}
	lines := strings.Split(src, "\n")
	if e.Pos.Line < 1 || e.Pos.Line > len(lines) || e.Pos.Col < 1 || e.Pos.Col > len(lines[e.Pos.Line-1])+1 {
		t.Fatalf("error %q is positioned outside %s", err, e.Pos.File)
	}
}
