package core

import (
	"errors"
	"strings"
	"testing"

	"flexrpc/internal/idl"
)

// The front-end errors about a whole file, or about a type reference
// found only once the file is parsed, carry a line and column like
// every other: a reference at its use, a file-level error at the end
// of the file.
func TestWholeFileErrorsArePositioned(t *testing.T) {
	for _, c := range []struct {
		name     string
		frontend Frontend
		src      string
		want     string // the whole error
	}{
		{"corba unknown type", FrontendCORBA,
			"interface T {\n  void op(in nosuch x);\n};",
			`t.idl:2:14: T.op param x: ir: unknown type "nosuch"`},
		{"corba unknown type in a typedef", FrontendCORBA,
			"struct S { long a;\n  missing b; };\ninterface T { S op(); };",
			`t.idl:2:3: T.op result: ir: unknown type "missing"`},
		{"corba cyclic typedef", FrontendCORBA,
			"typedef b a;\ntypedef a b;\ninterface T { void op(in a x); };",
			`t.idl:2:9: T.op param x: ir: cyclic typedef "a"`},
		{"sun unknown type", FrontendSunXDR,
			"struct s { nosuch x; };\nprogram P { version V { s A(void) = 0; } = 1; } = 2;",
			`t.idl:1:12: P_V.A result: ir: unknown type "nosuch"`},
		{"mig unknown type", FrontendMIG,
			"subsystem s 1;\nroutine r(server : mach_port_t;\n  in x : nosuch);",
			`t.idl:3:10: s.r param x: ir: unknown type "nosuch"`},
		{"mig no subsystem", FrontendMIG,
			"type t = int;\n",
			`t.idl:2:1: migdefs: the file declares no subsystem`},
		{"no interfaces", FrontendCORBA,
			"const long X = 1;\n  ",
			`t.idl:2:3: core: the file declares no interfaces`},
		{"select one", FrontendCORBA,
			"interface A { void a(); };\ninterface B { void b(); };",
			`t.idl:2:27: core: the file declares 2 interfaces [A B]; select one`},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(Options{Frontend: c.frontend, Filename: "t.idl", Source: c.src})
			var pe *idl.Error
			if !errors.As(err, &pe) || err.Error() != c.want {
				t.Fatalf("err = %v, want the positioned error\n%s", err, c.want)
			}
			if prefix := pe.Pos.String() + ": "; !strings.HasPrefix(c.want, prefix) {
				t.Fatalf("position %v is not the message's prefix", pe.Pos)
			}
		})
	}
}
