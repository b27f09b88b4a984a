package idl_test

import (
	"errors"
	"strings"
	"testing"

	"flexrpc/internal/idl"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/idl/migdefs"
	"flexrpc/internal/idl/sunxdr"
	"flexrpc/internal/ir"
)

// TestEmptyStructRefused: a struct without members has no wire bytes,
// so no length word's claim could be checked against the message. Each
// front end refuses one with an error positioned at the struct.
func TestEmptyStructRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parse func(filename, src string) (*ir.File, error)
		src   string
		line  int
	}{
		{"corba", corba.Parse, "typedef long x;\nstruct e {};\ninterface I { void f(in sequence<e> s); };", 2},
		{"sunxdr", sunxdr.Parse, "struct e {\n};\ntypedef e es<>;\nprogram P { version V { void f(es) = 1; } = 1; } = 1;", 1},
		{"mig", migdefs.Parse, "subsystem s 100;\ntype e = struct[0] of int;\nroutine f(server : mach_port_t; in v : e);", 2},
	} {
		_, err := tc.parse("e.idl", tc.src)
		var perr *idl.Error
		if !errors.As(err, &perr) {
			t.Errorf("%s: empty struct parses (err %v), want a positioned error", tc.name, err)
			continue
		}
		if perr.Pos.Line != tc.line || !strings.Contains(perr.Msg, "no members") {
			t.Errorf("%s: error %q at line %d, want \"no members\" at line %d", tc.name, perr.Msg, perr.Pos.Line, tc.line)
		}
	}
}
