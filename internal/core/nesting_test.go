package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flexrpc/internal/idl"
	"flexrpc/internal/ir"
	"flexrpc/internal/runtime"
)

// Every pass over a type recurses on it, so a type nested as deep as
// the input allows once ran Compile and NewPlan for minutes and, deeper
// still, overflowed the goroutine stack, which no recover catches. The
// front ends and typedef resolution refuse a type deeper than
// ir.MaxTypeDepth with an error that says where.

// deepSeq is a CORBA type of n nested sequences of long.
func deepSeq(n int) string {
	return strings.Repeat("sequence<", n) + "long" + strings.Repeat(">", n)
}

// TestTypeNestingReproducer compiles a million nested sequences, 9 MB of
// IDL: the parser stops at the first sequence past the bound and names
// its line and column.
func TestTypeNestingReproducer(t *testing.T) {
	const prefix = "interface I { void op(in "
	_, err := Compile(Options{Frontend: FrontendCORBA, Filename: "deep.idl",
		Source: prefix + deepSeq(1_000_000) + " v); };"})
	var pe *idl.Error
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a positioned parse error", err)
	}
	// The sequence that would open level MaxTypeDepth+1.
	if col := len(prefix) + 1 + ir.MaxTypeDepth*len("sequence<"); pe.Pos.Line != 1 || pe.Pos.Col != col {
		t.Fatalf("error at %d:%d, want 1:%d: %v", pe.Pos.Line, pe.Pos.Col, col, err)
	}
	if !strings.Contains(err.Error(), "nests deeper than") {
		t.Fatalf("err = %v, want the nesting bound", err)
	}
}

// TestTypeNestingAtTheBound compiles and plans a type exactly
// ir.MaxTypeDepth sequences deep, and refuses one level more.
func TestTypeNestingAtTheBound(t *testing.T) {
	compile := func(n int) (*Compiled, error) {
		return Compile(Options{Frontend: FrontendCORBA, Filename: "deep.idl",
			Source: "interface I { void op(in " + deepSeq(n) + " v); };"})
	}
	c, err := compile(ir.MaxTypeDepth)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.NewPlan(c.Pres, runtime.XDRCodec, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := compile(ir.MaxTypeDepth + 1); err == nil {
		t.Fatalf("a type %d levels deep compiled", ir.MaxTypeDepth+1)
	}
}

// TestTypeNestingThroughTypedefs builds the deep type one typedef at a
// time, where no parser recursion sees it: typedef resolution refuses
// it for every front end and names the parameter.
func TestTypeNestingThroughTypedefs(t *testing.T) {
	const n = 100_000
	chain := func(first, link func(i int) string) string {
		var b strings.Builder
		b.WriteString(first(0))
		for i := 1; i <= n; i++ {
			b.WriteString(link(i))
		}
		return b.String()
	}
	for _, c := range []struct {
		frontend Frontend
		src      string
		param    string
	}{
		{FrontendCORBA, chain(
			func(int) string { return "typedef long t0;\n" },
			func(i int) string { return fmt.Sprintf("typedef sequence<t%d> t%d;\n", i-1, i) },
		) + fmt.Sprintf("interface I { void op(in t%d v); };", n), "I.op param v"},
		{FrontendSunXDR, chain(
			func(int) string { return "typedef int t0;\n" },
			func(i int) string { return fmt.Sprintf("typedef t%d t%d<>;\n", i-1, i) },
		) + fmt.Sprintf("program P { version V { void OP(t%d) = 1; } = 1; } = 300999;", n), "P_V.OP param arg1"},
		{FrontendMIG, chain(
			func(int) string { return "subsystem deep 2400;\ntype t0 = int;\n" },
			func(i int) string { return fmt.Sprintf("type t%d = array[] of t%d;\n", i, i-1) },
		) + fmt.Sprintf("routine op(server : mach_port_t; in v : t%d);", n), "deep.op param v"},
	} {
		_, err := Compile(Options{Frontend: c.frontend, Filename: "deep", Source: c.src})
		if err == nil || !strings.Contains(err.Error(), c.param+": ir: type nests deeper than") {
			t.Errorf("%v: err = %v, want the nesting bound at %s", c.frontend, err, c.param)
		}
	}
}

// TestTypeNestingMIGArrays nests MIG arrays inline, the one front end
// besides CORBA whose type syntax recurses.
func TestTypeNestingMIGArrays(t *testing.T) {
	src := "subsystem deep 2400;\ntype t = " + strings.Repeat("array[] of ", 1_000_000) + "int;\n"
	_, err := Compile(Options{Frontend: FrontendMIG, Filename: "deep.defs", Source: src})
	var pe *idl.Error
	if !errors.As(err, &pe) || pe.Pos.Line != 2 || !strings.Contains(pe.Msg, "nests deeper than") {
		t.Fatalf("err = %v, want a positioned nesting error on line 2", err)
	}
}

// doublingChain is a CORBA contract whose one parameter has the type
// L<levels>: L0 is a struct of two longs and each L<i> a struct of two
// L<i-1>, so the parameter resolves to 2^(levels+2) - 1 nodes.
func doublingChain(levels int) string {
	var b strings.Builder
	b.WriteString("struct L0 { long a; long b; };\n")
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "struct L%d { L%d a; L%d b; };\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "interface I { void op(in L%d v); };\n", levels)
	return b.String()
}

// compileWithin compiles src, and panics if that takes longer than
// limit: a runaway compile cannot be stopped, and it allocates until
// the host runs out of memory, so the test binary stops instead.
func compileWithin(limit time.Duration, src string) error {
	done := make(chan error, 1)
	go func() {
		_, err := Compile(Options{Frontend: FrontendCORBA, Filename: "chain.idl", Source: src})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		panic(fmt.Sprintf("Compile ran for more than %v", limit))
	}
}

// TestTypeSizeReproducer compiles the largest doubling chain the depth
// bound admits, 31 levels: resolved, the parameter would be 2^33 - 1
// nodes. Resolve refuses it at ir.MaxTypeNodes and names the parameter.
func TestTypeSizeReproducer(t *testing.T) {
	levels := (ir.MaxTypeDepth - 2) / 2 // L0's fields sit at depth 2*levels+2
	err := compileWithin(5*time.Second, doublingChain(levels))
	if err == nil || !strings.Contains(err.Error(), "chain.idl: I.op param v: ir: type expands to more than") {
		t.Fatalf("err = %v, want the size bound at I.op param v", err)
	}
}

// TestTypeSizeAtTheBound compiles and plans a type of 2^16 - 1 nodes,
// within ir.MaxTypeNodes, and refuses one of 2^17 - 1.
func TestTypeSizeAtTheBound(t *testing.T) {
	if err := compileWithin(5*time.Second, doublingChain(15)); err == nil || !strings.Contains(err.Error(), "expands to more than") {
		t.Fatalf("a type of 2^17 - 1 nodes: err = %v, want the size bound", err)
	}
	c, err := Compile(Options{Frontend: FrontendCORBA, Filename: "chain.idl", Source: doublingChain(14)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.NewPlan(c.Pres, runtime.XDRCodec, nil); err != nil {
		t.Fatal(err)
	}
}
