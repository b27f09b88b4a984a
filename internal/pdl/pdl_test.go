package pdl

import (
	"strings"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

func fileIOPres(t *testing.T) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("fileio.idl", `
		interface FileIO {
		    sequence<octet> read(in unsigned long count);
		    void write(in sequence<octet> data);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("FileIO"), pres.StyleCORBA)
}

// applied returns base annotated in place by the PDL source, with
// Apply's error.
func applied(base *pres.Presentation, name, src string) (*pres.Presentation, error) {
	return base, Apply(base, name, src)
}

func appliedLoose(base *pres.Presentation, name, src string) (*pres.Presentation, error) {
	return base, ApplyLoose(base, name, src)
}

// Paper Figure 5: [dealloc(never)] on the read result lets the pipe
// server keep its circular buffer.
func TestFigure5DeallocNever(t *testing.T) {
	// Apply annotates in place; a caller that keeps its base for
	// another endpoint applies to a clone.
	base := fileIOPres(t)
	p := base.Clone()
	if err := Apply(p, "server.pdl", `
		interface FileIO {
			read([dealloc(never)] return);
		};`); err != nil {
		t.Fatal(err)
	}
	if p.Op("read").Result().Dealloc != pres.DeallocNever {
		t.Fatal("dealloc(never) not applied")
	}
	if base.Op("read").Result().Dealloc != pres.DeallocAlways {
		t.Fatal("Apply to a clone mutated the base presentation")
	}
}

// Paper Figures 8 and 9: trashable on the client, preserved on the
// server.
func TestFigures8And9Mutability(t *testing.T) {
	client, err := applied(fileIOPres(t), "client.pdl", `
		interface FileIO { write([trashable] data); };`)
	if err != nil {
		t.Fatal(err)
	}
	server, err := applied(fileIOPres(t), "server.pdl", `
		interface FileIO { write([preserved] data); };`)
	if err != nil {
		t.Fatal(err)
	}
	if !client.Op("write").Param("data").Trashable {
		t.Error("trashable not applied")
	}
	if !server.Op("write").Param("data").Preserved {
		t.Error("preserved not applied")
	}
}

// Paper §4.5: trust attributes at interface level.
func TestTrustAttributes(t *testing.T) {
	p, err := applied(fileIOPres(t), "t.pdl", `
		[leaky] interface FileIO { };`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trust != pres.TrustLeaky {
		t.Fatalf("trust = %v", p.Trust)
	}
	p, err = applied(fileIOPres(t), "t.pdl", `
		[leaky, unprotected] interface FileIO { };`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trust != pres.TrustFull {
		t.Fatalf("trust = %v", p.Trust)
	}
}

// Paper Figure 1: the Linux NFS client declaration combines
// comm_status and special.
func TestFigure1CommStatusAndSpecial(t *testing.T) {
	f, err := corba.Parse("nfs.idl", `
		interface NFS {
			long nfsproc_read(in unsigned long offset, in unsigned long count,
			                  out sequence<octet> data);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	base := pres.Default(f.Interface("NFS"), pres.StyleSun)
	p, err := applied(base, "nfs.pdl", `
		interface NFS {
			[comm_status] nfsproc_read([special] data);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	op := p.Op("nfsproc_read")
	if !op.CommStatus || !op.Param("data").Special {
		t.Fatalf("op = %+v", op)
	}
}

func TestLengthIs(t *testing.T) {
	f, err := corba.Parse("syslog.idl", `
		interface SysLog {
			void write_msg(in string msg, in long length);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	base := pres.Default(f.Interface("SysLog"), pres.StyleCORBA)
	p, err := applied(base, "syslog.pdl", `
		interface SysLog { write_msg([length_is(length)] msg); };`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op("write_msg").Param("msg").LengthIs != "length" {
		t.Fatal("length_is not applied")
	}
}

func TestAllocAttr(t *testing.T) {
	p, err := applied(fileIOPres(t), "t.pdl", `
		interface FileIO { read([alloc(caller)] return); };`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op("read").Result().Alloc != pres.AllocCaller {
		t.Fatal("alloc(caller) not applied")
	}
}

// The central invariant: applying a PDL never alters the network
// contract.
func TestApplyNeverAltersContract(t *testing.T) {
	base := fileIOPres(t)
	before := base.Interface.Signature()
	_, err := applied(base, "t.pdl", `
		[leaky, unprotected]
		interface FileIO {
			[comm_status] read([dealloc(never), alloc(callee)] return);
			write([trashable] data);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	if base.Interface.Signature() != before {
		t.Fatal("PDL application changed the network contract")
	}
}

func TestApplyErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{`interface Wrong { };`, "does not match"},
		{`interface FileIO { nosuchop(); };`, `operation "nosuchop"`},
		{`interface FileIO { read([trashable] return); };`, "trashable"},
		{`interface FileIO { read([dealloc(sometimes)] return); };`, "dealloc(sometimes)"},
		{`interface FileIO { read([alloc(greedy)] return); };`, "alloc(greedy)"},
		{`interface FileIO { read([frob] return); };`, `unknown parameter attribute "frob"`},
		{`interface FileIO { [frob] read(); };`, `unknown operation attribute "frob"`},
		// [hedged] was accepted once and read by nothing; the error is
		// positioned and says what an operation may carry.
		{"interface FileIO {\n  [hedged] read();\n};", `t.pdl:2:4: pdl: unknown operation attribute "hedged" (accepted: comm_status, idempotent, batchable)`},
		{`[frob] interface FileIO { };`, `unknown interface attribute "frob"`},
		{`interface FileIO { write([length_is(a,b)] data); };`, "exactly one argument"},
		{`interface FileIO { write([trashable(x)] data); };`, "takes no arguments"},
		{`interface FileIO { write([dealloc] data); };`, "exactly one argument"},
		{`interface FileIO { write([preserved] nosuchparam); };`, `"nosuchparam"`},
	}
	for _, c := range cases {
		_, err := applied(fileIOPres(t), "t.pdl", c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("src %q:\n  err = %v\n  want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestOnlyDeviationsNeeded(t *testing.T) {
	// A PDL file mentioning one op must leave every other op at the
	// default (paper §3: no need to re-declare everything).
	p, err := applied(fileIOPres(t), "t.pdl", `
		interface FileIO { read([dealloc(never)] return); };`)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Op("write").Param("data")
	if w.Trashable || w.Preserved || w.Special {
		t.Fatalf("write attrs changed: %+v", w)
	}
}

func TestMultipleInterfaceBlocksAndEmptyFile(t *testing.T) {
	if _, err := applied(fileIOPres(t), "t.pdl", ``); err != nil {
		t.Fatalf("empty PDL should be valid: %v", err)
	}
	p, err := applied(fileIOPres(t), "t.pdl", `
		interface FileIO { read([dealloc(never)] return); };
		interface FileIO { write([trashable] data); };`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op("read").Result().Dealloc != pres.DeallocNever || !p.Op("write").Param("data").Trashable {
		t.Fatal("both blocks should apply")
	}
}

// Attribute positions must survive into the applied presentation so
// validation errors and flexvet diagnostics can point at PDL source.
func TestPositionsThreadedIntoPresentation(t *testing.T) {
	p, err := applied(fileIOPres(t), "pos.pdl",
		"[leaky]\ninterface FileIO {\n    [comm_status] read([dealloc(never)] return);\n};")
	if err != nil {
		t.Fatal(err)
	}
	if pos, ok := p.PosOf(pres.AttrLeaky); !ok || pos.File != "pos.pdl" || pos.Line != 1 {
		t.Errorf("leaky pos = %v, %v; want pos.pdl:1", pos, ok)
	}
	if pos := p.Op("read").At[pres.AttrCommStatus]; pos.Line != 3 {
		t.Errorf("comm_status pos = %v; want line 3", pos)
	}
	r := p.Op("read").Result()
	if pos := r.At[pres.AttrDealloc]; pos.Line != 3 || pos.Col != 25 {
		t.Errorf("dealloc pos = %v; want pos.pdl:3:25", pos)
	}
	if !r.Explicit(pres.AttrDealloc) || r.Explicit(pres.AttrAlloc) {
		t.Error("explicitness must track only applied attributes")
	}
	// Positions survive a Clone without aliasing.
	q := p.Clone()
	q.Op("read").Result().MarkAt(pres.AttrAlloc, r.Pos)
	if p.Op("read").Result().Explicit(pres.AttrAlloc) {
		t.Error("Clone shares attribute positions with the original")
	}
}

// Validation errors carry the iface.op.param context and the PDL
// source position of the offending attribute.
func TestValidateErrorsArePositionedAndContextual(t *testing.T) {
	_, err := applied(fileIOPres(t), "bad.pdl",
		"interface FileIO {\n    write([trashable, preserved] data);\n};")
	if err == nil {
		t.Fatal("expected validation error")
	}
	for _, want := range []string{"bad.pdl:2:23", "FileIO.write.data"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want substring %q", err, want)
		}
	}
}

// A PDL with two violations reports the same one on every run: the
// rule walk visits operations and parameters by name, not in map
// order.
func TestValidateFirstErrorIsDeterministic(t *testing.T) {
	const src = "interface FileIO {\n    write([nonunique] data);\n    read([trashable] return);\n};"
	for i := 0; i < 50; i++ {
		_, err := applied(fileIOPres(t), "two.pdl", src)
		if err == nil || !strings.Contains(err.Error(), "two.pdl:3:11") || !strings.Contains(err.Error(), "FileIO.read.return") {
			t.Fatalf("run %d: err = %v, want the violation on FileIO.read.return (read sorts before write)", i, err)
		}
	}
}

// ApplyLoose keeps dangling declarations (for the analyzer) and skips
// validation.
func TestApplyLoose(t *testing.T) {
	p, err := appliedLoose(fileIOPres(t), "loose.pdl",
		"interface FileIO {\n    frob([special] x);\n    write([trashable, preserved] data);\n};")
	if err != nil {
		t.Fatal(err)
	}
	if p.Op("frob") != nil || len(p.Dangling) != 1 || p.Dangling[0].Name != "frob" || p.Dangling[0].Pos.Line != 2 {
		t.Fatalf("dangling op not kept apart with its position: %+v", p.Dangling)
	}
	if x := p.Dangling[0].Annotate("x"); !x.Special || x.Pos.Line != 2 {
		t.Fatalf("dangling op's parameter not kept with its attributes: %+v", x)
	}
	if !p.Op("write").Param("data").Trashable {
		t.Error("valid attributes must still apply in loose mode")
	}
	// Unknown attribute names are still parse errors, even loose.
	if _, err := appliedLoose(fileIOPres(t), "loose.pdl", `interface FileIO { write([frob] data); };`); err == nil {
		t.Error("unknown attribute must fail even in loose mode")
	}
}

func TestValidationRunsAfterApply(t *testing.T) {
	// trashable+preserved passes parsing but must fail validation.
	_, err := applied(fileIOPres(t), "t.pdl", `
		interface FileIO { write([trashable, preserved] data); };`)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v", err)
	}
}
