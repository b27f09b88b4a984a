package core

import (
	"strings"
	"testing"

	"flexrpc/internal/pres"
)

const fileIOIDL = `
interface FileIO {
    sequence<octet> read(in unsigned long count);
    void write(in sequence<octet> data);
};`

func TestCompileCORBA(t *testing.T) {
	c, err := Compile(Options{
		Frontend: FrontendCORBA,
		Filename: "fileio.idl",
		Source:   fileIOIDL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Iface.Name != "FileIO" {
		t.Fatalf("iface = %s", c.Iface.Name)
	}
	if c.Pres.Style != pres.StyleCORBA {
		t.Fatalf("style = %v", c.Pres.Style)
	}
	// Default CORBA presentation: move semantics on the result.
	if c.Pres.Op("read").Result().Dealloc != pres.DeallocAlways {
		t.Fatal("default presentation missing move semantics")
	}
}

func TestCompileWithPDLStage(t *testing.T) {
	c, err := Compile(Options{
		Frontend:    FrontendCORBA,
		Filename:    "fileio.idl",
		Source:      fileIOIDL,
		PDL:         `interface FileIO { read([dealloc(never)] return); };`,
		PDLFilename: "server.pdl",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pres.Op("read").Result().Dealloc != pres.DeallocNever {
		t.Fatal("PDL stage did not run")
	}
}

func TestWithPDLStartsFromDefault(t *testing.T) {
	c, err := Compile(Options{
		Frontend: FrontendCORBA,
		Filename: "fileio.idl",
		Source:   fileIOIDL,
		PDL:      `interface FileIO { read([dealloc(never)] return); };`,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second endpoint derives its own presentation from the
	// default, not from the first endpoint's PDL.
	d, err := c.WithPDL("client.pdl", `interface FileIO { write([trashable] data); };`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pres.Op("read").Result().Dealloc != pres.DeallocAlways {
		t.Fatal("WithPDL inherited the other endpoint's deviations")
	}
	if !d.Pres.Op("write").Param("data").Trashable {
		t.Fatal("WithPDL did not apply its own PDL")
	}
	// And the original endpoint is untouched.
	if c.Pres.Op("write").Param("data").Trashable {
		t.Fatal("WithPDL mutated the source endpoint")
	}
}

func TestCompileSunXDRDefaultsToSunStyle(t *testing.T) {
	c, err := Compile(Options{
		Frontend: FrontendSunXDR,
		Filename: "p.x",
		Source: `
			program P { version V { int PING(int) = 1; } = 1; } = 300999;`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pres.Style != pres.StyleSun {
		t.Fatalf("style = %v, want sun", c.Pres.Style)
	}
	if c.Iface.Program != 300999 {
		t.Fatalf("program = %d", c.Iface.Program)
	}
}

func TestInterfaceSelection(t *testing.T) {
	src := `
		interface A { void a(); };
		interface B { void b(); };`
	if _, err := Compile(Options{Frontend: FrontendCORBA, Filename: "m.idl", Source: src}); err == nil ||
		!strings.Contains(err.Error(), "select one") {
		t.Fatalf("ambiguous selection err = %v", err)
	}
	c, err := Compile(Options{Frontend: FrontendCORBA, Filename: "m.idl", Source: src, Interface: "B"})
	if err != nil || c.Iface.Name != "B" {
		t.Fatalf("selected = %v, %v", c.Iface, err)
	}
	if _, err := Compile(Options{Frontend: FrontendCORBA, Filename: "m.idl", Source: src, Interface: "Z"}); err == nil {
		t.Fatal("missing interface should fail")
	}
	if _, err := Compile(Options{Frontend: FrontendCORBA, Filename: "e.idl", Source: `const long X = 1;`}); err == nil {
		t.Fatal("no interfaces should fail")
	}
}

func TestFrontendByName(t *testing.T) {
	for name, want := range map[string]Frontend{
		"corba": FrontendCORBA, "sun": FrontendSunXDR, "sunxdr": FrontendSunXDR, "xdr": FrontendSunXDR,
	} {
		got, err := FrontendByName(name)
		if err != nil || got != want {
			t.Errorf("FrontendByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := FrontendByName("corba++"); err == nil {
		t.Error("unknown front-end should fail")
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := Compile(Options{Frontend: FrontendCORBA, Filename: "bad.idl", Source: `interface {`}); err == nil {
		t.Error("parse error should propagate")
	}
	if _, err := Compile(Options{
		Frontend: FrontendCORBA, Filename: "f.idl", Source: fileIOIDL,
		PDL: `interface Nope { };`,
	}); err == nil {
		t.Error("PDL error should propagate")
	}
}

func TestMIGStyleDefault(t *testing.T) {
	c, err := Compile(Options{
		Frontend: FrontendCORBA,
		Filename: "fileio.idl",
		Source:   fileIOIDL,
		Style:    pres.StyleMIG,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pres.Op("read").Result().Alloc != pres.AllocCaller {
		t.Fatal("MIG style should default out buffers to caller-alloc")
	}
	// DefaultPres derives other styles on demand.
	if c.DefaultPres(pres.StyleCORBA).Op("read").Result().Alloc != pres.AllocCallee {
		t.Fatal("DefaultPres(CORBA) wrong")
	}
}

func TestCompileMIGDefaultsToMIGStyle(t *testing.T) {
	c, err := Compile(Options{
		Frontend: FrontendMIG,
		Filename: "p.defs",
		Source: `
			subsystem pipes 2400;
			type buf_t = array[*:4096] of char;
			routine pipe_read(server : mach_port_t; in count : int; out data : buf_t);`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pres.Style != pres.StyleMIG {
		t.Fatalf("style = %v, want mig", c.Pres.Style)
	}
	// MIG's natural mapping: caller allocates out buffers.
	if c.Pres.Op("pipe_read").Param("data").Alloc != pres.AllocCaller {
		t.Fatal("MIG out buffer should default to caller-alloc")
	}
	if c.Iface.Op("pipe_read").Proc != 2400 {
		t.Fatalf("message id = %d", c.Iface.Op("pipe_read").Proc)
	}
	if _, err := FrontendByName("mig"); err != nil {
		t.Fatal(err)
	}
}
