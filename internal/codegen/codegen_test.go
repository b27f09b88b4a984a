package codegen

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
)

func compile(t *testing.T, src, pdl string) *core.Compiled {
	t.Helper()
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA,
		Filename: "t.idl",
		Source:   src,
		PDL:      pdl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func generate(t *testing.T, src, pdl string) string {
	t.Helper()
	out, err := Generate(compile(t, src, pdl), Options{Package: "gen"})
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

const richIDL = `
enum color { red, green, blue };
struct point { long x; long y; color tint; };
interface Canvas {
	void plot(in point p, in sequence<point> extra);
	point locate(in string name);
	sequence<octet> snapshot(in unsigned long size);
	void stats(out unsigned long count, out sequence<octet> blob);
	long area();
	oneway void poke(in long n);
};`

func TestGenerateRichInterface(t *testing.T) {
	src := generate(t, richIDL, "")
	for _, want := range []string{
		"type Color int32",
		"Green Color = 1",
		"type Point struct {",
		"Tint Color",
		"func pointFromValue(v flexrpc.Value, what string) (Point, error)",
		"func pointSliceToValue(xs []Point) flexrpc.Value",
		"type CanvasClient struct",
		"func (c *CanvasClient) Plot(p Point, extra []Point) error",
		"func (c *CanvasClient) Locate(name string) (Point, error)",
		"func (c *CanvasClient) Snapshot(size uint32) ([]byte, error)",
		"func (c *CanvasClient) Stats() (uint32, []byte, error)",
		"func (c *CanvasClient) Area() (int32, error)",
		"func (c *CanvasClient) Poke(n int32) error",
		"type CanvasServer interface {",
		"Plot(call *flexrpc.Call, p Point, extra []Point) error",
		"Stats(call *flexrpc.Call) (uint32, []byte, error)",
		"func RegisterCanvas(d *flexrpc.Dispatcher, impl CanvasServer)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if !strings.Contains(src, "DO NOT EDIT") {
		t.Error("missing generated-code marker")
	}
}

func TestGeneratePreservesCamelCase(t *testing.T) {
	src := generate(t, `interface FileIO { void close_write(); };`, "")
	if !strings.Contains(src, "FileIOClient") {
		t.Error("FileIO should remain FileIO")
	}
	if !strings.Contains(src, "func (c *FileIOClient) CloseWrite() error") {
		t.Error("close_write should become CloseWrite")
	}
}

func TestCallerAllocChangesSignature(t *testing.T) {
	// The paper's point in §4.4.2 made concrete: the presentation
	// changes the generated prototype. With alloc(caller), the stub
	// takes an explicit buffer.
	idl := `interface Store { sequence<octet> fetch(in unsigned long n); };`
	plain := generate(t, idl, "")
	if !strings.Contains(plain, "func (c *StoreClient) Fetch(n uint32) ([]byte, error)") {
		t.Error("default signature wrong")
	}
	callerAlloc := generate(t, idl, `interface Store { fetch([alloc(caller)] return); };`)
	if !strings.Contains(callerAlloc, "func (c *StoreClient) Fetch(n uint32, resultBuf []byte) ([]byte, error)") {
		t.Errorf("alloc(caller) signature wrong:\n%s", callerAlloc)
	}
	if !strings.Contains(callerAlloc, "resultLanding := resultBuf") {
		t.Error("alloc(caller) should wire the landing buffer")
	}
}

func TestAttributesAppearInDocComments(t *testing.T) {
	src := generate(t,
		`interface P { sequence<octet> read(in unsigned long n); void write(in sequence<octet> data); };`,
		`interface P { read([dealloc(never)] return); write([trashable] data); };`)
	if !strings.Contains(src, "dealloc(never)") {
		t.Error("dealloc(never) not documented")
	}
	if !strings.Contains(src, "[trashable]") { // exact single-attr list
		t.Error("trashable not documented")
	}
}

func TestContractInHeader(t *testing.T) {
	c := compile(t, `interface X { void op(in long v); };`, "")
	src := generate(t, `interface X { void op(in long v); };`, "")
	if !strings.Contains(src, c.Iface.Signature()) {
		t.Error("contract signature missing from header")
	}
}

func TestAnonymousStructRejected(t *testing.T) {
	// Anonymous struct types cannot be named in Go; the back-end
	// must reject them cleanly rather than emit garbage.
	// (Named structs only arrive via typedef in our front-ends, so
	// construct the failure through the API.)
	c := compile(t, `struct s { long a; }; interface I { void op(in s v); };`, "")
	c.Iface.Ops[0].Params[0].Type.Name = ""
	if _, err := Generate(c, Options{Package: "x"}); err == nil {
		t.Fatal("expected anonymous-struct error")
	}
}

// Two source names that map to one Go name would declare it twice:
// generation fails and names both.
func TestGoNameCollisionsRejected(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`struct s { long a; long A; }; interface I { void op(in s v); };`,
			`struct s: codegen: fields "a" and "A" both map to Go name A`},
		{`interface I { void get_x(); void getX(); };`,
			`I: codegen: operations "get_x" and "getX" both map to Go name GetX`},
		{`interface I { void op(in long a_b, in long aB); };`,
			`I.op: codegen: parameters "a_b" and "aB" both map to Go name AB`},
	} {
		_, err := Generate(compile(t, c.src, ""), Options{Package: "x"})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestDefaultPackageName(t *testing.T) {
	c := compile(t, `interface FileIO { void op(); };`, "")
	out, err := Generate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "package fileio") {
		t.Error("default package name should be the lowercased interface")
	}
}

func TestMIGStyleGeneration(t *testing.T) {
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA,
		Filename: "t.idl",
		Source:   `interface M { sequence<octet> get(in unsigned long n); };`,
		Style:    pres.StyleMIG,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(c, Options{Package: "m"})
	if err != nil {
		t.Fatal(err)
	}
	// MIG style defaults the result to caller-alloc: buffer param.
	if !strings.Contains(string(out), "resultBuf []byte") {
		t.Error("MIG style should generate a caller buffer parameter")
	}
}

func TestSunFrontendGeneration(t *testing.T) {
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendSunXDR,
		Filename: "p.x",
		Source: `
			typedef opaque blob<>;
			struct pair { int a; int b; };
			program P { version V {
				pair SWAP(pair) = 1;
				blob ECHO(blob) = 2;
			} = 1; } = 200123;`,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(c, Options{Package: "p"})
	if err != nil {
		t.Fatal(err)
	}
	src := string(out)
	for _, want := range []string{
		"type Pair struct {",
		"func (c *PVClient) SWAP(arg1 Pair) (Pair, error)",
		"func (c *PVClient) ECHO(arg1 []byte) ([]byte, error)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("sun-front-end output missing %q", want)
		}
	}
}

// The plan is the only marshal engine: generated code is Go types
// and typed wrappers over Invoker, whatever the presentation says.
func TestNoMarshalCodeEmitted(t *testing.T) {
	src := generate(t, richIDL, `interface Canvas { snapshot([special] return); stats([alloc(caller)] blob); };`)
	for _, banned := range []string{"flexrpc.Conn", "flexrpc.Codec", "flexrpc.Encoder", "flexrpc.Decoder", ".Put", "dec.", `"sync"`} {
		if strings.Contains(src, banned) {
			t.Errorf("generated source contains %q: marshal code belongs to the plan", banned)
		}
	}
	if !strings.Contains(src, "func (c *CanvasClient) Snapshot(size uint32) ([]byte, error)") {
		t.Error("a [special] operation gets the same typed wrapper as any other")
	}
}

// Over an in-process connection nothing marshals, so the wrappers'
// conversions are the only type checks a value meets: each is checked
// and names the operation and parameter.
func TestCheckedConversionsNameOpAndParam(t *testing.T) {
	src := generate(t, `
		typedef octet md5[16];
		enum mood { calm, tense };
		interface C { mood check(in md5 sum, out sequence<long> hist); };`, "")
	for _, want := range []string{
		`asEnum[Mood](ret, "C.check result")`,
		`asSlice(outs[1], "C.check out param hist", as[int32])`,
		`as[[]byte](call.Arg(0), "C.check param sum")`,
		"func as[T any](v flexrpc.Value, what string) (T, error)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if strings.Count(src, ".(") != 1 {
		t.Errorf("only the as helper may assert a type:\n%s", src)
	}
}

// Every field of a struct converts through its own check.
func TestStructFieldsAreChecked(t *testing.T) {
	src := generate(t, `
		enum e { a, b };
		struct two { e first; e second; };
		interface D { two get(); };`, "")
	for _, want := range []string{
		"out.First, err = asEnum[E](vs[0], what)",
		"out.Second, err = asEnum[E](vs[1], what)",
		`twoFromValue(ret, "D.get result")`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

// format.Source only proves the output parses; this type-checks every
// conversion shape against the real flexrpc package.
func TestGeneratedSourceTypeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks flexrpc from source")
	}
	// testdata/shapes.* is also the generated caller of the uncalled-
	// surface gate (gocheck's TestSurface): one interface, every
	// conversion shape. The examples are each contract the repository
	// ships with a PDL, each endpoint's presentation.
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for _, c := range []struct{ name, idl, pdl string }{
		{"shapes", "testdata/shapes.idl", "testdata/shapes.pdl"},
		{"fileio-client", "../../examples/pipes/fileio/fileio.idl", "../../examples/pipes/fileio/client.pdl"},
		{"fileio-server", "../../examples/pipes/fileio/fileio.idl", "../../examples/pipes/fileio/server.pdl"},
		{"vetgo-server", "../../examples/vetgo/vetgo.idl", "../../examples/vetgo/server.pdl"},
	} {
		t.Run(c.name, func(t *testing.T) {
			idl, err := os.ReadFile(c.idl)
			if err != nil {
				t.Fatal(err)
			}
			pdl, err := os.ReadFile(c.pdl)
			if err != nil {
				t.Fatal(err)
			}
			src := generate(t, string(idl), string(pdl))
			f, err := parser.ParseFile(fset, "gen.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conf.Check("gen", fset, []*ast.File{f}, nil); err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
		})
	}
}
