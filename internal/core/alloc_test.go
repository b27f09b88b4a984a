package core

import (
	"os"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
)

// benchInputs reads the repository benchmark's contract and its two
// endpoint PDLs, the inputs of every cold bind the benchmark times.
func benchInputs(tb testing.TB) (idlSrc string, pdls map[string]string) {
	tb.Helper()
	read := func(name string) string {
		b, err := os.ReadFile("../../bench/" + name)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	return read("bench.idl"), map[string]string{
		"client.pdl": read("client.pdl"),
		"server.pdl": read("server.pdl"),
	}
}

func compileBench(tb testing.TB, idlSrc, pdlName, pdlSrc string) {
	if _, err := Compile(Options{
		Frontend: FrontendCORBA, Filename: "bench.idl", Source: idlSrc,
		PDL: pdlSrc, PDLFilename: pdlName,
	}); err != nil {
		tb.Fatal(err)
	}
}

// TestCompileAllocsBenchIDL pins the allocations of one Compile of the
// benchmark's contract, with each endpoint's PDL and with none: a
// token allocates nothing, a struct's fields and an interface's
// operations are copied out of stack buffers once, the default
// presentation is three blocks, and a PDL annotates it in place as it
// parses, building no declaration tree.
func TestCompileAllocsBenchIDL(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	idlSrc, pdls := benchInputs(t)
	for _, c := range []struct {
		pdl   string
		bound float64
	}{{"none", 18}, {"client.pdl", 21}, {"server.pdl", 21}} {
		if allocs := testing.AllocsPerRun(50, func() {
			compileBench(t, idlSrc, c.pdl, pdls[c.pdl])
		}); allocs > c.bound {
			t.Errorf("Compile(bench.idl, %s) allocates %.0f times, want <= %.0f", c.pdl, allocs, c.bound)
		}
	}
}

// BenchmarkCompile times one Compile of the benchmark's contract with
// each endpoint's PDL, and with none: the front end and presentation
// stages every bind runs. BenchmarkParse and BenchmarkPresentation
// split it by stage, and the lexer's share is internal/idl's
// BenchmarkLex. Compare a change with its parent in pairs:
//
//	go test -run '^$' -bench 'Compile|Parse|Presentation' -benchmem -count 10 ./internal/core
func BenchmarkCompile(b *testing.B) {
	idlSrc, pdls := benchInputs(b)
	for _, name := range []string{"none", "client.pdl", "server.pdl"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compileBench(b, idlSrc, name, pdls[name])
			}
		})
	}
}

// BenchmarkParse times the front-end stage of BenchmarkCompile alone:
// lexing, parsing and resolving the benchmark's contract.
//
//	go test -run '^$' -bench Parse -benchmem -count 10 ./internal/core
func BenchmarkParse(b *testing.B) {
	idlSrc, _ := benchInputs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := corba.Parse("bench.idl", idlSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPresentation times the presentation stage of
// BenchmarkCompile alone: the default presentation of the parsed
// contract, annotated by each endpoint's PDL.
//
//	go test -run '^$' -bench Presentation -benchmem -count 10 ./internal/core
func BenchmarkPresentation(b *testing.B) {
	idlSrc, pdls := benchInputs(b)
	file, err := corba.Parse("bench.idl", idlSrc)
	if err != nil {
		b.Fatal(err)
	}
	iface := file.Interfaces[0]
	for _, name := range []string{"client.pdl", "server.pdl"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := pdl.Apply(pres.Default(iface, pres.StyleCORBA), name, pdls[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
