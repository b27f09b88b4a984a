package core

import (
	"os"
	"testing"
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
// token allocates nothing, and the presentation stage builds the
// default presentation once and annotates it in place.
func TestCompileAllocsBenchIDL(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	idlSrc, pdls := benchInputs(t)
	for _, c := range []struct {
		pdl   string
		bound float64
	}{{"none", 33}, {"client.pdl", 48}, {"server.pdl", 45}} {
		if allocs := testing.AllocsPerRun(50, func() {
			compileBench(t, idlSrc, c.pdl, pdls[c.pdl])
		}); allocs > c.bound {
			t.Errorf("Compile(bench.idl, %s) allocates %.0f times, want <= %.0f", c.pdl, allocs, c.bound)
		}
	}
}

// BenchmarkCompile times one Compile of the benchmark's contract with
// each endpoint's PDL, and with none: the front end and presentation
// stages every bind runs.
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
