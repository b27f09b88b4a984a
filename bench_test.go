package flexrpc

// Benchmarks for the figures of the evaluation, derived from the figure
// registry: BenchmarkFig/<fig>/<system> drives one operation of each
// system a figure assembles (one RPC, one chunk through a pipe) — the
// same constructor the figure's own table is measured through — and a
// figure with no per-operation hot path (faults, scale, overload, c10k)
// runs whole at its smoke size. The full figure workloads with
// paper-style output are `go run ./cmd/experiments`.
//
//	go test -run '^$' -bench 'Fig/10' -benchmem .

import (
	"testing"

	"flexrpc/internal/experiments"
	"flexrpc/internal/pipeserver"
)

func BenchmarkFig(b *testing.B) {
	for _, f := range experiments.Figures {
		b.Run(f.Name, func(b *testing.B) {
			if len(f.Systems) == 0 {
				for i := 0; i < b.N; i++ {
					rep, err := f.Execute(experiments.Smoke)
					if err != nil {
						b.Fatal(err)
					}
					if err := rep.Err(); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			for _, sys := range f.Systems {
				b.Run(sys.Name, func(b *testing.B) {
					op, closeFn, err := sys.New()
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(closeFn)
					b.SetBytes(sys.Bytes)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := op(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkCompile measures the compiler front half itself: parse,
// default presentation, PDL application.
func BenchmarkCompile(b *testing.B) {
	src := pipeserver.IDL
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := Compile(Options{Frontend: FrontendCORBA, Filename: "fileio.idl", Source: src})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.WithPDL("f5.pdl", pipeserver.Figure5PDL); err != nil {
			b.Fatal(err)
		}
	}
}
