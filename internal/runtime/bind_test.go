package runtime

import (
	"os"
	"testing"

	"flexrpc/internal/core"
	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
)

// benchPres compiles the repository benchmark's contract under one of
// its endpoint PDLs, the presentation every bind of the benchmark
// compiles a plan for.
func benchPres(tb testing.TB, pdl string) *pres.Presentation {
	tb.Helper()
	read := func(name string) string {
		b, err := os.ReadFile("../../bench/" + name)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "bench.idl", Source: read("bench.idl"),
		PDL: read(pdl), PDLFilename: pdl,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c.Pres
}

// TestNewPlanAllocsBenchIDL pins the allocations of compiling the
// benchmark's client plan: the OpPlans and every op's step lists come
// from one array each, and a scalar leaf's encode step is a shared
// function, so what remains is the plan and the composite and
// caller-landing steps that close over their type. An op name resolves
// by a scan of the interface, so no name index is built.
func TestNewPlanAllocsBenchIDL(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	p := benchPres(t, "client.pdl")
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := NewPlan(p, XDRCodec, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 10 {
		t.Errorf("NewPlan(bench.idl) allocates %.0f times, want <= 10", allocs)
	}
}

// BenchmarkNewPlan times compiling the benchmark's client plan, the
// runtime's share of every cold bind. Run it against another commit
// with
//
//	go test -run '^$' -bench NewPlan -benchmem -count 10 ./internal/runtime
//
// and compare the two with benchstat or by median.
func BenchmarkNewPlan(b *testing.B) {
	p := benchPres(b, "client.pdl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(p, XDRCodec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// A scalar's program is shared by every top-level value of its kind, so
// it cannot name the value's type; its error must still read as
// typeErr's for that type. An enum's signature is "enum", not its wire
// int32.
func TestScalarEncodeErrorsNameTheirType(t *testing.T) {
	for _, typ := range []*ir.Type{
		ir.VoidType, ir.BoolType, ir.Int32Type, {Kind: ir.Enum, Name: "color", Enumerators: []string{"red"}},
		ir.Uint32Type, ir.Int64Type, ir.Uint64Type, ir.Float32Type, ir.Float64Type,
		ir.StringType, ir.BytesType, ir.PortType,
	} {
		err := checkValue(typ, struct{}{})
		want := typeErr(typ, struct{}{}).Error()
		if typ.Kind == ir.Void {
			want = "runtime: void value must be nil, have struct {}"
		}
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", typ.Signature(), err, want)
		}
	}
}
