package runtime

import (
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// A planBenchCase is one reply shape the plan benchmarks marshal: the
// getattr reply (a sixteen-field attribute struct with one string) on
// XDR and CDR, three of them in an array, a top-level string, and a
// top-level unsigned long below 2^16, which boxes into the static
// table, and at 2^20, which boxes on the heap.
type planBenchCase struct {
	name  string
	codec Codec
	op    string
	reply Value
}

func planBenchCases(b *testing.B) (*pres.Presentation, []planBenchCase) {
	f, err := corba.Parse("decode.idl", attrIDL+`
		typedef attr attrs[3];
		interface D {
			attr getattr();
			attrs three();
			string name();
			unsigned long size();
		};`)
	if err != nil {
		b.Fatal(err)
	}
	attr := func(name string) Value {
		return []Value{uint32(0644), uint32(1000), uint32(1000), uint32(1000),
			uint64(1 << 20), uint64(1 << 20), uint64(777), uint64(31337),
			uint32(300), uint32(4096), int64(1 << 40), int64(1 << 41), int64(1 << 42),
			true, 0.5, name}
	}
	return pres.Default(f.Interface("D"), pres.StyleCORBA), []planBenchCase{
		{"attr/xdr", XDRCodec, "getattr", attr("a-file-name")},
		{"attr/cdr", CDRCodec, "getattr", attr("a-file-name")},
		{"attr3/xdr", XDRCodec, "three", []Value{attr("first"), attr("second"), attr("third")}},
		{"string/xdr", XDRCodec, "name", "a-file-name-of-some-length"},
		{"ulong/xdr", XDRCodec, "size", uint32(1000)},
		{"ulong-heap/xdr", XDRCodec, "size", uint32(1 << 20)},
	}
}

// BenchmarkPlanDecode measures the client's reply decode alone, on a
// reused decoder, over planBenchCases. Run it against another commit
// with
//
//	go test -run '^$' -bench PlanDecode -benchmem -count 10 ./internal/runtime
//
// and compare the two with benchstat or by median.
func BenchmarkPlanDecode(b *testing.B) {
	p, cases := planBenchCases(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			plan, err := NewPlan(p, c.codec, nil)
			if err != nil {
				b.Fatal(err)
			}
			op := plan.Ops[plan.OpIndex(c.op)]
			enc := c.codec.NewEncoder()
			if err := op.EncodeReply(enc, nil, c.reply); err != nil {
				b.Fatal(err)
			}
			msg, dec := enc.Bytes(), plan.NewDecoder(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec.Reset(msg)
				if _, _, err := op.DecodeReply(dec, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanEncode measures the server's reply encode alone, on a
// reused encoder, over the shapes BenchmarkPlanDecode decodes. Run both
// against another commit with
//
//	go test -run '^$' -bench 'Plan(En|De)code' -benchmem -count 10 ./internal/runtime
//
// and compare the two with benchstat or by median.
func BenchmarkPlanEncode(b *testing.B) {
	p, cases := planBenchCases(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			plan, err := NewPlan(p, c.codec, nil)
			if err != nil {
				b.Fatal(err)
			}
			op := plan.Ops[plan.OpIndex(c.op)]
			enc := c.codec.NewEncoder()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Reset()
				if err := op.EncodeReply(enc, nil, c.reply); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalarParam measures a request of one unsigned long
// parameter: the client's encode and the server's decode, each alone on
// a reused encoder or decoder. A top-level scalar runs its program's one
// leaf step, as every bench call's fetch(n) and getattr(h) do. Compare
// two commits with
//
//	go test -run '^$' -bench ScalarParam -benchmem -count 10 ./internal/runtime
func BenchmarkScalarParam(b *testing.B) {
	f, err := corba.Parse("scalar.idl", `interface S { void size(in unsigned long n); };`)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := NewPlan(pres.Default(f.Interface("S"), pres.StyleCORBA), XDRCodec, nil)
	if err != nil {
		b.Fatal(err)
	}
	op, args := plan.Ops[0], []Value{uint32(1000)}
	enc := XDRCodec.NewEncoder()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc.Reset()
			if err := op.EncodeRequest(enc, args); err != nil {
				b.Fatal(err)
			}
		}
	})
	msg, dec, got := enc.Bytes(), plan.NewDecoder(nil), make([]Value, 1)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec.Reset(msg)
			if err := op.DecodeRequestInto(dec, got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
