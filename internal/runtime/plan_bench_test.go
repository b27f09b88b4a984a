package runtime

import (
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// BenchmarkPlanDecode measures the client's reply decode alone, on a
// reused decoder: the getattr reply (a sixteen-field attribute struct
// with one string) on XDR and CDR, three of them in an array, and a
// top-level string. Run it against another commit with
//
//	go test -run '^$' -bench PlanDecode -benchmem -count 10 ./internal/runtime
//
// and compare the two with benchstat or by median.
func BenchmarkPlanDecode(b *testing.B) {
	f, err := corba.Parse("decode.idl", attrIDL+`
		typedef attr attrs[3];
		interface D {
			attr getattr();
			attrs three();
			string name();
		};`)
	if err != nil {
		b.Fatal(err)
	}
	p := pres.Default(f.Interface("D"), pres.StyleCORBA)
	attr := func(name string) Value {
		return []Value{uint32(0644), uint32(1000), uint32(1000), uint32(1000),
			uint64(1 << 20), uint64(1 << 20), uint64(777), uint64(31337),
			uint32(300), uint32(4096), int64(1 << 40), int64(1 << 41), int64(1 << 42),
			true, 0.5, name}
	}
	for _, c := range []struct {
		name  string
		codec Codec
		op    string
		reply Value
	}{
		{"attr/xdr", XDRCodec, "getattr", attr("a-file-name")},
		{"attr/cdr", CDRCodec, "getattr", attr("a-file-name")},
		{"attr3/xdr", XDRCodec, "three", []Value{attr("first"), attr("second"), attr("third")}},
		{"string/xdr", XDRCodec, "name", "a-file-name-of-some-length"},
	} {
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
