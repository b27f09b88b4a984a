package runtime

import (
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

const encodeIDL = `
	typedef octet md5[16];
	struct pt { long x; double y; };
	typedef pt pair[2];
	struct outer { pair pts; md5 sum; string name; sequence<long> ids; };
	interface E {
		void put(in outer o);
		outer get();
	};`

func encodePres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("encode.idl", encodeIDL)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("E"), pres.StyleCORBA)
}

// TestEncodeErrorTexts pins the whole text of each way a value can fail
// its wire type, nested prefixes included, on the request and the reply
// path of both codecs.
func TestEncodeErrorTexts(t *testing.T) {
	pt := func(x Value) Value { return []Value{x, 0.5} }
	outer := func(pts, sum Value) []Value {
		return []Value{pts, sum, "name", []Value{int32(1), int32(2)}}
	}
	sum := make([]byte, 16)
	for _, c := range []struct {
		name string
		v    Value
		want string // after the parameter's prefix
	}{
		{"leaf two levels deep", outer([]Value{pt(int32(1)), pt("x")}, sum),
			"field pts: element 1: field x: runtime: value string does not match wire type i32"},
		{"array length", outer([]Value{pt(int32(1))}, sum),
			"field pts: runtime: array needs 2 elements, have 1"},
		{"struct field count", outer([]Value{pt(int32(1)), []Value{int32(2)}}, sum),
			"field pts: element 1: runtime: struct pt needs 2 fields, have 1"},
		{"fixed bytes length", outer([]Value{pt(int32(1)), pt(int32(2))}, []byte("abc")),
			"field sum: runtime: fixed opaque needs 16 bytes, have 3"},
		{"fixed bytes kind", outer([]Value{pt(int32(1)), pt(int32(2))}, "abc"),
			"field sum: runtime: value string does not match wire type fbytes<16>"},
		{"sequence element", []Value{[]Value{pt(int32(1)), pt(int32(2))}, sum, "name", []Value{int32(1), "x"}},
			"field ids: element 1: runtime: value string does not match wire type i32"},
		{"composite kind", "outer",
			"runtime: value string does not match wire type struct{array<struct{i32,f64},2>,fbytes<16>,string,seq<i32>}"},
	} {
		for _, codec := range []Codec{XDRCodec, CDRCodec} {
			plan, err := NewPlan(encodePres(t), codec, nil)
			if err != nil {
				t.Fatal(err)
			}
			enc := codec.NewEncoder()
			err = plan.Ops[plan.OpIndex("put")].EncodeRequest(enc, []Value{c.v})
			if want := "put param o: " + c.want; err == nil || err.Error() != want {
				t.Errorf("%s/%s request: err = %v\nwant %s", c.name, codec.Name(), err, want)
			}
			err = plan.Ops[plan.OpIndex("get")].EncodeReply(enc, nil, c.v)
			if want := "get result: " + c.want; err == nil || err.Error() != want {
				t.Errorf("%s/%s reply: err = %v\nwant %s", c.name, codec.Name(), err, want)
			}
		}
	}
}
