package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// TestSlabValuesSurviveGC decodes 500 replies of every block shape
// through one reused client decoder and keeps every result: a flat
// attribute struct, nested structs, attr[3], Object[3] and a struct
// with byte-buffer fields. It then overwrites the reply buffer and
// collects garbage several times, and every leaf must still read as the
// value encoded: by ==, as a map key, under reflect.DeepEqual and
// through fmt. Under -race, checkptr also checks every block and slab
// pointer the decode builds.
func TestSlabValuesSurviveGC(t *testing.T) {
	const n = 500
	f, err := corba.Parse("blocks.idl", attrIDL+`
		struct inner { unsigned long id; double w; string tag; };
		typedef inner pair[2];
		struct outer { inner a; pair b; long long stamp; boolean on; };
		typedef octet md5[16];
		struct buf { unsigned long id; sequence<octet> data; md5 sum; string name; };
		typedef attr attrs[3];
		typedef Object ports[3];
		interface Blocks {
			attr getattr();
			outer nested();
			attrs three();
			ports names();
			buf buffer();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(pres.Default(f.Interface("Blocks"), pres.StyleCORBA), XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20261015))
	attr := func(i int) Value {
		return []Value{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(),
			rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(),
			rng.Uint32(), rng.Uint32(), rng.Int63(), -rng.Int63(), rng.Int63(),
			i%2 == 0, rng.NormFloat64(), fmt.Sprintf("file-%d", i)}
	}
	inner := func(i int) Value { return []Value{rng.Uint32(), rng.NormFloat64(), fmt.Sprintf("tag-%d", i)} }
	shapes := []struct {
		op  string
		gen func(i int) Value
	}{
		{"getattr", attr},
		{"nested", func(i int) Value {
			return []Value{inner(i), []Value{inner(i + 1), inner(i + 2)}, -rng.Int63(), i%3 == 0}
		}},
		{"three", func(i int) Value { return []Value{attr(i), attr(i + 1), attr(i + 2)} }},
		{"names", func(int) Value {
			return []Value{PortName(rng.Uint32()), PortName(rng.Uint32()), PortName(rng.Uint32())}
		}},
		{"buffer", func(i int) Value {
			data, sum := make([]byte, 1+rng.Intn(40)), make([]byte, 16)
			rng.Read(data)
			rng.Read(sum)
			return []Value{rng.Uint32(), data, sum, fmt.Sprintf("buf-%d", i)}
		}},
	}

	enc, dec := XDRCodec.NewEncoder(), plan.NewDecoder(nil)
	var buf []byte
	var want, got []Value
	for _, sh := range shapes {
		op := plan.Ops[plan.OpIndex(sh.op)]
		for i := 0; i < n; i++ {
			w := sh.gen(i)
			enc.Reset()
			if err := op.EncodeReply(enc, nil, w); err != nil {
				t.Fatal(err)
			}
			buf = append(buf[:0], enc.Bytes()...)
			dec.Reset(buf)
			_, ret, err := op.DecodeReply(dec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, got = append(want, w), append(got, ret)
		}
	}
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = 0xa5
	}
	for i := 0; i < 4; i++ {
		goruntime.GC()
		garbage := make([][]uint64, 1000)
		for j := range garbage {
			garbage[j] = make([]uint64, 11)
			garbage[j][0] = ^uint64(0)
		}
	}

	keys := make(map[Value]bool)
	for i := range want {
		eachLeaf(t, got[i], want[i], func(g, w Value) {
			if b, ok := w.([]byte); ok {
				if !bytes.Equal(g.([]byte), b) {
					t.Fatalf("reply %d: bytes % x, want % x", i, g, b)
				}
				return
			}
			if g != w {
				t.Fatalf("reply %d: %v (%T), want %v (%T)", i, g, g, w, w)
			}
			keys[g] = true
		})
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("reply %d: DeepEqual fails:\n%v\nwant\n%v", i, got[i], want[i])
		}
		if g, w := fmt.Sprint(got[i]), fmt.Sprint(want[i]); g != w {
			t.Fatalf("reply %d prints %s, want %s", i, g, w)
		}
	}
	for i := range want {
		eachLeaf(t, want[i], want[i], func(w, _ Value) {
			if _, ok := w.([]byte); !ok && !keys[w] {
				t.Fatalf("reply %d: %v is not a key of the decoded values", i, w)
			}
		})
	}
}

// eachLeaf walks a decoded value beside the value encoded and calls fn
// on each pair of leaves, a byte buffer counting as one leaf.
func eachLeaf(t *testing.T, got, want Value, fn func(g, w Value)) {
	t.Helper()
	ws, ok := want.([]Value)
	if !ok {
		fn(got, want)
		return
	}
	gs, ok := got.([]Value)
	if !ok || len(gs) != len(ws) {
		t.Fatalf("decoded %v (%T), want %v", got, got, want)
	}
	for i := range ws {
		eachLeaf(t, gs[i], ws[i], fn)
	}
}

// TestSlabKindsKeepTheirTypes decodes every slab kind inside a struct,
// a sequence and an array, on every codec: each value comes back with
// its own dynamic type (a PortName is not a uint32, an enum is an
// int32) and its value, at every packed offset.
func TestSlabKindsKeepTheirTypes(t *testing.T) {
	f, err := corba.Parse("kinds.idl", `
		enum color { red, green, blue };
		struct kinds {
			long i32; unsigned long u32; long long i64; float f32;
			unsigned long long u64; double f64; Object port; color c; boolean b;
		};
		typedef Object ports[3];
		interface K {
			kinds all();
			sequence<float> floats();
			ports names();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("K"), pres.StyleCORBA)
	replies := map[string][]Value{
		"all": {int32(-300), uint32(70000), int64(-1 << 40), float32(1.5),
			uint64(1 << 63), -2.25, PortName(4242), int32(2), true},
		"floats": {float32(0.25), float32(-7), float32(1e30)},
		"names":  {PortName(300), PortName(301), PortName(1 << 31)},
	}
	for _, codec := range []Codec{XDRCodec, CDRCodec, CDRCodecLE} {
		plan, err := NewPlan(p, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range replies {
			op := plan.Ops[plan.OpIndex(name)]
			enc := codec.NewEncoder()
			if err := op.EncodeReply(enc, nil, want); err != nil {
				t.Fatal(err)
			}
			_, ret, err := op.DecodeReply(plan.NewDecoder(enc.Bytes()), nil, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", codec.Name(), name, err)
			}
			for i, g := range ret.([]Value) {
				if g != want[i] {
					t.Errorf("%s %s[%d] = %v (%T), want %v (%T)", codec.Name(), name, i, g, g, want[i], want[i])
				}
			}
		}
	}
}
