package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// TestSlabValuesSurviveGC decodes 1000 getattr replies through one
// reused client decoder and keeps every result. It then overwrites the
// reply buffer and collects garbage several times, and every field
// must still read as the value encoded: by ==, as a map key, under
// reflect.DeepEqual and through fmt. Under -race, checkptr also checks
// every slab pointer the decode builds.
func TestSlabValuesSurviveGC(t *testing.T) {
	const n = 1000
	plan, err := NewPlan(attrPres(t), XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := plan.Ops[plan.OpIndex("getattr")]
	rng := rand.New(rand.NewSource(20261015))
	table := make([][]Value, n)
	for i := range table {
		table[i] = []Value{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(),
			rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(),
			rng.Uint32(), rng.Uint32(), rng.Int63(), -rng.Int63(), rng.Int63(),
			i%2 == 0, rng.NormFloat64(), fmt.Sprintf("file-%d", i)}
	}

	enc, dec := XDRCodec.NewEncoder(), plan.NewDecoder(nil)
	var buf []byte
	got := make([][]Value, n)
	for i, want := range table {
		enc.Reset()
		if err := op.EncodeReply(enc, nil, want); err != nil {
			t.Fatal(err)
		}
		buf = append(buf[:0], enc.Bytes()...)
		dec.Reset(buf)
		_, ret, err := op.DecodeReply(dec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = ret.([]Value)
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
	for i, want := range table {
		for j, w := range want {
			if got[i][j] != w {
				t.Fatalf("reply %d field %d: %v (%T), want %v (%T)", i, j, got[i][j], got[i][j], w, w)
			}
			keys[got[i][j]] = true
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("reply %d: DeepEqual fails:\n%v\nwant\n%v", i, got[i], want)
		}
		if g, w := fmt.Sprint(got[i]), fmt.Sprint(want); g != w {
			t.Fatalf("reply %d prints %s, want %s", i, g, w)
		}
	}
	for i, want := range table {
		for j, w := range want {
			if !keys[w] {
				t.Fatalf("reply %d field %d: %v is not a key of the decoded values", i, j, w)
			}
		}
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
