package runtime

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"
	"unsafe"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
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

// tailLengths are the tail sizes the tail tests cover: 0 and 1, each
// class size up to 4 KiB and one past it, and one over 3 MiB, so that
// each of three fields holds more than 1 MiB.
func tailLengths() []int {
	ns := []int{0, 1}
	for n := 1; n <= 4096; n++ {
		if _, size := tailClass(n); size == n {
			ns = append(ns, n, n+1)
		}
	}
	return append(ns, 3<<20+5)
}

// TestSlabTailsSurviveGC decodes strings and owned byte buffers of
// every tail length, on XDR and CDR: in a struct that holds two
// strings, an owned sequence<octet> and a sequence<long>, and as a
// top-level string and a top-level owned buffer. Of every struct it
// keeps the second string, and of every other struct only that string,
// so the rest of that block is unreachable but for the string's
// interior pointer. It then overwrites
// the messages and collects garbage several times, and every kept value
// must still read as encoded. Under -race, checkptr also checks every
// tail pointer the decode builds.
func TestSlabTailsSurviveGC(t *testing.T) {
	f, err := corba.Parse("tails.idl", `
		struct rec { string a; sequence<octet> data; unsigned long n; string b; sequence<long> ids; };
		interface Tails {
			rec get();
			string str();
			sequence<octet> buf();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("Tails"), pres.StyleCORBA)
	text := func(n, seed int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + (i*7+seed)%26)
		}
		return string(b)
	}
	type kept struct {
		what      string
		got, want Value
	}
	var keep []kept
	var msgs [][]byte
	for _, codec := range []Codec{XDRCodec, CDRCodec} {
		plan, err := NewPlan(p, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec := plan.NewDecoder(nil)
		decode := func(op string, v Value) Value {
			enc := codec.NewEncoder()
			if err := plan.Ops[plan.OpIndex(op)].EncodeReply(enc, nil, v); err != nil {
				t.Fatal(err)
			}
			msg := enc.Bytes()
			msgs = append(msgs, msg)
			dec.Reset(msg)
			_, ret, err := plan.Ops[plan.OpIndex(op)].DecodeReply(dec, nil, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", codec.Name(), op, err)
			}
			return ret
		}
		for i, n := range tailLengths() {
			// The struct's tail is a, data and b: n bytes in all.
			a, b := text(n/3, i), text(n-n/3-n/3, i+1)
			rec := []Value{a, []byte(text(n/3, i+2)), uint32(n), b, []Value{int32(i), int32(-i)}}
			got := decode("get", rec)
			what := fmt.Sprintf("%s get(%d)", codec.Name(), n)
			keep = append(keep, kept{what + ".b", got.([]Value)[3], b})
			if i%2 == 0 {
				keep = append(keep, kept{what, got, rec})
			}
			keep = append(keep,
				kept{fmt.Sprintf("%s str(%d)", codec.Name(), n), decode("str", text(n, i)), text(n, i)},
				kept{fmt.Sprintf("%s buf(%d)", codec.Name(), n), decode("buf", []byte(text(n, i+3))), []byte(text(n, i+3))})
		}
	}
	for _, m := range msgs {
		for i := range m {
			m[i] = 0xa5
		}
	}
	for i := 0; i < 4; i++ {
		goruntime.GC()
		garbage := make([][]byte, 1000)
		for j := range garbage {
			garbage[j] = make([]byte, 24+j%200)
			garbage[j][0] = 0xff
		}
	}
	for _, k := range keep {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Fatalf("%s decodes to %q, want %q", k.what, k.got, k.want)
		}
		eachLeaf(t, k.got, k.want, func(g, _ Value) {
			switch v := g.(type) {
			case string:
				if len(v) == 0 && unsafe.StringData(v) != nil {
					t.Errorf("%s: an empty string points into its block", k.what)
				}
			case []byte:
				if cap(v) != len(v) {
					t.Errorf("%s: a %d-byte buffer has capacity %d: an append would overwrite the tail after it", k.what, len(v), cap(v))
				}
				if v == nil {
					t.Errorf("%s: an owned empty buffer decodes as nil", k.what)
				}
			}
		})
	}
}

// TestTailClasses checks the tail classes' bound: a class holds its
// tail, wastes no more than the word rounding or 12.5% of itself, and
// its index stays inside a shape's table.
func TestTailClasses(t *testing.T) {
	last := -1
	for n := 0; n <= 1<<16; n++ {
		c, size := tailClass(n)
		if size < n || c < last || c >= tailClasses {
			t.Fatalf("tail %d: class %d of %d bytes (previous class %d)", n, c, size, last)
		}
		if waste := size - n; waste >= 8 && waste*8 > size {
			t.Fatalf("tail %d: class of %d bytes wastes %d", n, size, waste)
		}
		last = c
	}
	if c, _ := tailClass(1 << 62); c >= tailClasses {
		t.Fatalf("a 1<<62-byte tail has class %d, past the table's %d", c, tailClasses)
	}
}

// TestTailStringsMetered: a string copied out of the message into its
// block's tail is metered as a copy into a fresh allocation, exactly as
// an owned byte buffer is.
func TestTailStringsMetered(t *testing.T) {
	plan, err := NewPlan(attrPres(t), XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := stats.New(nil)
	plan.SetStats(e)
	op := plan.Ops[plan.OpIndex("getattr")]
	name := "a-17-byte-name-xy"
	attr := []Value{uint32(1), uint32(2), uint32(3), uint32(4), uint64(5), uint64(6), uint64(7), uint64(8),
		uint32(9), uint32(10), int64(11), int64(12), int64(13), false, 1.5, name}
	enc := XDRCodec.NewEncoder()
	if err := op.EncodeReply(enc, nil, attr); err != nil {
		t.Fatal(err)
	}
	copied, alloced := e.Copy.Snapshot().Bytes, e.Alloc.Snapshot().Bytes
	if _, _, err := op.DecodeReply(plan.NewDecoder(enc.Bytes()), nil, nil); err != nil {
		t.Fatal(err)
	}
	if c, a := e.Copy.Snapshot().Bytes-copied, e.Alloc.Snapshot().Bytes-alloced; c != uint64(len(name)) || a != uint64(len(name)) {
		t.Fatalf("decoding a %d-byte name meters copy %d, alloc %d; want %d, %d", len(name), c, a, len(name), len(name))
	}
}

// TestMalformedBlockZeroAllocs: a struct whose string claims more bytes
// than the message holds fails in phase 1, before its block exists, so
// the failed decode allocates nothing, on XDR and CDR.
func TestMalformedBlockZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	for _, codec := range []Codec{XDRCodec, CDRCodec} {
		plan, err := NewPlan(attrPres(t), codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		op := plan.Ops[plan.OpIndex("getattr")]
		attr := []Value{uint32(1), uint32(2), uint32(3), uint32(4), uint64(5), uint64(6), uint64(7), uint64(8),
			uint32(9), uint32(10), int64(11), int64(12), int64(13), false, 1.5, "name"}
		enc := codec.NewEncoder()
		if err := op.EncodeReply(enc, nil, attr); err != nil {
			t.Fatal(err)
		}
		msg := enc.Bytes()
		// The name's length word is the last but its bytes: claim 1000.
		at := len(msg) - 8
		if codec != XDRCodec {
			at = len(msg) - 9 // "name" and its NUL, after the length word
		}
		copy(msg[at:], []byte{0, 0, 3, 232})
		dec := plan.NewDecoder(nil)
		dec.Reset(msg)
		if _, err := plan.decode(dec, op.repDec[0].prog); err == nil {
			t.Fatalf("%s: a 1000-byte name in a %d-byte message decodes", codec.Name(), len(msg))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			dec.Reset(msg)
			_, _ = plan.decode(dec, op.repDec[0].prog)
		}); allocs != 0 {
			t.Errorf("%s: a malformed attr allocates %.1f times, want 0", codec.Name(), allocs)
		}
	}
}

// TestSlabSmallScalarsFirstUse boxes every scalar below 2^16 in order,
// and some above, from eight goroutines at once, each cycling through
// the non-bool leaf kinds from a different one, so that the first run
// in a process races the goroutines to fill each page no earlier test
// boxed into. Each Value must equal Go's own box of the same value, by
// type and value, as soon as it is boxed and after the collector runs.
// Under -race, a goroutine that finds a page ready reads words another
// filled, so a page published before its words are written fails; and
// checkptr checks every pointer into the table.
func TestSlabSmallScalarsFirstUse(t *testing.T) {
	const goroutines = 8
	kinds := []leafKind{leafInt32, leafUint32, leafFloat32, leafPort, leafEnum, leafInt64, leafUint64, leafFloat64}
	// sample is goroutine g's i'th kind and bits, and Go's own box of them.
	sample := func(g, i int) (leafKind, uint64, Value) {
		k, w := kinds[(i+g)%len(kinds)], uint64(i)
		if i >= 1<<16 {
			w = 1<<16 + uint64(i)*12345 // boxed on the heap
		}
		switch k {
		case leafInt32, leafEnum:
			return k, w, int32(uint32(w))
		case leafUint32:
			return k, w, uint32(w)
		case leafFloat32:
			return k, w, math.Float32frombits(uint32(w))
		case leafPort:
			return k, w, PortName(w)
		case leafInt64:
			return k, w, int64(w)
		case leafUint64:
			return k, w, w
		}
		return k, w, math.Float64frombits(w)
	}
	kept := make([][]Value, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vs := make([]Value, 1<<16+64)
			for i := range vs {
				// leafBits reads the word in instrumented code, where
				// an interface comparison reads it in the Go runtime.
				k, w, want := sample(g, i)
				if vs[i] = boxScalar(k, w); vs[i] != want || !sameBits(k, &vs[i], w) {
					t.Errorf("kind %d bits %#x boxes as %v (%T), want %v (%T)", k, w, vs[i], vs[i], want, want)
					return
				}
			}
			kept[g] = vs
		}()
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		goruntime.GC()
	}
	for g, vs := range kept {
		for i, v := range vs {
			if k, w, want := sample(g, i); v != want {
				t.Fatalf("after GC: kind %d bits %#x boxes as %v (%T), want %v (%T)", k, w, v, v, want, want)
			}
		}
	}
	for w, want := range []Value{false, true} {
		if v := boxScalar(leafBool, uint64(w)); v != want || !sameBits(leafBool, &v, uint64(w)) {
			t.Fatalf("a bool of bits %d boxes as %v (%T)", w, v, v)
		}
	}
}

// sameBits reports whether *v, of kind k, holds the wire bits w.
func sameBits(k leafKind, v *Value, w uint64) bool {
	got, ok := leafBits(k, v)
	return ok && got == w
}
