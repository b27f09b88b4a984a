package runtime

import (
	"testing"
	"testing/quick"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// Failure-injection tests: a decoder fed arbitrary or truncated
// bytes must return an error, never panic and never loop — the
// property a network-facing unmarshaler lives or dies by.

func richPres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("r.idl", `
		struct item { long id; string name; sequence<long> scores; };
		struct pt { long x; double y; };
		typedef pt path[3];
		typedef unsigned long bits[5];
		struct shape { pt origin; path hops; bits flags; string label; boolean on; };
		struct tails { long a; string s; long b; sequence<octet> data; string t; double d; };
		interface R {
			item mix(in item a, in sequence<octet> b, in string c,
			         in double d, in boolean e, in Object p);
			sequence<octet> blob(in unsigned long n);
			shape reshape(in shape s);
			tails tails(in tails x);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("R"), pres.StyleCORBA)
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	p := richPres(t)
	for _, codec := range []Codec{XDRCodec, CDRCodec} {
		plan, err := NewPlan(p, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := func(body []byte, opIdx uint8) bool {
			op := plan.Ops[int(opIdx)%len(plan.Ops)]
			// Errors are fine; panics fail the test via quick.
			_, _ = op.DecodeRequest(codec.NewDecoder(body))
			_, _, _ = op.DecodeReply(codec.NewDecoder(body), nil, nil)
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
	}
}

func TestDecodeTruncatedValidMessages(t *testing.T) {
	// Encode a valid request, then decode every prefix of it: each
	// must either succeed (full length) or error cleanly.
	p := richPres(t)
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := plan.Ops[plan.OpIndex("mix")]
	item := []Value{int32(1), "widget", []Value{int32(9), int32(8)}}
	args := []Value{item, []byte("payload"), "text", 2.5, true, PortName(7)}
	enc := XDRCodec.NewEncoder()
	if err := op.EncodeRequest(enc, args); err != nil {
		t.Fatal(err)
	}
	wire := enc.Bytes()
	for n := 0; n < len(wire); n++ {
		if _, err := op.DecodeRequest(XDRCodec.NewDecoder(wire[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(wire))
		}
	}
	if _, err := op.DecodeRequest(XDRCodec.NewDecoder(wire)); err != nil {
		t.Fatalf("full message failed: %v", err)
	}
}

func TestServeMessageRandomBodies(t *testing.T) {
	// The dispatcher must answer every garbage request with a
	// well-formed error reply.
	p := richPres(t)
	d := NewDispatcher(p)
	d.Handle("mix", func(c *Call) error {
		c.SetResult(c.Arg(0))
		return nil
	})
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(body []byte, opIdx int8) bool {
		enc := XDRCodec.NewEncoder()
		d.ServeMessage(plan, int(opIdx), body, enc)
		// The reply must always carry a decodable status word.
		dec := XDRCodec.NewDecoder(enc.Bytes())
		status, err := dec.Uint32()
		if err != nil {
			return false
		}
		if status != replyOK {
			_, err := dec.String()
			return err == nil // error replies carry a message
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqLengthBombRejected(t *testing.T) {
	// A declared sequence length of ~2^31 must not cause a huge
	// allocation: the codec's length limit rejects it first.
	p := richPres(t)
	plan, _ := NewPlan(p, XDRCodec, nil)
	op := plan.Ops[plan.OpIndex("blob")]
	enc := XDRCodec.NewEncoder()
	enc.PutUint32(0x7fffffff) // absurd declared byte count
	if _, _, err := op.DecodeReply(XDRCodec.NewDecoder(enc.Bytes()), nil, nil); err == nil {
		t.Fatal("length bomb decoded without error")
	}
}

func TestSeqElementCountBomb(t *testing.T) {
	// A sequence-of-struct with a huge declared element count must
	// be rejected before allocating the element slice.
	f, err := corba.Parse("s.idl", `
		struct pt { long x; };
		interface S { void op(in sequence<pt> ps); };`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("S"), pres.StyleCORBA)
	plan, _ := NewPlan(p, XDRCodec, nil)
	enc := XDRCodec.NewEncoder()
	enc.PutUint32(50 << 20) // 50M elements declared, no data
	if _, err := plan.Ops[0].DecodeRequest(XDRCodec.NewDecoder(enc.Bytes())); err == nil {
		t.Fatal("element-count bomb decoded without error")
	}
}
