package runtime

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

// FuzzDecodeMessage promotes the quick-check properties in
// robust_test.go to coverage-guided fuzzing: arbitrary bytes fed to
// a compiled plan's request/reply decoders, on every byte order, must
// error cleanly, never panic, and never produce oversized values. A
// request or reply that decodes must re-encode and decode to an equal
// value.
func FuzzDecodeMessage(f *testing.F) {
	p := richPres(f)
	plans := make([]*Plan, 0, 3)
	for _, codec := range []Codec{XDRCodec, CDRCodec, CDRCodecLE} {
		plan, err := NewPlan(p, codec, nil)
		if err != nil {
			f.Fatal(err)
		}
		plans = append(plans, plan)
	}
	// Seed with a valid XDR-encoded mix() request.
	op := plans[0].Ops[plans[0].OpIndex("mix")]
	item := []Value{int32(1), "widget", []Value{int32(9), int32(8)}}
	args := []Value{item, []byte("payload"), "text", 2.5, true, PortName(7)}
	enc := XDRCodec.NewEncoder()
	if err := op.EncodeRequest(enc, args); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), enc.Bytes())
	f.Add(uint8(1), []byte{0x7f, 0xff, 0xff, 0xff})
	f.Add(uint8(2), []byte{})

	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		plan := plans[int(sel)%len(plans)]
		op := plan.Ops[(int(sel)/len(plans))%len(plan.Ops)]
		if args, err := op.DecodeRequest(plan.NewDecoder(body)); err == nil {
			enc := plan.Codec.NewEncoder()
			if err := op.EncodeRequest(enc, args); err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			again, err := op.DecodeRequest(plan.NewDecoder(enc.Bytes()))
			if err != nil || !sameValue(again, args) {
				t.Fatalf("request round trip: %v, %v, want %v", again, err, args)
			}
		}
		if outs, ret, err := op.DecodeReply(plan.NewDecoder(body), nil, nil); err == nil {
			enc := plan.Codec.NewEncoder()
			if err := op.EncodeReply(enc, outs, ret); err != nil {
				t.Fatalf("decoded reply does not re-encode: %v", err)
			}
			outs2, ret2, err := op.DecodeReply(plan.NewDecoder(enc.Bytes()), nil, nil)
			if err != nil || !sameValue(outs2, outs) || !sameValue(ret2, ret) {
				t.Fatalf("reply round trip: %v %v, %v, want %v %v", outs2, ret2, err, outs, ret)
			}
		}
	})
}

// sameValue compares two decoded Values, floats by their bits so that
// a NaN equals itself.
func sameValue(a, b Value) bool {
	switch x := a.(type) {
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	case []Value:
		y, ok := b.([]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return a == b
}

// FuzzServeMessage asserts the dispatcher answers every garbage
// request with a well-formed status word — garbage in, structured
// error out, and the server loop survives.
func FuzzServeMessage(f *testing.F) {
	p := richPres(f)
	d := NewDispatcher(p)
	d.Handle("mix", func(c *Call) error {
		c.SetResult(c.Arg(0))
		return nil
	})
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int8(0), []byte{})
	f.Add(int8(0), []byte{0, 0, 0, 1})
	f.Add(int8(-3), []byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, opIdx int8, body []byte) {
		enc := XDRCodec.NewEncoder()
		d.ServeMessage(plan, int(opIdx), body, enc)
		dec := XDRCodec.NewDecoder(enc.Bytes())
		status, err := dec.Uint32()
		if err != nil {
			t.Fatalf("reply missing status word: %v", err)
		}
		if status != replyOK {
			if _, err := dec.String(); err != nil {
				t.Fatalf("error reply missing message: %v", err)
			}
		}
	})
}

// FuzzPushbackFrame feeds arbitrary bytes to the pushback parser: it
// must never panic, reject everything malformed with ErrCorruptReply,
// and accept only frames that re-encode byte-identically — the
// property that makes the parser's strictness checkable (nothing is
// silently normalized away).
func FuzzPushbackFrame(f *testing.F) {
	f.Add(AppendPushbackFrame(nil, false, 5*time.Millisecond))
	f.Add(AppendPushbackFrame(nil, true, 0))
	f.Add(AppendPushbackFrame(nil, false, time.Hour))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, frame []byte) {
		ra, draining, err := ParsePushbackFrame(frame)
		if err != nil {
			if !errors.Is(err, ErrCorruptReply) {
				t.Fatalf("rejection %v does not wrap ErrCorruptReply", err)
			}
			return
		}
		if re := AppendPushbackFrame(nil, draining, ra); !bytes.Equal(re, frame) {
			t.Fatalf("accepted frame % x re-encodes as % x", frame, re)
		}
	})
}
