package runtime

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// FuzzDecodeMessage promotes the quick-check properties in
// robust_test.go to coverage-guided fuzzing: arbitrary bytes fed to
// a compiled plan's request/reply decoders must error cleanly, never
// panic, and never produce oversized values.
func FuzzDecodeMessage(f *testing.F) {
	p := richPres(f)
	plans := make([]*Plan, 0, 2)
	for _, codec := range []Codec{XDRCodec, CDRCodec} {
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
		op := plan.Ops[(int(sel)/2)%len(plan.Ops)]
		_, _ = op.DecodeRequest(plan.NewDecoder(body))
		_, _, _ = op.DecodeReply(plan.NewDecoder(body), nil, nil)
	})
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
