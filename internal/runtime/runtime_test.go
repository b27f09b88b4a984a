package runtime

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
)

// testIface compiles a small interface exercising every value kind.
func testIface(t *testing.T) *ir.Interface {
	t.Helper()
	f, err := corba.Parse("test.idl", `
		typedef octet md5[16];
		enum mood { fine, grumpy };
		struct item { long id; string name; sequence<long> scores; };
		interface Kitchen {
			sequence<octet> read(in unsigned long count);
			void write(in sequence<octet> data);
			item describe(in item base, in md5 sum, in mood m, in double w,
			              in boolean b, in long long big, in Object port);
			unsigned long status();
			oneway void poke(in long x);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	return f.Interface("Kitchen")
}

func testPres(t *testing.T) *pres.Presentation {
	return pres.Default(testIface(t), pres.StyleCORBA)
}

// checkValue is how a Value meets its wire type: the encode of its
// bind-time program is the one checker.
func checkValue(t *ir.Type, v Value) error {
	return new(Plan).encode(XDRCodec.NewEncoder(), program(t, LandOwn), v)
}

func TestCheckValue(t *testing.T) {
	cases := []struct {
		t  *ir.Type
		v  Value
		ok bool
	}{
		{ir.Int32Type, int32(5), true},
		{ir.Int32Type, int64(5), false},
		{ir.BytesType, []byte("x"), true},
		{ir.BytesType, "x", false},
		{ir.StringType, "x", true},
		{&ir.Type{Kind: ir.FixedBytes, Size: 4}, []byte("abcd"), true},
		{&ir.Type{Kind: ir.FixedBytes, Size: 4}, []byte("abc"), false},
		{ir.SeqOf(ir.Int32Type), []Value{int32(1), int32(2)}, true},
		{ir.SeqOf(ir.Int32Type), []Value{int32(1), "x"}, false},
		{ir.PortType, PortName(3), true},
		{ir.VoidType, nil, true},
		{ir.VoidType, int32(0), false},
	}
	for i, c := range cases {
		err := checkValue(c.t, c.v)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, ok = %v", i, err, c.ok)
		}
	}
}

func TestZeroValuesCheck(t *testing.T) {
	iface := testIface(t)
	for _, op := range iface.Ops {
		for _, p := range op.Params {
			if err := checkValue(p.Type, ZeroValue(p.Type)); err != nil {
				t.Errorf("%s.%s: zero value invalid: %v", op.Name, p.Name, err)
			}
		}
	}
}

func TestCopyValueIsDeep(t *testing.T) {
	st := &ir.Type{Kind: ir.Struct, Fields: []ir.Field{
		{Name: "b", Type: ir.BytesType},
		{Name: "s", Type: ir.SeqOf(ir.BytesType)},
	}}
	orig := []Value{[]byte("abc"), []Value{[]byte("xyz")}}
	v, err := CopyValue(st, orig)
	if err != nil {
		t.Fatal(err)
	}
	cp := v.([]Value)
	orig[0].([]byte)[0] = 'Z'
	orig[1].([]Value)[0].([]byte)[0] = 'Z'
	if cp[0].([]byte)[0] != 'a' || cp[1].([]Value)[0].([]byte)[0] != 'x' {
		t.Fatal("CopyValue shared storage with the original")
	}
}

// roundTrip runs one op through encode-request/decode-request and
// encode-reply/decode-reply under both codecs.
func roundTripOp(t *testing.T, codec Codec) {
	t.Helper()
	p := testPres(t)
	plan, err := NewPlan(p, codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := plan.Ops[plan.OpIndex("describe")]

	item := []Value{int32(7), "fork", []Value{int32(1), int32(2), int32(3)}}
	sum := bytes.Repeat([]byte{0xAA}, 16)
	args := []Value{item, sum, int32(1), 3.25, true, int64(-9e12), PortName(42)}

	enc := codec.NewEncoder()
	if err := op.EncodeRequest(enc, args); err != nil {
		t.Fatal(err)
	}
	got, err := op.DecodeRequest(codec.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gi := got[0].([]Value)
	if gi[0].(int32) != 7 || gi[1].(string) != "fork" || len(gi[2].([]Value)) != 3 {
		t.Fatalf("item = %+v", gi)
	}
	if !bytes.Equal(got[1].([]byte), sum) || got[2].(int32) != 1 ||
		got[3].(float64) != 3.25 || got[4].(bool) != true ||
		got[5].(int64) != int64(-9e12) || got[6].(PortName) != 42 {
		t.Fatalf("args = %+v", got)
	}

	// Reply: result is an item struct.
	outs := make([]Value, len(op.Op.Params))
	ret := []Value{int32(9), "spoon", []Value{}}
	enc2 := codec.NewEncoder()
	if err := op.EncodeReply(enc2, outs, ret); err != nil {
		t.Fatal(err)
	}
	_, gret, err := op.DecodeReply(codec.NewDecoder(enc2.Bytes()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gr := gret.([]Value)
	if gr[0].(int32) != 9 || gr[1].(string) != "spoon" || len(gr[2].([]Value)) != 0 {
		t.Fatalf("ret = %+v", gr)
	}
}

func TestPlanRoundTripXDR(t *testing.T) { roundTripOp(t, XDRCodec) }
func TestPlanRoundTripCDR(t *testing.T) { roundTripOp(t, CDRCodec) }

func TestDecodeReplyIntoCallerBuffer(t *testing.T) {
	// With [alloc(caller)] on the result, DecodeReply lands the
	// bytes in the caller's buffer instead of allocating.
	p := testPres(t)
	p.Op("read").Result().Alloc = pres.AllocCaller
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := plan.Ops[plan.OpIndex("read")]

	enc := XDRCodec.NewEncoder()
	payload := []byte("landed in caller buffer")
	if err := op.EncodeReply(enc, make([]Value, 1), payload); err != nil {
		t.Fatal(err)
	}
	retBuf := make([]byte, 64)
	_, ret, err := op.DecodeReply(XDRCodec.NewDecoder(enc.Bytes()), nil, retBuf)
	if err != nil {
		t.Fatal(err)
	}
	got := ret.([]byte)
	if &got[0] != &retBuf[0] {
		t.Fatal("result did not land in the caller's buffer")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestDefaultDecodeAllocatesFreshStorage(t *testing.T) {
	// Without alloc(caller), the stub must hand the consumer
	// storage it owns (move semantics), not a window into the
	// transport buffer.
	p := testPres(t)
	plan, _ := NewPlan(p, XDRCodec, nil)
	op := plan.Ops[plan.OpIndex("read")]
	enc := XDRCodec.NewEncoder()
	if err := op.EncodeReply(enc, make([]Value, 1), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	wire := enc.Bytes()
	_, ret, err := op.DecodeReply(XDRCodec.NewDecoder(wire), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire[5] ^= 0xFF // corrupt the transport buffer afterwards
	if string(ret.([]byte)) != "hello" {
		t.Fatal("decoded bytes alias the transport buffer under move semantics")
	}
}

type testHooks struct {
	encoded, decoded int
}

func (h *testHooks) EncodeSpecial(op, param string, enc Encoder, v Value) error {
	h.encoded++
	enc.PutBytes(v.([]byte))
	return nil
}

func (h *testHooks) DecodeSpecial(op, param string, dec Decoder) (Value, error) {
	h.decoded++
	b, err := dec.Bytes()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

func TestSpecialHooksInvoked(t *testing.T) {
	p := testPres(t)
	p.Op("write").Param("data").Special = true
	hooks := &testHooks{}
	plan, err := NewPlan(p, XDRCodec, hooks)
	if err != nil {
		t.Fatal(err)
	}
	op := plan.Ops[plan.OpIndex("write")]
	enc := XDRCodec.NewEncoder()
	if err := op.EncodeRequest(enc, []Value{[]byte("abc")}); err != nil {
		t.Fatal(err)
	}
	args, err := op.DecodeRequest(XDRCodec.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hooks.encoded != 1 || hooks.decoded != 1 {
		t.Fatalf("hooks = %+v", hooks)
	}
	if string(args[0].([]byte)) != "abc" {
		t.Fatalf("args = %+v", args)
	}
}

func TestSpecialWithoutHooksRejectedAtPlanTime(t *testing.T) {
	p := testPres(t)
	p.Op("write").Param("data").Special = true
	if _, err := NewPlan(p, XDRCodec, nil); err == nil || !strings.Contains(err.Error(), "special") {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeRequestTypeErrors(t *testing.T) {
	plan, _ := NewPlan(testPres(t), XDRCodec, nil)
	op := plan.Ops[plan.OpIndex("write")]
	enc := XDRCodec.NewEncoder()
	if err := op.EncodeRequest(enc, []Value{"not bytes"}); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if err := op.EncodeRequest(enc, nil); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestDecodeErrorsOnTruncation(t *testing.T) {
	plan, _ := NewPlan(testPres(t), XDRCodec, nil)
	op := plan.Ops[plan.OpIndex("describe")]
	if _, err := op.DecodeRequest(XDRCodec.NewDecoder([]byte{0, 0})); err == nil {
		t.Fatal("truncated request should fail")
	}
}

// loopConn is an in-process byte-level transport looping requests
// through a dispatcher — the minimal runtime.Conn.
type loopConn struct {
	disp *Dispatcher
	plan *Plan
}

func (l *loopConn) Call(opIdx int, req []byte, replyBuf []byte) ([]byte, error) {
	enc := l.plan.Codec.NewEncoder()
	l.disp.ServeMessage(l.plan, opIdx, req, enc)
	out := replyBuf
	if cap(out) < len(enc.Bytes()) {
		out = make([]byte, len(enc.Bytes()))
	}
	out = out[:len(enc.Bytes())]
	copy(out, enc.Bytes())
	return out, nil
}

func (l *loopConn) Close() error { return nil }

func newLoop(t *testing.T, serverPres *pres.Presentation) (*Client, *Dispatcher) {
	t.Helper()
	disp := NewDispatcher(serverPres)
	plan, err := NewPlan(serverPres, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(testPres(t), XDRCodec, &loopConn{disp: disp, plan: plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return client, disp
}

func TestClientDispatcherEndToEnd(t *testing.T) {
	client, disp := newLoop(t, testPres(t))
	store := []byte("0123456789")
	disp.Handle("read", func(c *Call) error {
		count := c.Arg(0).(uint32)
		out := make([]byte, count)
		copy(out, store)
		c.SetResult(out)
		return nil
	})
	disp.Handle("status", func(c *Call) error {
		c.SetResult(uint32(7))
		return nil
	})

	_, ret, err := client.Invoke("read", []Value{uint32(4)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(ret.([]byte)) != "0123" {
		t.Fatalf("read = %q", ret)
	}
	_, ret, err = client.Invoke("status", []Value{}, nil, nil)
	if err != nil || ret.(uint32) != 7 {
		t.Fatalf("status = %v, %v", ret, err)
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	client, disp := newLoop(t, testPres(t))
	disp.Handle("read", func(c *Call) error {
		return errors.New("disk on fire")
	})
	_, _, err := client.Invoke("read", []Value{uint32(1)}, nil, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "disk on fire") {
		t.Fatalf("err = %v", err)
	}
	// Unregistered op.
	_, _, err = client.Invoke("write", []Value{[]byte("x")}, nil, nil)
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no handler") {
		t.Fatalf("err = %v", err)
	}
	// Unknown op fails client-side.
	if _, _, err := client.Invoke("nosuch", nil, nil, nil); err == nil {
		t.Fatal("unknown op should fail")
	}
}

func TestMessageArgsAlwaysPrivate(t *testing.T) {
	client, disp := newLoop(t, testPres(t))
	disp.Handle("write", func(c *Call) error {
		if !c.ArgPrivate(0) {
			t.Error("message-transport args must be private")
		}
		return nil
	})
	if _, _, err := client.Invoke("write", []Value{[]byte("abc")}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResultMoved(t *testing.T) {
	p := testPres(t)
	d := NewDispatcher(p)
	call := acquireFrame().begin(nil, d, d.mustIndex("read"))
	if !call.ResultMoved() {
		t.Fatal("default CORBA result should be move semantics")
	}
	p2 := testPres(t)
	p2.Op("read").Result().Dealloc = pres.DeallocNever
	d2 := NewDispatcher(p2)
	call2 := acquireFrame().begin(nil, d2, d2.mustIndex("read"))
	if call2.ResultMoved() {
		t.Fatal("dealloc(never) result must not be moved")
	}
}

// Property: both codecs round-trip arbitrary read/write payloads
// bit-exactly through the full plan path.
func TestQuickPlanRoundTrip(t *testing.T) {
	p := testPres(t)
	for _, codec := range []Codec{XDRCodec, CDRCodec} {
		plan, err := NewPlan(p, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		op := plan.Ops[plan.OpIndex("write")]
		f := func(data []byte) bool {
			enc := codec.NewEncoder()
			if err := op.EncodeRequest(enc, []Value{data}); err != nil {
				return false
			}
			args, err := op.DecodeRequest(codec.NewDecoder(enc.Bytes()))
			if err != nil {
				return false
			}
			got := args[0].([]byte)
			return bytes.Equal(got, data) || (len(data) == 0 && len(got) == 0)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
	}
}

// Property: the wire bytes produced for a request do not depend on
// presentation attributes (the network contract is
// presentation-independent).
func TestQuickWireIndependentOfPresentation(t *testing.T) {
	base := testPres(t)
	mod := testPres(t)
	mod.Op("write").Param("data").Trashable = true
	mod.Op("read").Result().Dealloc = pres.DeallocNever
	mod.Op("read").Result().Alloc = pres.AllocCaller
	mod.Trust = pres.TrustFull

	p1, _ := NewPlan(base, XDRCodec, nil)
	p2, _ := NewPlan(mod, XDRCodec, nil)
	f := func(data []byte) bool {
		e1 := XDRCodec.NewEncoder()
		e2 := XDRCodec.NewEncoder()
		if err := p1.Ops[p1.OpIndex("write")].EncodeRequest(e1, []Value{data}); err != nil {
			return false
		}
		if err := p2.Ops[p2.OpIndex("write")].EncodeRequest(e2, []Value{data}); err != nil {
			return false
		}
		return bytes.Equal(e1.Bytes(), e2.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnewayReturnsNothing(t *testing.T) {
	client, disp := newLoop(t, testPres(t))
	called := false
	disp.Handle("poke", func(c *Call) error {
		called = true
		return nil
	})
	outs, ret, err := client.Invoke("poke", []Value{int32(1)}, nil, nil)
	if err != nil || outs != nil || ret != nil {
		t.Fatalf("oneway = %v, %v, %v", outs, ret, err)
	}
	if !called {
		t.Fatal("handler not invoked")
	}
}

func TestInOutParameters(t *testing.T) {
	f, err := corba.Parse("io.idl", `
		interface Acc {
			void bump(inout long counter, inout sequence<octet> tag);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("Acc"), pres.StyleCORBA)
	disp := NewDispatcher(p)
	disp.Handle("bump", func(c *Call) error {
		c.SetOut(0, c.Arg(0).(int32)+1)
		tag := append([]byte(nil), c.ArgBytes(1)...)
		tag = append(tag, '!')
		c.SetOut(1, tag)
		return nil
	})
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(p, XDRCodec, &loopConn{disp: disp, plan: plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs, ret, err := client.Invoke("bump", []Value{int32(41), []byte("v")}, nil, nil)
	if err != nil || ret != nil {
		t.Fatalf("invoke = %v, %v", ret, err)
	}
	if outs[0].(int32) != 42 {
		t.Fatalf("counter = %v", outs[0])
	}
	if string(outs[1].([]byte)) != "v!" {
		t.Fatalf("tag = %q", outs[1])
	}
}

func TestCDRLittleEndianCodec(t *testing.T) {
	if CDRCodecLE.Name() != "cdr-le" {
		t.Fatal("name")
	}
	roundTripOp(t, CDRCodecLE)
	// The two CDR orders must produce different wire bytes for
	// multi-byte values but identical decoded results.
	p := testPres(t)
	be, _ := NewPlan(p, CDRCodec, nil)
	le, _ := NewPlan(p, CDRCodecLE, nil)
	args := []Value{uint32(0x01020304)}
	e1 := CDRCodec.NewEncoder()
	e2 := CDRCodecLE.NewEncoder()
	if err := be.Ops[be.OpIndex("read")].EncodeRequest(e1, args); err != nil {
		t.Fatal(err)
	}
	if err := le.Ops[le.OpIndex("read")].EncodeRequest(e2, args); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Fatal("byte orders should differ on the wire")
	}
}
