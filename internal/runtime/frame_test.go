package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// A Frame outlives the call it served — owned by a binding or parked in
// the pool — so whatever a call leaves in it the next call, or the
// collector, inherits. These tests drive every way serve can return and
// check the frame afterwards, by pointer range over every slot's full
// capacity, and through the eyes of the next call's work function.

const reuseIDL = `
	struct rec { unsigned long n; string s; sequence<octet> b; };
	interface Reuse {
		void nop();
		void put(in sequence<octet> data);
		sequence<octet> swap(inout sequence<octet> data, in string tag, out unsigned long sum);
		string label(inout sequence<octet> data, in string tag, out rec r);
		rec record(inout sequence<octet> data, in string tag, out string s);
	};`

// reuseOps are the operations whose work function is reuseServer's:
// each returns a byte buffer, a string or a struct, with an out beside
// it, so every kind of slot a value lands in is exercised.
var reuseOps = []string{"swap", "label", "record"}

func reusePres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("reuse.idl", reuseIDL)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("Reuse"), pres.StyleCORBA)
}

type ctxKey struct{}

// reuseServer's work function does what its tag says. Every variant
// first fills every slot a call has — both outs, the result, an
// AfterReply func — so a frame that is not cleared has something to
// show for it.
type reuseServer struct {
	disp       *Dispatcher
	plan       *Plan
	afterReply int    // AfterReply funcs that ran
	stale      string // what a "witness" call found left over; "" = nothing
}

// reuseValues are what op's work function sets beside the reversed
// data: its second out and its result, built fresh from data so that
// each holds memory of its own.
func reuseValues(op string, data []byte) (out, ret Value) {
	rec := []Value{uint32(len(data)), string(data), append([]byte(nil), data...)}
	switch op {
	case "label":
		return rec, string(data)
	case "record":
		return string(data), rec
	}
	var sum uint32
	for _, b := range data {
		sum += uint32(b)
	}
	return sum, append([]byte(nil), data...)
}

// reuseMistyped is a result op's reply encode fails on.
var reuseMistyped = map[string]Value{"swap": "not bytes", "label": []byte("not a string"), "record": "not a record"}

func newReuseServer(t testing.TB) *reuseServer {
	t.Helper()
	p := reusePres(t)
	s := &reuseServer{disp: NewDispatcher(p)}
	var err error
	if s.plan, err = NewPlan(p, XDRCodec, nil); err != nil {
		t.Fatal(err)
	}
	s.disp.Handle("nop", func(c *Call) error { return nil })
	s.disp.Handle("put", func(c *Call) error { return nil })
	h := func(c *Call) error {
		tag := c.Arg(1).(string)
		if tag == "witness" {
			s.stale = staleIn(c)
		}
		data := c.ArgBytes(0)
		rev := make([]byte, len(data))
		for i, b := range data {
			rev[len(data)-1-i] = b
		}
		out, ret := reuseValues(c.Op.Name, data)
		c.SetOut(0, rev)
		c.SetOut(2, out)
		c.SetResult(ret)
		c.AfterReply(func() { s.afterReply++ })
		switch tag {
		case "panic":
			panic("kaboom")
		case "error":
			return errors.New("refused")
		case "mistyped":
			c.SetResult(reuseMistyped[c.Op.Name]) // the reply encode fails
		case "big":
			_, big := reuseValues(c.Op.Name, make([]byte, 4096)) // outgrows a small arena
			c.SetResult(big)
		}
		return nil
	}
	for _, op := range reuseOps {
		s.disp.Handle(op, h)
	}
	return s
}

// staleIn reports what a work function can see in a Call before it has
// set anything itself.
func staleIn(c *Call) string {
	var found []string
	for i := range c.Op.Params {
		if c.Out(i) != nil {
			found = append(found, fmt.Sprintf("out %d = %v", i, c.Out(i)))
		}
		if c.OutBuffer(i) != nil {
			found = append(found, fmt.Sprintf("out buffer %d", i))
		}
	}
	if c.Result() != nil {
		found = append(found, fmt.Sprintf("result %v", c.Result()))
	}
	if c.ResultBuffer() != nil {
		found = append(found, "result buffer")
	}
	if c.Context() != context.Background() {
		found = append(found, fmt.Sprintf("context %v", c.Context()))
	}
	if len(c.afterReply) != 0 {
		found = append(found, fmt.Sprintf("%d AfterReply funcs", len(c.afterReply)))
	}
	return strings.Join(found, "; ")
}

// body marshals a request for op; the tests' arguments always encode.
func (s *reuseServer) body(op string, args ...Value) []byte {
	enc := XDRCodec.NewEncoder()
	if err := s.plan.Ops[s.plan.OpIndex(op)].EncodeRequest(enc, args); err != nil {
		panic(err)
	}
	return enc.Bytes()
}

func (s *reuseServer) swapBody(data []byte, tag string) []byte {
	return s.body("swap", data, tag, nil)
}

// frameLeaves gathers every byte buffer and string still reachable from
// f: each slot over its full capacity, so a wider call's tail counts,
// and every field of each value slot, whatever its kind says.
func frameLeaves(f *Frame) []leaf {
	c := &f.call
	var out []leaf
	for _, v := range c.in[:cap(c.in)] {
		out = append(out, leaves(v)...)
	}
	outs := c.outs[:cap(c.outs)]
	for i := range outs {
		out = append(out, slotLeaves(&outs[i])...)
	}
	for _, b := range c.inBytes[:cap(c.inBytes)] {
		out = append(out, leaf{b: b})
	}
	for _, b := range c.outBufs[:cap(c.outBufs)] {
		out = append(out, leaf{b: b})
	}
	out = append(out, slotLeaves(&c.ret)...)
	return append(out, leaf{b: c.retBuf})
}

// slotLeaves gathers the byte buffers and strings a value slot holds.
func slotLeaves(s *slot) []leaf {
	out := append(leaves(s.vals), leaf{b: s.byts})
	return append(out, leaves(s.str)...)
}

// checkFrameCleared asserts f references nothing of the call it just
// served: no buffer inside any of regions, no func, context or operation.
func checkFrameCleared(t *testing.T, what string, f *Frame, regions ...[]byte) {
	t.Helper()
	for _, l := range frameLeaves(f) {
		for _, region := range regions {
			if within(l.b, region) {
				t.Errorf("%s: the frame still holds %d bytes of the previous call's memory", what, len(l.b))
			}
		}
		if l.b != nil {
			t.Errorf("%s: the frame still holds a %d-byte buffer", what, len(l.b))
		}
	}
	c := &f.call
	outs := c.outs[:cap(c.outs)]
	for i := range outs {
		checkSlotCleared(t, what, &outs[i])
	}
	checkSlotCleared(t, what, &c.ret)
	for _, fn := range c.afterReply[:cap(c.afterReply)] {
		if fn != nil {
			t.Errorf("%s: the frame still holds an AfterReply func", what)
		}
	}
	for _, private := range c.inPrivate[:cap(c.inPrivate)] {
		if private {
			t.Errorf("%s: the frame still marks an argument private", what)
		}
	}
	if len(c.afterReply) != 0 || c.ctx != nil || c.Op != nil || c.opPres != nil || f.busy {
		t.Errorf("%s: afterReply %d, ctx %v, op %v, busy %v; want a cleared frame", what, len(c.afterReply), c.ctx, c.Op, f.busy)
	}
	if x, ok := f.Decoder.(*xdrDecoder); ok && !reflect.ValueOf(x).Elem().FieldByName("d").FieldByName("buf").IsNil() {
		t.Errorf("%s: the frame's decoder still points at the request", what)
	}
}

// checkSlotCleared asserts a value slot holds nothing: frameLeaves
// sees its buffers, this its kind, scalar and type.
func checkSlotCleared(t *testing.T, what string, s *slot) {
	t.Helper()
	if s.kind != slotNil || s.word[0] != 0 || s.typ != nil {
		t.Errorf("%s: a value slot still holds kind %d, word %#x, type %v", what, s.kind, s.word[0], s.typ)
	}
}

// arenaEncoder returns an encoder aimed at a 32-byte arena, which every
// swap reply outgrows: the reply reallocates into heap storage.
func arenaEncoder() Encoder {
	enc := XDRCodec.NewEncoder()
	enc.ResetArena(make([]byte, 32))
	return enc
}

// A frameScenario is one way a served call can end.
type frameScenario struct {
	name       string
	tag        string // what the work function is asked to do
	truncate   bool   // the request arrives cut inside the tag
	arena      bool   // reply through an arena encoder it outgrows
	afterReply int    // funcs that must have run once the call returns
	rawErr     string
}

func TestFrameClearedOnEveryReturn(t *testing.T) {
	s := newReuseServer(t)
	data := bytes.Repeat([]byte{0xA5}, 600)
	for _, sc := range []frameScenario{
		{name: "ok", tag: "fine", afterReply: 1},
		{name: "handler panics", tag: "panic", rawErr: "panicked"},
		{name: "handler fails", tag: "error", rawErr: "refused"},
		{name: "decode fails after the first argument", tag: "tag-lost-in-transit", truncate: true, rawErr: "param tag"},
		{name: "reply encode fails", tag: "mistyped", afterReply: 1, rawErr: "result"},
		{name: "oversize reply", tag: "big", arena: true, afterReply: 1},
	} {
		for _, framed := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/framed=%v", sc.name, framed), func(t *testing.T) {
				for _, op := range reuseOps {
					body := s.body(op, data, sc.tag, nil)
					if sc.truncate {
						body = body[:4+len(data)+2] // data arrives whole, tag's length word does not
					}
					clearedAcrossCalls(t, s, op, body, sc, framed)
				}
			})
		}
	}
}

// clearedAcrossCalls serves body as op on a fresh frame, then a
// narrower call and a witness swap on the same frame, and checks the
// frame after each.
func clearedAcrossCalls(t *testing.T, s *reuseServer, op string, body []byte, sc frameScenario, framed bool) {
	t.Helper()
	f := NewFrame()
	enc := XDRCodec.NewEncoder()
	if sc.arena {
		enc = arenaEncoder()
	}
	ctx := context.WithValue(context.Background(), ctxKey{}, t.Name())
	s.afterReply = 0
	if idx := s.plan.OpIndex(op); framed {
		f.ServeMessage(s.disp, s.plan, idx, body, enc)
		dec := XDRCodec.NewDecoder(enc.Bytes())
		if status, _ := dec.Uint32(); (status == replyOK) != (sc.rawErr == "") {
			t.Fatalf("%s: status %d, want failure=%v", op, status, sc.rawErr != "")
		}
	} else {
		err := f.ServeMessageRawContext(ctx, s.disp, s.plan, idx, body, enc)
		if (err == nil) != (sc.rawErr == "") || (err != nil && !strings.Contains(err.Error(), sc.rawErr)) {
			t.Fatalf("%s: err = %v, want %q", op, err, sc.rawErr)
		}
	}
	want := sc.afterReply
	if !framed && sc.rawErr != "" {
		want = 0 // the raw path reports a failed marshal without reaching the deallocation point
	}
	if s.afterReply != want {
		t.Fatalf("%s: %d AfterReply funcs ran, want %d", op, s.afterReply, want)
	}
	checkFrameCleared(t, op+": after the call", f, body, enc.Bytes())

	// The next call on the same frame, a narrower operation then a
	// swap, sees only its own request.
	put, next := s.body("put", []byte("next")), XDRCodec.NewEncoder()
	f.ServeMessage(s.disp, s.plan, s.plan.OpIndex("put"), put, next)
	checkFrameCleared(t, op+": after a narrower call", f, body, put)

	s.stale, s.afterReply = "unset", 0
	swap, witness := s.plan.OpIndex("swap"), s.swapBody([]byte("fresh"), "witness")
	next.Reset()
	if err := f.ServeMessageRawContext(nil, s.disp, s.plan, swap, witness, next); err != nil {
		t.Fatal(err)
	}
	if s.stale != "" {
		t.Fatalf("%s: the next call's work function saw: %s", op, s.stale)
	}
	if s.afterReply != 1 {
		t.Fatalf("%s: %d AfterReply funcs ran in the next call, want its own 1", op, s.afterReply)
	}
	outs, ret, err := s.plan.Ops[swap].DecodeReply(XDRCodec.NewDecoder(next.Bytes()), nil, nil)
	if err != nil || string(outs[0].([]byte)) != "hserf" || string(ret.([]byte)) != "fresh" {
		t.Fatalf("%s: next call replied %v, %v, %v", op, outs, ret, err)
	}
	checkFrameCleared(t, op+": after the next call", f, witness, next.Bytes())
}

// TestFrameSurvivesEscapedPanic: a panic that is not a work function's
// — a [special] hook's, say — escapes serve with the frame half used.
// An owner that recovers and calls again gets a clean call all the same.
func TestFrameSurvivesEscapedPanic(t *testing.T) {
	s := newReuseServer(t)
	f := NewFrame()
	c := f.begin(context.WithValue(context.Background(), ctxKey{}, "lost"), s.disp, s.plan.OpIndex("swap"))
	c.SetOut(0, []byte("left behind"))
	c.SetResult("left behind")
	c.AfterReply(func() { t.Error("an abandoned call's AfterReply func ran") })
	// No end: the panic unwound past it.
	s.stale = "unset"
	enc := XDRCodec.NewEncoder()
	if err := f.ServeMessageRawContext(nil, s.disp, s.plan, s.plan.OpIndex("swap"), s.swapBody([]byte("x"), "witness"), enc); err != nil {
		t.Fatal(err)
	}
	if s.stale != "" {
		t.Fatalf("the call after an escaped panic saw: %s", s.stale)
	}
}

// TestPooledFrameNextCallSeesNothingStale is the work function's view
// through Dispatcher.ServeMessage*, where the frame comes from the pool.
func TestPooledFrameNextCallSeesNothingStale(t *testing.T) {
	s := newReuseServer(t)
	swap := s.plan.OpIndex("swap")
	for _, tag := range []string{"fine", "panic", "error", "mistyped"} {
		enc := XDRCodec.NewEncoder()
		s.disp.ServeMessage(s.plan, swap, s.swapBody([]byte("previous"), tag), enc)
		s.stale = "unset"
		enc.Reset()
		if err := s.disp.ServeMessageRaw(s.plan, swap, s.swapBody([]byte("fresh"), "witness"), enc); err != nil {
			t.Fatal(err)
		}
		if s.stale != "" {
			t.Fatalf("after %q the next call's work function saw: %s", tag, s.stale)
		}
	}
}

// TestSameDomainFrameCleared: the same-domain program borrows a pool
// frame and points its Call at the caller's arguments and the binding's
// bind-time state, so what it hands back to the pool must meet the same
// invariant as a served frame — on the lent path (nop, a [trashable]
// put), the copying path (swap), every way swap can return, and results
// and outs of every slot kind (label, record).
func TestSameDomainFrameCleared(t *testing.T) {
	s := newReuseServer(t)
	client := reusePres(t)
	client.Op("put").Param("data").Trashable = true
	comb, err := pres.Combine(client, s.disp.Pres)
	if err != nil {
		t.Fatal(err)
	}
	sd := NewSameDomain(comb, s.disp, nil, true)
	// Each work function records its Call, which lives in the frame.
	var last *Call
	for i, h := range s.disp.handlers {
		s.disp.handlers[i] = func(c *Call) error {
			last = c
			return h(c)
		}
	}
	var f Frame
	off := int(unsafe.Offsetof(f.call))
	frameOf := func(c *Call) *Frame { return (*Frame)(unsafe.Add(unsafe.Pointer(c), -off)) }
	ctx := context.WithValue(context.Background(), ctxKey{}, "same-domain")
	for _, sc := range []struct {
		op   string
		tag  string // a reuseOps op's
		fail bool
	}{
		{op: "nop"}, {op: "put"},
		{op: "swap", tag: "fine"}, {op: "swap", tag: "error", fail: true}, {op: "swap", tag: "panic", fail: true},
		{op: "label", tag: "fine"}, {op: "label", tag: "panic", fail: true}, {op: "record", tag: "fine"},
	} {
		data := bytes.Repeat([]byte{0x5A}, 64)
		var args []Value
		switch sc.op {
		case "put":
			args = []Value{data}
		case "swap", "label", "record":
			args = []Value{data, sc.tag, nil}
		}
		last = nil
		outs, ret, err := sd.InvokeContext(ctx, sc.op, args, nil, nil)
		if (err != nil) != sc.fail {
			t.Fatalf("%s %s: err = %v, want failure=%v", sc.op, sc.tag, err, sc.fail)
		}
		if last == nil {
			t.Fatalf("%s %s: the work function never ran", sc.op, sc.tag)
		}
		regions := [][]byte{data}
		if b, ok := ret.([]byte); ok {
			regions = append(regions, b)
		}
		if len(outs) > 0 {
			if b, ok := outs[0].([]byte); ok {
				regions = append(regions, b)
			}
		}
		checkFrameCleared(t, "after same-domain "+sc.op+" "+sc.tag, frameOf(last), regions...)
	}
}

// TestSameDomainMistypedValuesFail: a value of the wrong kind for a
// mutable wire type that the same-domain program must copy — a result
// of a call that scheduled AfterReply, an in argument under InCopy —
// fails the call with the text a marshalled call fails with, instead of
// panicking on the caller's goroutine.
func TestSameDomainMistypedValuesFail(t *testing.T) {
	s := newReuseServer(t)
	comb, err := pres.Combine(reusePres(t), s.disp.Pres)
	if err != nil {
		t.Fatal(err)
	}
	sd := NewSameDomain(comb, s.disp, nil, true)
	for _, c := range []struct {
		args []Value
		want string
	}{
		{[]Value{[]byte("data"), "mistyped", nil}, "record result: runtime: value string does not match wire type struct{u32,string,bytes}"},
		{[]Value{"not bytes", "fine", nil}, "record param data: runtime: value string does not match wire type bytes"},
		{[]Value{[]Value{"not bytes"}, "fine", nil}, "record param data: runtime: value []interface {} does not match wire type bytes"},
	} {
		outs, ret, err := sd.Invoke("record", c.args, nil, nil)
		if err == nil || err.Error() != c.want || outs != nil || ret != nil {
			t.Errorf("record(%v): %v, %v, err = %v; want %q", c.args, outs, ret, err, c.want)
		}
	}
	// The marshalled request path fails the mistyped argument alike.
	err = s.plan.Ops[s.plan.OpIndex("record")].EncodeRequest(XDRCodec.NewEncoder(), []Value{"not bytes", "fine", nil})
	if want := "record param data: runtime: value string does not match wire type bytes"; err == nil || err.Error() != want {
		t.Errorf("marshalled record: err = %v, want %q", err, want)
	}
}

// TestFrameConcurrentServeMessage: eight goroutines serve through one
// Dispatcher; each reply must answer its own request. Run under -race
// (ci.sh repeats it): a frame shared between two calls is a data race.
func TestFrameConcurrentServeMessage(t *testing.T) {
	s := newReuseServer(t)
	swap, put := s.plan.OpIndex("swap"), s.plan.OpIndex("put")
	disp := NewDispatcher(s.disp.Pres) // no shared counters in the handlers
	disp.Handle("put", func(c *Call) error { return nil })
	disp.Handle("swap", func(c *Call) error {
		c.SetOut(0, append([]byte(nil), c.ArgBytes(0)...))
		c.SetOut(2, uint32(len(c.Arg(1).(string))))
		c.SetResult(c.Arg(0))
		return nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			enc := XDRCodec.NewEncoder()
			for i := 0; i < 200; i++ {
				data := bytes.Repeat([]byte{byte(g*31 + i)}, 1+(g*37+i)%300)
				tag := strings.Repeat("t", i%9)
				enc.Reset()
				if i%3 == 0 {
					disp.ServeMessage(s.plan, put, s.body("put", data), enc)
					continue
				}
				if err := disp.ServeMessageRaw(s.plan, swap, s.swapBody(data, tag), enc); err != nil {
					t.Error(err)
					return
				}
				outs, ret, err := s.plan.Ops[swap].DecodeReply(XDRCodec.NewDecoder(enc.Bytes()), nil, nil)
				if err != nil || !bytes.Equal(outs[0].([]byte), data) || !bytes.Equal(ret.([]byte), data) || outs[2].(uint32) != uint32(len(tag)) {
					t.Errorf("goroutine %d call %d: reply is not its own request's: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHandleUnknownOperationPanics: a work function registered under a
// name the interface does not have could never be reached; registration
// says so, naming both.
func TestHandleUnknownOperationPanics(t *testing.T) {
	d := NewDispatcher(reusePres(t))
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `"swop"`) || !strings.Contains(msg, "Reuse") {
			t.Fatalf("Handle of an unknown operation: recovered %q, want a panic naming the operation and the interface", msg)
		}
	}()
	d.Handle("swop", func(c *Call) error { return nil })
}

// TestSetHooksAfterPlanPanics: the hooks are compiled into the
// dispatcher's server plan, so installing them after that compile could
// change nothing that serves — setting them then is a programming error.
func TestSetHooksAfterPlanPanics(t *testing.T) {
	d := NewDispatcher(reusePres(t))
	d.SetHooks(nil) // before any compile: fine
	if _, err := d.Plan(XDRCodec); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "SetHooks") || !strings.Contains(msg, "Reuse") {
			t.Fatalf("SetHooks after Plan: recovered %q, want a panic naming SetHooks and the interface", msg)
		}
	}()
	d.SetHooks(nil)
}
