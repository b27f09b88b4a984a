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

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// A Frame outlives the call it served — owned by a binding or parked in
// the pool — so whatever a call leaves in it the next call, or the
// collector, inherits. These tests drive every way serve can return and
// check the frame afterwards, by pointer range over every slot's full
// capacity, and through the eyes of the next call's work function.

const reuseIDL = `
	interface Reuse {
		void nop();
		void put(in sequence<octet> data);
		sequence<octet> swap(inout sequence<octet> data, in string tag, out unsigned long sum);
	};`

func reusePres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("reuse.idl", reuseIDL)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("Reuse"), pres.StyleCORBA)
}

type ctxKey struct{}

// reuseServer's swap does what its tag says. Every variant first fills
// every slot a call has — both outs, the result, an AfterReply func —
// so a frame that is not cleared has something to show for it.
type reuseServer struct {
	disp       *Dispatcher
	plan       *Plan
	afterReply int    // AfterReply funcs that ran
	stale      string // what a "witness" call found left over; "" = nothing
}

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
	s.disp.Handle("swap", func(c *Call) error {
		tag := c.Arg(1).(string)
		if tag == "witness" {
			s.stale = staleIn(c)
		}
		data := c.ArgBytes(0)
		rev := make([]byte, len(data))
		var sum uint32
		for i, b := range data {
			rev[len(data)-1-i] = b
			sum += uint32(b)
		}
		c.SetOut(0, rev)
		c.SetOut(2, sum)
		c.SetResult(append([]byte(nil), data...))
		c.AfterReply(func() { s.afterReply++ })
		switch tag {
		case "panic":
			panic("kaboom")
		case "error":
			return errors.New("refused")
		case "mistyped":
			c.SetResult("not bytes") // the reply encode fails
		case "big":
			c.SetResult(make([]byte, 4096)) // outgrows a small arena
		}
		return nil
	})
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
// f: each slot over its full capacity, so a wider call's tail counts.
func frameLeaves(f *Frame) []leaf {
	c := &f.call
	var out []leaf
	for _, v := range c.in[:cap(c.in)] {
		out = append(out, leaves(v)...)
	}
	for _, v := range c.outs[:cap(c.outs)] {
		out = append(out, leaves(v)...)
	}
	for _, b := range c.inBytes[:cap(c.inBytes)] {
		out = append(out, leaf{b: b})
	}
	for _, b := range c.outBufs[:cap(c.outBufs)] {
		out = append(out, leaf{b: b})
	}
	out = append(out, leaves(c.ret)...)
	return append(out, leaf{b: c.retBuf})
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

// arenaEncoder returns an encoder aimed at a 32-byte arena, which every
// swap reply outgrows: the reply reallocates into heap storage.
func arenaEncoder() Encoder {
	enc := XDRCodec.NewEncoder()
	enc.ResetArena(make([]byte, 32))
	return enc
}

func TestFrameClearedOnEveryReturn(t *testing.T) {
	s := newReuseServer(t)
	swap := s.plan.OpIndex("swap")
	data := bytes.Repeat([]byte{0xA5}, 600)
	truncated := s.swapBody(data, "tag-lost-in-transit")
	truncated = truncated[:4+len(data)+2] // data arrives whole, tag's length word does not

	scenarios := []struct {
		name       string
		body       []byte
		arena      bool // reply through an arena encoder it outgrows
		afterReply int  // funcs that must have run once the call returns
		rawErr     string
	}{
		{name: "ok", body: s.swapBody(data, "fine"), afterReply: 1},
		{name: "handler panics", body: s.swapBody(data, "panic"), rawErr: "panicked"},
		{name: "handler fails", body: s.swapBody(data, "error"), rawErr: "refused"},
		{name: "decode fails after the first argument", body: truncated, rawErr: "param tag"},
		{name: "reply encode fails", body: s.swapBody(data, "mistyped"), afterReply: 1, rawErr: "result"},
		{name: "oversize reply", body: s.swapBody(data, "big"), arena: true, afterReply: 1},
	}
	for _, sc := range scenarios {
		for _, framed := range []bool{true, false} {
			name := fmt.Sprintf("%s/framed=%v", sc.name, framed)
			t.Run(name, func(t *testing.T) {
				f := NewFrame()
				enc := XDRCodec.NewEncoder()
				if sc.arena {
					enc = arenaEncoder()
				}
				ctx := context.WithValue(context.Background(), ctxKey{}, name)
				s.afterReply = 0
				if framed {
					f.ServeMessage(s.disp, s.plan, swap, sc.body, enc)
					dec := XDRCodec.NewDecoder(enc.Bytes())
					if status, _ := dec.Uint32(); (status == replyOK) != (sc.rawErr == "") {
						t.Fatalf("status %d, want failure=%v", status, sc.rawErr != "")
					}
				} else {
					err := f.ServeMessageRawContext(ctx, s.disp, s.plan, swap, sc.body, enc)
					if (err == nil) != (sc.rawErr == "") || (err != nil && !strings.Contains(err.Error(), sc.rawErr)) {
						t.Fatalf("err = %v, want %q", err, sc.rawErr)
					}
				}
				want := sc.afterReply
				if !framed && sc.rawErr != "" {
					want = 0 // the raw path reports a failed marshal without reaching the deallocation point
				}
				if s.afterReply != want {
					t.Fatalf("%d AfterReply funcs ran, want %d", s.afterReply, want)
				}
				checkFrameCleared(t, "after the call", f, sc.body, enc.Bytes())

				// The next call on the same frame, a narrower operation
				// then the same one, sees only its own request.
				put, next := s.body("put", []byte("next")), XDRCodec.NewEncoder()
				f.ServeMessage(s.disp, s.plan, s.plan.OpIndex("put"), put, next)
				checkFrameCleared(t, "after a narrower call", f, sc.body, put)

				s.stale, s.afterReply = "unset", 0
				witness := s.swapBody([]byte("fresh"), "witness")
				next.Reset()
				if err := f.ServeMessageRawContext(nil, s.disp, s.plan, swap, witness, next); err != nil {
					t.Fatal(err)
				}
				if s.stale != "" {
					t.Fatalf("the next call's work function saw: %s", s.stale)
				}
				if s.afterReply != 1 {
					t.Fatalf("%d AfterReply funcs ran in the next call, want its own 1", s.afterReply)
				}
				outs, ret, err := s.plan.Ops[swap].DecodeReply(XDRCodec.NewDecoder(next.Bytes()), nil, nil)
				if err != nil || string(outs[0].([]byte)) != "hserf" || string(ret.([]byte)) != "fresh" {
					t.Fatalf("next call replied %v, %v, %v", outs, ret, err)
				}
				checkFrameCleared(t, "after the next call", f, witness, next.Bytes())
			})
		}
	}
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
