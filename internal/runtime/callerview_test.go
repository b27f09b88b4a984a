package runtime

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"flexrpc/internal/pres"
)

// A lander runs one call of read(n) whose n-byte result lands in the
// caller's buffer buf ([alloc(caller)]), on one of the three paths that
// land one.
type lander struct {
	name string
	read func(buf []byte, n uint32) (Value, error)
}

// viewStore is what read(n) returns: its first n bytes.
var viewStore = func() []byte {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}()

// landers binds read three ways: the marshal path's DecodeReply, whose
// decoder each call brings; and the same-domain program, its server
// filling the caller's buffer in place (OutCallerBuffer) or returning
// its own storage for the program to copy (OutCopy).
func landers(t *testing.T) []lander {
	client := testPres(t)
	client.Op("read").Result().Alloc = pres.AllocCaller
	plan, err := NewPlan(client, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := plan.Ops[plan.OpIndex("read")]
	out := []lander{{"decode", func(buf []byte, n uint32) (Value, error) {
		enc := XDRCodec.NewEncoder()
		if err := op.EncodeReply(enc, nil, viewStore[:n]); err != nil {
			return nil, err
		}
		_, ret, err := op.DecodeReply(plan.NewDecoder(enc.Bytes()), nil, buf)
		return ret, err
	}}}
	for _, tc := range []struct {
		name  string
		alloc pres.AllocPolicy
		read  Handler
	}{
		{"in-place", pres.AllocAuto, func(c *Call) error {
			n := c.Arg(0).(uint32)
			b := c.ResultBuffer()
			if len(b) < int(n) {
				b = make([]byte, n)
			}
			c.SetResult(b[:copy(b, viewStore[:n])])
			return nil
		}},
		{"copied", pres.AllocCallee, func(c *Call) error {
			c.SetResult(viewStore[:c.Arg(0).(uint32)])
			return nil
		}},
	} {
		server := testPres(t)
		server.Op("read").Result().Alloc = tc.alloc
		disp := NewDispatcher(server)
		disp.Handle("read", tc.read)
		comb, err := pres.Combine(client, server)
		if err != nil {
			t.Fatal(err)
		}
		sd := NewSameDomain(comb, disp, nil, true)
		out = append(out, lander{tc.name, func(buf []byte, n uint32) (Value, error) {
			_, ret, err := sd.Invoke("read", []Value{n}, nil, buf)
			return ret, err
		}})
	}
	return out
}

// mustRead runs l's read(n) into buf.
func (l lander) mustRead(t *testing.T, buf []byte, n uint32) Value {
	t.Helper()
	v, err := l.read(buf, n)
	if err != nil {
		t.Fatal(l.name, err)
	}
	return v
}

// checkRead fails unless v is read(n)'s result, landed at the start of
// buf when at is true and outside it otherwise.
func checkRead(t *testing.T, what string, v Value, n uint32, buf []byte, at bool) {
	t.Helper()
	b, ok := v.([]byte)
	if !ok || !bytes.Equal(b, viewStore[:n]) {
		t.Fatalf("%s: got %v, want read(%d)", what, v, n)
	}
	if landed := len(b) > 0 && len(buf) > 0 && &b[0] == &buf[0]; landed != at {
		t.Fatalf("%s: landed in the caller's buffer %v, want %v", what, landed, at)
	}
}

// TestCallerViewAliasing pins the caller-buffer view rule (slab.go) on
// every path that lands one: two calls into one buffer return views
// that alias, each with the last reply's length, while a call into
// another buffer, with no buffer, or with one the reply does not fit
// returns a value of its own that later calls leave alone.
func TestCallerViewAliasing(t *testing.T) {
	for _, l := range landers(t) {
		a, b, small := make([]byte, 64), make([]byte, 64), make([]byte, 2)
		v1 := l.mustRead(t, a, 5)
		checkRead(t, l.name+" first call", v1, 5, a, true)
		v2 := l.mustRead(t, a, 9)
		checkRead(t, l.name+" second call", v2, 9, a, true)
		checkRead(t, l.name+" first call's view after the second", v1, 9, a, true)

		others := []struct {
			what string
			buf  []byte
			n    uint32
			v    Value
		}{{"another buffer", b, 7, nil}, {"no buffer", nil, 4, nil}, {"a small buffer", small, 8, nil}}
		for i := range others {
			o := &others[i]
			o.v = l.mustRead(t, o.buf, o.n)
			checkRead(t, l.name+" "+o.what, o.v, o.n, o.buf, o.buf != nil && len(o.buf) >= int(o.n))
		}
		l.mustRead(t, a, 3)
		l.mustRead(t, small, 1)
		for _, o := range others {
			checkRead(t, l.name+" "+o.what+" after later calls", o.v, o.n, o.buf, o.buf != nil && len(o.buf) >= int(o.n))
		}
	}
}

// TestCallerViewConcurrentBuffers runs eight goroutines on each binding,
// each landing its calls in a buffer of its own, so the goroutines take
// the slot's view from each other on every call: every result must be
// the goroutine's own reply in the goroutine's own buffer. Under -race
// a view header written by one goroutine and read by another shows up.
func TestCallerViewConcurrentBuffers(t *testing.T) {
	for _, l := range landers(t) {
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, 128)
				var last Value
				for i := 0; i < 200; i++ {
					n := uint32(1 + (g*13+i)%len(buf))
					v, err := l.read(buf, n)
					got, _ := v.([]byte)
					if err != nil || len(got) != int(n) || &got[0] != &buf[0] || !bytes.Equal(got, viewStore[:n]) {
						errs <- fmt.Errorf("%s goroutine %d call %d: got %d bytes (%v), want read(%d) in its buffer", l.name, g, i, len(got), err, n)
						return
					}
					if prev, _ := last.([]byte); len(prev) > 0 && &prev[0] != &buf[0] {
						errs <- fmt.Errorf("%s goroutine %d: an earlier view moved off its buffer", l.name, g)
						return
					}
					last = v
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
