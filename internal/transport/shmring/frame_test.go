package shmring

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

// A Bound owns its marshal working state — the served call's frame, the
// client decoder, both arena encoders — instead of borrowing it per
// call. These tests end a call every way it can end, inline and through
// the doorbell, and check the next call starts clean: through the work
// function's eyes, by where its arguments lie, and by its results.

const reuseIDL = `
	interface Reuse {
		void nop();
		void put(in sequence<octet> data);
		sequence<octet> swap(inout sequence<octet> data, in string tag, out unsigned long sum);
	};`

// tagHooks unmarshal swap's tag on the server, refusing one value: a
// request that fails to decode after its first argument has landed.
type tagHooks struct{}

func (tagHooks) EncodeSpecial(op, param string, enc runtime.Encoder, v runtime.Value) error {
	enc.PutString(v.(string))
	return nil
}

func (tagHooks) DecodeSpecial(op, param string, dec runtime.Decoder) (runtime.Value, error) {
	s, err := dec.String()
	if err == nil && s == "undecodable" {
		err = errors.New("tag refused")
	}
	return s, err
}

type ctxKey struct{}

// reuseBed is a Bound over a swap whose tag says how the call ends.
// Every variant first fills every slot a call has, so a frame that is
// not cleared has something to show for it.
type reuseBed struct {
	b          *Bound
	afterReply int    // AfterReply funcs that ran
	prevArg    []byte // the last non-witness call's data argument, as the work function saw it
	stale      string // what a "witness" call found left over; "" = nothing
}

func newReuseBed(t testing.TB, opts Options) *reuseBed {
	t.Helper()
	f, err := corba.Parse("reuse.idl", reuseIDL)
	if err != nil {
		t.Fatal(err)
	}
	trusted := func() *pres.Presentation {
		p := pres.Default(f.Interface("Reuse"), pres.StyleCORBA)
		p.Trust = pres.TrustFull
		return p
	}
	sp := trusted()
	sp.Op("swap").Param("tag").Special = true
	bed := &reuseBed{}
	disp := runtime.NewDispatcher(sp)
	disp.SetHooks(tagHooks{})
	disp.Handle("nop", func(c *runtime.Call) error { return nil })
	disp.Handle("put", func(c *runtime.Call) error { return nil })
	disp.Handle("swap", func(c *runtime.Call) error {
		tag, data := c.Arg(1).(string), c.ArgBytes(0)
		if tag == "witness" {
			bed.stale = bed.staleIn(c)
		} else {
			bed.prevArg = data
		}
		rev := make([]byte, len(data))
		var sum uint32
		for i, b := range data {
			rev[len(data)-1-i] = b
			sum += uint32(b)
		}
		c.SetOut(0, rev)
		c.SetOut(2, sum)
		c.SetResult(append([]byte(nil), data...))
		c.AfterReply(func() { bed.afterReply++ })
		switch tag {
		case "panic":
			panic("kaboom")
		case "big":
			c.SetResult(make([]byte, 3*testSlot)) // outgrows the reply slot
		}
		return nil
	})
	opts.Config = Config{SlotSize: testSlot, Slots: 32}
	if bed.b, err = Connect(trusted(), disp, runtime.XDRCodec, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bed.b.Close() })
	return bed
}

// testSlot is small enough that a 1 KB argument overflows the arena.
const testSlot = 512

// staleIn reports what the work function can see in a Call before it
// has set anything itself, and whether its argument lies in the heap
// storage the previous call's spilled request was staged in.
func (bed *reuseBed) staleIn(c *runtime.Call) string {
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
	if len(bed.prevArg) > testSlot && within(c.ArgBytes(0), bed.prevArg) {
		found = append(found, "an argument inside the previous request's staging buffer")
	}
	return strings.Join(found, "; ")
}

// within reports whether b's storage lies inside region's.
func within(b, region []byte) bool {
	if len(b) == 0 || len(region) == 0 {
		return false
	}
	lo, p := uintptr(unsafe.Pointer(&region[0])), uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(region))
}

func TestBoundFrameClearedOnEveryReturn(t *testing.T) {
	small, large := bytes.Repeat([]byte{0x5A}, 100), bytes.Repeat([]byte{0xA5}, 1024)
	scenarios := []struct {
		name, tag  string
		data       []byte
		fails      string
		afterReply int
	}{
		{name: "ok", tag: "fine", data: small, afterReply: 1},
		{name: "handler panics", tag: "panic", data: small, fails: "kaboom"},
		{name: "decode fails after the first argument", tag: "undecodable", data: small, fails: "tag refused"},
		{name: "arena-overflow request", tag: "fine", data: large, afterReply: 1},
		{name: "oversize reply", tag: "big", data: small, afterReply: 1},
		{name: "overflow both ways", tag: "big", data: large, afterReply: 1},
	}
	for _, opts := range []Options{{}, {ForceDoorbell: true}} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/doorbell=%v", sc.name, opts.ForceDoorbell), func(t *testing.T) {
				bed := newReuseBed(t, opts)
				if bed.b.InlineDispatch() == opts.ForceDoorbell {
					t.Fatalf("inline = %v with ForceDoorbell = %v", bed.b.InlineDispatch(), opts.ForceDoorbell)
				}
				ctx := context.WithValue(context.Background(), ctxKey{}, sc.name)
				outs, ret, err := bed.b.InvokeContext(ctx, "swap", []runtime.Value{sc.data, sc.tag, nil}, nil, nil)
				switch {
				case sc.fails != "":
					if err == nil || !strings.Contains(err.Error(), sc.fails) {
						t.Fatalf("err = %v, want %q", err, sc.fails)
					}
				case err != nil:
					t.Fatal(err)
				case sc.tag == "big":
					if len(ret.([]byte)) != 3*testSlot {
						t.Fatalf("oversize reply came back %d bytes", len(ret.([]byte)))
					}
				default:
					if !bytes.Equal(ret.([]byte), sc.data) || len(outs[0].([]byte)) != len(sc.data) {
						t.Fatalf("swap replied %d and %d bytes, want %d", len(ret.([]byte)), len(outs[0].([]byte)), len(sc.data))
					}
				}
				if bed.afterReply != sc.afterReply {
					t.Fatalf("%d AfterReply funcs ran, want %d", bed.afterReply, sc.afterReply)
				}

				// A narrower call, then the witness: it sees only itself.
				if _, _, err := bed.b.Invoke("put", []runtime.Value{[]byte("next")}, nil, nil); err != nil {
					t.Fatal(err)
				}
				bed.stale, bed.afterReply = "unset", 0
				outs, ret, err = bed.b.Invoke("swap", []runtime.Value{[]byte("fresh"), "witness", nil}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if bed.stale != "" {
					t.Fatalf("the next call's work function saw: %s", bed.stale)
				}
				if bed.afterReply != 1 {
					t.Fatalf("%d AfterReply funcs ran in the next call, want its own 1", bed.afterReply)
				}
				if string(outs[0].([]byte)) != "hserf" || string(ret.([]byte)) != "fresh" || outs[2].(uint32) != 536 {
					t.Fatalf("next call replied %q, %q, %v", outs[0], ret, outs[2])
				}
				// Between calls the binding's own halves point at nothing.
				if bed.b.cdec.Remaining() != 0 || len(bed.b.reqEnc.Bytes()) != 0 {
					t.Fatalf("client half kept %d reply bytes to decode, %d request bytes encoded", bed.b.cdec.Remaining(), len(bed.b.reqEnc.Bytes()))
				}
			})
		}
	}
}

// TestFrameConcurrentBound: eight goroutines share one Bound, inline
// and through the doorbell; every reply must answer its own request.
// Run under -race (ci.sh repeats it): the owned frame, decoder and
// encoders are safe only because the binding serialises their use.
func TestFrameConcurrentBound(t *testing.T) {
	for _, opts := range []Options{{}, {ForceDoorbell: true}} {
		t.Run(fmt.Sprintf("doorbell=%v", opts.ForceDoorbell), func(t *testing.T) {
			bed := newReuseBed(t, opts)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						switch i % 4 {
						case 0:
							if _, _, err := bed.b.Invoke("nop", nil, nil, nil); err != nil {
								t.Error(err)
								return
							}
							continue
						case 1:
							if _, _, err := bed.b.Invoke("put", []runtime.Value{[]byte{byte(g)}}, nil, nil); err != nil {
								t.Error(err)
								return
							}
							continue
						}
						data := bytes.Repeat([]byte{byte(g*31 + i)}, 1+(g*97+i*13)%700) // some overflow the slot
						outs, ret, err := bed.b.Invoke("swap", []runtime.Value{data, "concurrent", nil}, nil, nil)
						if err != nil || !bytes.Equal(ret.([]byte), data) || !bytes.Equal(outs[0].([]byte), data) {
							t.Errorf("goroutine %d call %d: reply is not its own request's: %v", g, i, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestFrameConcurrentDispatcherPlan: eight bindings Connect at once to
// one fresh dispatcher whose swap takes a [special] tag, and call it.
// The server plan is the dispatcher's, compiled once under its hooks,
// so every binding serves with the same plan — and the special tag
// decodes through the dispatcher's hooks on every one of them. Run
// under -race (ci.sh repeats it): the first compile races the rest.
func TestFrameConcurrentDispatcherPlan(t *testing.T) {
	f, err := corba.Parse("reuse.idl", reuseIDL)
	if err != nil {
		t.Fatal(err)
	}
	newPres := func() *pres.Presentation {
		p := pres.Default(f.Interface("Reuse"), pres.StyleCORBA)
		p.Trust = pres.TrustFull
		return p
	}
	sp := newPres()
	sp.Op("swap").Param("tag").Special = true
	disp := runtime.NewDispatcher(sp)
	disp.SetHooks(tagHooks{})
	disp.Handle("swap", func(c *runtime.Call) error {
		c.SetOut(0, c.Arg(0))
		c.SetOut(2, uint32(len(c.Arg(1).(string))))
		c.SetResult(c.Arg(0))
		return nil
	})
	plans := make([]*runtime.Plan, 8)
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, err := Connect(newPres(), disp, runtime.XDRCodec, Options{ForceDoorbell: g%2 == 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer b.Close()
			plans[g] = b.ServerPlan()
			if _, _, err := b.Invoke("swap", []runtime.Value{[]byte{byte(g)}, "undecodable", nil}, nil, nil); err == nil || !strings.Contains(err.Error(), "tag refused") {
				t.Errorf("binding %d: the dispatcher's hooks did not decode the tag: %v", g, err)
			}
			outs, _, err := b.Invoke("swap", []runtime.Value{[]byte{byte(g)}, "tag", nil}, nil, nil)
			if err != nil || !bytes.Equal(outs[0].([]byte), []byte{byte(g)}) || outs[2].(uint32) != 3 {
				t.Errorf("binding %d: swap = %v, %v", g, outs, err)
			}
		}(g)
	}
	wg.Wait()
	for g, p := range plans {
		if p == nil || p != plans[0] {
			t.Fatalf("binding %d serves with plan %p, binding 0 with %p: want the dispatcher's one plan", g, p, plans[0])
		}
	}
	if p, err := disp.Plan(runtime.XDRCodec); err != nil || p != plans[0] {
		t.Fatalf("Dispatcher.Plan = %p, %v; the bindings serve with %p", p, err, plans[0])
	}
}
