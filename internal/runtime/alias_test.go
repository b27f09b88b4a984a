package runtime

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
)

// Reply landing buffers: under [alloc(caller)] a byte-buffer reply
// must decode straight into the caller's buffer — the paper's
// zero-copy receive path — and fall back to fresh, untruncated
// storage when the buffer is too small.

func TestReplyLandsInCallerBuffer(t *testing.T) {
	for _, codec := range []Codec{XDRCodec, CDRCodec} {
		p := testPres(t)
		p.Op("read").Result().Alloc = pres.AllocCaller
		plan, err := NewPlan(p, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		op := plan.Ops[plan.OpIndex("read")]

		payload := []byte("landing-buffer payload")
		enc := codec.NewEncoder()
		if err := op.EncodeReply(enc, nil, payload); err != nil {
			t.Fatal(err)
		}

		retBuf := make([]byte, 64)
		_, ret, err := op.DecodeReply(codec.NewDecoder(enc.Bytes()), nil, retBuf)
		if err != nil {
			t.Fatal(err)
		}
		b := ret.([]byte)
		if !bytes.Equal(b, payload) {
			t.Fatalf("%s: reply = %q", codec.Name(), b)
		}
		if &b[0] != &retBuf[0] {
			t.Errorf("%s: alloc(caller) reply did not land in the caller's buffer", codec.Name())
		}
	}
}

func TestReplyCallerBufferTooSmallNotTruncated(t *testing.T) {
	for _, codec := range []Codec{XDRCodec, CDRCodec} {
		p := testPres(t)
		p.Op("read").Result().Alloc = pres.AllocCaller
		plan, err := NewPlan(p, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		op := plan.Ops[plan.OpIndex("read")]

		payload := bytes.Repeat([]byte{0xC3}, 100)
		enc := codec.NewEncoder()
		if err := op.EncodeReply(enc, nil, payload); err != nil {
			t.Fatal(err)
		}

		retBuf := make([]byte, 16)
		_, ret, err := op.DecodeReply(codec.NewDecoder(enc.Bytes()), nil, retBuf)
		if err != nil {
			t.Fatal(err)
		}
		b := ret.([]byte)
		if !bytes.Equal(b, payload) {
			t.Fatalf("%s: undersized landing buffer truncated the reply to %d bytes", codec.Name(), len(b))
		}
		if len(retBuf) > 0 && &b[0] == &retBuf[0] {
			t.Errorf("%s: oversize reply must not alias the undersized buffer", codec.Name())
		}
	}
}

func TestOutParamLandsInCallerBuffer(t *testing.T) {
	f, err := corba.Parse("g.idl", `
		interface G {
			void get(out sequence<octet> data);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("G"), pres.StyleCORBA)
	p.Op("get").Param("data").Alloc = pres.AllocCaller
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := plan.Ops[plan.OpIndex("get")]

	payload := []byte("out-param payload")
	enc := XDRCodec.NewEncoder()
	if err := op.EncodeReply(enc, []Value{payload}, nil); err != nil {
		t.Fatal(err)
	}

	outBuf := make([]byte, 64)
	outs, _, err := op.DecodeReply(XDRCodec.NewDecoder(enc.Bytes()), [][]byte{outBuf}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := outs[0].([]byte)
	if !bytes.Equal(b, payload) {
		t.Fatalf("out = %q", b)
	}
	if &b[0] != &outBuf[0] {
		t.Error("alloc(caller) out param did not land in the caller's buffer")
	}
}

// One Client shared by eight goroutines is safe: calls serialise on
// its mutex, and under -race nothing of one call's encoder, decoder or
// reply buffer shows through in another's results. (Pipelining is
// several Clients over one concurrent Conn: suntcp's
// TestClientsPipelineOverSharedRobustConn.)
func TestParallelClientConcurrentCalls(t *testing.T) {
	p := testPres(t)
	disp := NewDispatcher(p)
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := []byte("0123456789abcdef")
	disp.Handle("read", func(c *Call) error {
		n := int(c.Arg(0).(uint32))
		out := make([]byte, n)
		copy(out, store)
		c.SetResult(out)
		return nil
	})
	disp.Handle("status", func(c *Call) error {
		c.SetResult(uint32(7))
		return nil
	})
	client, err := NewClient(testPres(t), XDRCodec, &loopConn{disp: disp, plan: plan}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 150
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := uint32(1 + (w+i)%len(store))
				_, ret, err := client.Invoke("read", []Value{n}, nil, nil)
				if err != nil {
					errCh <- err
					return
				}
				b := ret.([]byte)
				if len(b) != int(n) || !bytes.Equal(b, store[:n]) {
					errCh <- fmt.Errorf("worker %d: read(%d) = %q", w, n, b)
					return
				}
				_, st, err := client.Invoke("status", []Value{}, nil, nil)
				if err != nil {
					errCh <- err
					return
				}
				if st.(uint32) != 7 {
					errCh <- fmt.Errorf("worker %d: status = %v", w, st)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
