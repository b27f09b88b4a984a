package shmring

import (
	"bytes"
	"context"
	"errors"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"flexrpc/internal/fbuf"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// ringIface covers the shapes the ring must carry: a null call,
// scalar in/result, bulk in, bulk result, an inout/out pair, a
// port-carrying op (the naming annotation's subject), and a failing
// op for the error channel.
func ringIface(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("ring.idl", `
		interface Ring {
			void nop();
			long add(in long a, in long b);
			void put(in sequence<octet> data);
			sequence<octet> echo(in sequence<octet> data);
			void exchange(inout sequence<octet> data, out unsigned long sum);
			void grant(in Object which);
			void fail(in string msg);
			void hang();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	return pres.Default(f.Interface("Ring"), pres.StyleCORBA)
}

type probe struct {
	putLen  int
	granted runtime.PortName
}

func newDispatcher(t testing.TB, p *pres.Presentation, pr *probe) *runtime.Dispatcher {
	t.Helper()
	disp := runtime.NewDispatcher(p)
	disp.Handle("nop", func(c *runtime.Call) error { return nil })
	disp.Handle("add", func(c *runtime.Call) error {
		c.SetResult(c.Arg(0).(int32) + c.Arg(1).(int32))
		return nil
	})
	disp.Handle("put", func(c *runtime.Call) error {
		pr.putLen = len(c.ArgBytes(0))
		return nil
	})
	disp.Handle("echo", func(c *runtime.Call) error {
		in := c.Arg(0).([]byte)
		out := make([]byte, len(in))
		copy(out, in)
		c.SetResult(out)
		return nil
	})
	disp.Handle("exchange", func(c *runtime.Call) error {
		in := c.Arg(0).([]byte)
		rev := make([]byte, len(in))
		var sum uint32
		for i, b := range in {
			rev[len(in)-1-i] = b
			sum += uint32(b)
		}
		c.SetOut(0, rev)
		c.SetOut(1, sum)
		return nil
	})
	disp.Handle("grant", func(c *runtime.Call) error {
		pr.granted = c.Arg(0).(runtime.PortName)
		return nil
	})
	disp.Handle("fail", func(c *runtime.Call) error {
		return errors.New(c.Arg(0).(string))
	})
	disp.Handle("hang", func(c *runtime.Call) error {
		select {
		case <-c.Context().Done():
			return c.Context().Err()
		case <-time.After(100 * time.Millisecond):
			return nil
		}
	})
	return disp
}

func driveCalls(t *testing.T, inv *Bound, pr *probe, payload []byte) {
	t.Helper()
	if _, _, err := inv.Invoke("nop", nil, nil, nil); err != nil {
		t.Fatalf("nop: %v", err)
	}
	_, ret, err := inv.Invoke("add", []runtime.Value{int32(20), int32(22)}, nil, nil)
	if err != nil || ret.(int32) != 42 {
		t.Fatalf("add = %v, %v", ret, err)
	}
	if _, _, err := inv.Invoke("put", []runtime.Value{payload}, nil, nil); err != nil {
		t.Fatalf("put: %v", err)
	}
	if pr.putLen != len(payload) {
		t.Fatalf("put saw %d bytes, want %d", pr.putLen, len(payload))
	}
	_, ret, err = inv.Invoke("echo", []runtime.Value{payload}, nil, nil)
	if err != nil || !bytes.Equal(ret.([]byte), payload) {
		t.Fatalf("echo mismatch (%d bytes back, want %d): %v", len(ret.([]byte)), len(payload), err)
	}
	data := []byte{1, 2, 3, 250}
	outs, _, err := inv.Invoke("exchange", []runtime.Value{data, nil}, nil, nil)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if !bytes.Equal(outs[0].([]byte), []byte{250, 3, 2, 1}) || outs[1].(uint32) != 256 {
		t.Fatalf("exchange = %v / %v", outs[0], outs[1])
	}
	if _, _, err := inv.Invoke("grant", []runtime.Value{runtime.PortName(7)}, nil, nil); err != nil {
		t.Fatalf("grant: %v", err)
	}
	if pr.granted != 7 {
		t.Fatalf("grant delivered %v, want 7", pr.granted)
	}
	_, _, err = inv.Invoke("fail", []runtime.Value{"boom"}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("fail = %v, want error carrying 'boom'", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	var b [headerSize]byte
	putHeader(b[:], 3, 99, 2)
	op, n, flags, err := parseHeader(b[:], false)
	if err != nil || op != 3 || n != 99 || flags != 2 {
		t.Fatalf("round trip = %d %d %d %v", op, n, flags, err)
	}
	for i := 0; i < headerSize; i++ {
		corrupt := b
		corrupt[i] ^= 0x40
		if _, _, _, err := parseHeader(corrupt[:], false); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
		// A trusted parse skips validation by design — it must still
		// never fail on the same input.
		if _, _, _, err := parseHeader(corrupt[:], true); err != nil {
			t.Fatalf("trusted parse rejected input: %v", err)
		}
	}
	if _, _, _, err := parseHeader(b[:8], false); err == nil {
		t.Fatal("short header accepted")
	}
}

type mode struct {
	name string
	cp   func(t testing.TB) *pres.Presentation // client presentation
	sp   func(t testing.TB) *pres.Presentation
	opts Options

	trusted, nonUnique, inline bool
	// failClass: inline dispatch returns the handler error as-is
	// ("app"); doorbell modes frame it over the ring ("remote").
	failClass string
}

func trustedPres(t testing.TB) *pres.Presentation {
	p := ringIface(t)
	p.Trust = pres.TrustFull
	return p
}

func nonUniquePres(t testing.TB) *pres.Presentation {
	p := ringIface(t)
	p.Op("grant").Param("which").NonUnique = true
	return p
}

func modes() []mode {
	return []mode{
		{
			name: "inline", cp: trustedPres, sp: trustedPres,
			trusted: true, nonUnique: false, inline: true, failClass: "app",
		},
		{
			name: "doorbell-trusted", cp: trustedPres, sp: trustedPres,
			opts:    Options{ForceDoorbell: true},
			trusted: true, nonUnique: false, inline: false, failClass: "remote",
		},
		{
			name: "doorbell-nonunique", cp: nonUniquePres, sp: nonUniquePres,
			trusted: false, nonUnique: true, inline: false, failClass: "remote",
		},
		{
			name: "doorbell-unique", cp: ringIface, sp: ringIface,
			trusted: false, nonUnique: false, inline: false, failClass: "remote",
		},
	}
}

func connectMode(t testing.TB, m mode) (*Bound, *probe) {
	t.Helper()
	pr := &probe{}
	disp := newDispatcher(t, m.sp(t), pr)
	b, err := Connect(m.cp(t), disp, runtime.XDRCodec, m.opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b, pr
}

func TestConnectResolvesModes(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			b, _ := connectMode(t, m)
			if b.trusted != m.trusted || b.nonUnique != m.nonUnique || b.inline != m.inline {
				t.Fatalf("flags = trusted %v nonunique %v inline %v, want %v %v %v",
					b.trusted, b.nonUnique, b.inline,
					m.trusted, m.nonUnique, m.inline)
			}
		})
	}
}

// The name-table elision is per binding, so it takes every port of
// both endpoints: one unannotated port parameter keeps the lookups.
func TestOneAnnotatedPortKeepsNameTable(t *testing.T) {
	twoPorts := func(annotate ...string) *pres.Presentation {
		f, err := corba.Parse("cap.idl", `
			interface Caps { void grant(in Object loose, in Object strict); };`)
		if err != nil {
			t.Fatal(err)
		}
		p := pres.Default(f.Interface("Caps"), pres.StyleCORBA)
		for _, name := range annotate {
			p.Op("grant").Param(name).NonUnique = true
		}
		return p
	}
	for _, c := range []struct {
		annotate []string
		want     bool
	}{{[]string{"loose"}, false}, {[]string{"loose", "strict"}, true}} {
		disp := runtime.NewDispatcher(twoPorts(c.annotate...))
		b, err := Connect(twoPorts(c.annotate...), disp, runtime.XDRCodec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if b.nonUnique != c.want {
			t.Errorf("annotated %v of 2 ports: nonUnique = %v, want %v", c.annotate, b.nonUnique, c.want)
		}
		b.Close()
	}
}

func TestBoundRoundTrip(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			b, pr := connectMode(t, m)
			driveCalls(t, b, pr, []byte("bound payload"))
			var rerr *runtime.RemoteError
			_, _, err := b.Invoke("fail", []runtime.Value{"class"}, nil, nil)
			if isRemote := errors.As(err, &rerr); isRemote != (m.failClass == "remote") {
				t.Fatalf("fail error %T (%v), want class %s", err, err, m.failClass)
			}
		})
	}
}

// TestBoundOversizeSpill drives payloads that outgrow the leased slot
// in every mode: the request and the reply must spill into spliced
// (or heap, inline) frames and still round trip.
func TestBoundOversizeSpill(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			b, pr := connectMode(t, m)
			payload := bytes.Repeat([]byte{7, 1, 9, 3}, SlotSize/2) // two slots' worth
			driveCalls(t, b, pr, payload)
		})
	}
}

// TestConnRoundTrip drives the name-table frame path: under unique
// naming every request and reply is a generic frame whose slots the
// peer resolves by id. Ten rounds lease more slots than the pool
// holds, and after each round every slot but the bound pair must be
// back in the pool.
func TestConnRoundTrip(t *testing.T) {
	b, pr := connectMode(t, modes()[3]) // doorbell-unique
	free := pooled(b.ring.path, b.ring.client)
	if free == 0 {
		t.Fatal("the client domain drained no slots from the pool")
	}
	for round := 0; round < 10; round++ {
		driveCalls(t, b, pr, []byte("ring payload"))
		if got := pooled(b.ring.path, b.ring.client); got != free {
			t.Fatalf("round %d: %d slots free, want %d — a frame leaked its slots", round, got, free)
		}
	}
}

// TestConnMultiSlotSplice forces a body across continuation slots:
// the head slot carries only the header and the continuation ids, the
// body is spliced through the pool as an fbuf.Aggregate and gathered
// on the far side, and every slot goes back to the pool.
func TestConnMultiSlotSplice(t *testing.T) {
	const slots = 16
	r := newRing(64, slots)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	body := bytes.Repeat([]byte{0xA5, 1, 2, 3}, 64) // 256 B: four 64-byte continuation slots
	head, cont, err := r.writeMessage(ctx, r.client, r.server, 5, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(cont) != 4 {
		t.Fatalf("%d-byte body spliced across %d continuation slots, want 4", len(body), len(cont))
	}
	op, got, aliased, bufs, err := r.readMessage(r.server, uint64(head.ID()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if op != 5 || aliased || len(bufs) != 5 || !bytes.Equal(got, body) {
		t.Fatalf("read op %d, aliased %v, %d bufs, body equal %v; want op 5, gathered copy of 5 bufs",
			op, aliased, len(bufs), bytes.Equal(got, body))
	}
	r.freeAll(r.server, bufs)
	if n := pooled(r.path, r.client); n != slots {
		t.Fatalf("%d of %d slots free after the splice was consumed", n, slots)
	}
}

// pooled drains p from d and frees every buffer back: how many the
// pool held.
func pooled(p *fbuf.Path, d *fbuf.Domain) int {
	var held []*fbuf.Buffer
	for b, err := p.Alloc(d); err == nil; b, err = p.Alloc(d) {
		held = append(held, b)
	}
	for _, b := range held {
		b.Free(d)
	}
	return len(held)
}

// TestBoundTooLarge: through the doorbell, a message that cannot fit
// half the ring is refused outright instead of deadlocking the pool.
// Inline dispatch stages an oversized request on the heap and never
// touches the pool, so there it succeeds.
func TestBoundTooLarge(t *testing.T) {
	const size = Slots / 2 * SlotSize // half the ring, before the header
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			b, pr := connectMode(t, m)
			_, _, err := b.Invoke("put", []runtime.Value{make([]byte, size)}, nil, nil)
			if m.inline {
				if err != nil || pr.putLen != size {
					t.Fatalf("inline %d-byte put = %v, server saw %d bytes", size, err, pr.putLen)
				}
				return
			}
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("%d-byte put over a ring of %d %d-byte slots = %v, want ErrTooLarge", size, Slots, SlotSize, err)
			}
		})
	}
}

// TestCloseUnparksDoorbellCaller is the regression test for the
// spin-then-park closure race: a caller parked on the reply doorbell
// behind a stalled handler must observe Close promptly and return
// ErrClosed, not sleep until the handler finishes or forever.
func TestCloseUnparksDoorbellCaller(t *testing.T) {
	for _, m := range modes() {
		if m.inline {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			b, _ := connectMode(t, m)
			errc := make(chan error, 1)
			go func() {
				_, _, err := b.Invoke("hang", nil, nil, nil)
				errc <- err
			}()
			for deadline := time.Now().Add(2 * time.Second); !b.ring.repBell.parked.Load(); {
				if time.Now().After(deadline) {
					t.Fatal("caller never parked on the reply doorbell")
				}
				goruntime.Gosched()
			}
			closed := make(chan struct{})
			go func() {
				b.Close() // returns once the serve goroutine finishes hang
				close(closed)
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("unparked with %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("caller still parked 2s after Close — wakeup lost")
			}
			<-closed
		})
	}
}

func TestBoundUnknownOpAndArity(t *testing.T) {
	b, _ := connectMode(t, modes()[0])
	if _, _, err := b.Invoke("nosuch", nil, nil, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, _, err := b.Invoke("add", []runtime.Value{int32(1)}, nil, nil); err == nil {
		t.Fatal("bad arity accepted")
	}
}

func TestBoundClosed(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			b, _ := connectMode(t, m)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := b.Invoke("nop", nil, nil, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("call on closed binding = %v, want ErrClosed", err)
			}
		})
	}
}

// TestBoundDeadline: an expired context is rejected pre-flight; a
// context that dies mid-doorbell-wait surfaces its error and poisons
// the binding (the ring state is unknowable afterwards).
func TestBoundDeadline(t *testing.T) {
	b, _ := connectMode(t, modes()[1]) // doorbell-trusted
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.InvokeContext(expired, "nop", nil, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx = %v", err)
	}
	// The binding still works after a pre-flight rejection.
	if _, _, err := b.Invoke("nop", nil, nil, nil); err != nil {
		t.Fatalf("nop after pre-flight rejection: %v", err)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, _, err := b.InvokeContext(ctx, "hang", nil, nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang under deadline = %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("deadline took %v to surface", took)
	}
	if _, _, err := b.Invoke("nop", nil, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("binding not poisoned after abandoned exchange: %v", err)
	}
}

// TestBoundStats: every mode counts calls and errors, and meters the
// marshalled request and reply sizes the way runtime.Client does. A
// void op's inline reply is empty (no status word), so put's reply
// side is not asserted.
func TestBoundStats(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			b, pr := connectMode(t, m)
			b.EnableStats()
			driveCalls(t, b, pr, []byte("metered"))
			ops := map[string]stats.OpSnapshot{}
			for _, op := range b.EnableStats().Snapshot().Ops {
				ops[op.Name] = op
			}
			if ops["add"].Calls != 1 || ops["fail"].Errors != 1 {
				t.Fatalf("add calls %d (want 1), fail errors %d (want 1)", ops["add"].Calls, ops["fail"].Errors)
			}
			if put, echo := ops["put"], ops["echo"]; put.BytesOut == 0 || echo.BytesOut == 0 || echo.BytesIn == 0 {
				t.Fatalf("bytes out/in: put %d/%d, echo %d/%d; want put out and both echo sides non-zero",
					put.BytesOut, put.BytesIn, echo.BytesOut, echo.BytesIn)
			}
		})
	}
}

// TestBoundContractMismatch mirrors every other bind: differing
// network contracts must be refused.
func TestBoundContractMismatch(t *testing.T) {
	f, err := corba.Parse("other.idl", `interface Other { void nop(); };`)
	if err != nil {
		t.Fatal(err)
	}
	other := pres.Default(f.Interface("Other"), pres.StyleCORBA)
	disp := newDispatcher(t, ringIface(t), &probe{})
	if _, err := Connect(other, disp, runtime.XDRCodec, Options{}); err == nil {
		t.Fatal("contract mismatch accepted")
	}
}

// A server that declares the two operations in the other order shares
// the contract; the binding pairs them by name, so a() reaches a's
// handler through the doorbell and inline alike.
func TestBoundPairsOpsByName(t *testing.T) {
	parse := func(src string, trust pres.Trust) *pres.Presentation {
		f, err := corba.Parse("o.idl", src)
		if err != nil {
			t.Fatal(err)
		}
		p := pres.Default(f.Interface("O"), pres.StyleCORBA)
		p.Trust = trust
		return p
	}
	for _, m := range []struct {
		name  string
		trust pres.Trust
	}{{"doorbell", pres.TrustNone}, {"inline", pres.TrustFull}} {
		t.Run(m.name, func(t *testing.T) {
			cp := parse(`interface O { long a(in long x); long b(in long x); };`, m.trust)
			disp := runtime.NewDispatcher(parse(`interface O { long b(in long x); long a(in long x); };`, m.trust))
			disp.Handle("a", func(c *runtime.Call) error { c.SetResult(int32(1)); return nil })
			disp.Handle("b", func(c *runtime.Call) error { c.SetResult(int32(2)); return nil })
			b, err := Connect(cp, disp, runtime.XDRCodec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			if b.InlineDispatch() != (m.name == "inline") {
				t.Fatalf("inline dispatch %v", b.InlineDispatch())
			}
			if _, ret, err := b.Invoke("a", []runtime.Value{int32(0)}, nil, nil); err != nil || ret != int32(1) {
				t.Fatalf("a() = %v, %v; want a's handler's 1", ret, err)
			}
		})
	}
}

// TestZeroCopyTrustedBorrow is the acceptance gate for the zero-copy
// claim: a 1KB [trusted] borrow round trip meters ZERO copied bytes —
// the client produces the payload directly into the ring slot's arena
// (the fbuf produce step) and the server's borrow decode aliases the
// slot storage.
func TestZeroCopyTrustedBorrow(t *testing.T) {
	for _, m := range []mode{modes()[0], modes()[1]} { // inline + doorbell-trusted
		t.Run(m.name, func(t *testing.T) {
			pr := &probe{}
			disp := newDispatcher(t, m.sp(t), pr)
			b, err := Connect(m.cp(t), disp, runtime.XDRCodec, m.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			// One endpoint sees every meter on the path: the client
			// plan's encode, the server plan's decode copies, and the
			// dispatcher's decode/reply accounting.
			e := b.EnableStats()
			b.ServerPlan().SetStats(e)
			disp.SetStats(e)
			payload := bytes.Repeat([]byte{0x42}, 1024)
			if _, _, err := b.Invoke("put", []runtime.Value{payload}, nil, nil); err != nil {
				t.Fatal(err)
			}
			if pr.putLen != 1024 {
				t.Fatalf("server saw %d bytes", pr.putLen)
			}
			snap := b.EnableStats().Snapshot()
			if snap.Copy.Bytes != 0 {
				t.Fatalf("copy meter reports %d copied bytes for a trusted borrow round trip, want 0", snap.Copy.Bytes)
			}
			if snap.Decode.Bytes == 0 {
				t.Fatal("decode meter saw no bytes — the payload never crossed the ring")
			}
		})
	}
}
