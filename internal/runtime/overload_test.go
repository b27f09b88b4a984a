package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"flexrpc/internal/stats"
)

// Unit tests for the overload-resilience layer: the Admission
// controller, the client-side RetryBudget, and the RobustConn retry
// loop's pushback handling. Everything time-dependent runs on a
// FakeClock.

func TestAdmissionNilIsDisabled(t *testing.T) {
	var a *Admission
	if pb := a.Admit(); pb != nil {
		t.Fatalf("nil admission rejected: %v", pb)
	}
	a.Release()
	a.StartDrain()
	if a.Inflight() != 0 {
		t.Fatal("nil admission reported state")
	}
}

func TestAdmissionGlobalCap(t *testing.T) {
	const ra = 7 * time.Millisecond
	e := stats.New(nil)
	a := NewAdmission(AdmissionOptions{MaxInflight: 2, RetryAfter: ra, Stats: e})
	if a.Admit() != nil || a.Admit() != nil {
		t.Fatal("calls under the cap rejected")
	}
	pb := a.Admit()
	if pb == nil {
		t.Fatal("call over the cap admitted")
	}
	gotRA, draining, err := ParsePushbackFrame(pb)
	if err != nil {
		t.Fatalf("rejection frame does not parse: %v", err)
	}
	if gotRA != ra || draining {
		t.Fatalf("rejection frame = (%v, %v), want (%v, false)", gotRA, draining, ra)
	}
	if n := a.Inflight(); n != 2 {
		t.Fatalf("inflight = %d after rejection, want 2", n)
	}
	if e.Snapshot().Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", e.Snapshot().Sheds)
	}
	// Releasing one slot readmits.
	a.Release()
	if a.Admit() != nil {
		t.Fatal("call after release rejected")
	}
}

func TestAdmissionDrain(t *testing.T) {
	e := stats.New(nil)
	a := NewAdmission(AdmissionOptions{RetryAfter: time.Millisecond, Stats: e})
	if a.Admit() != nil {
		t.Fatal("pre-drain call rejected")
	}
	a.Release()
	a.StartDrain()
	if !a.Draining() {
		t.Fatal("Draining false after StartDrain")
	}
	pb := a.Admit()
	if pb == nil {
		t.Fatal("draining controller admitted a call")
	}
	ra, draining, err := ParsePushbackFrame(pb)
	if err != nil || !draining || ra != time.Millisecond {
		t.Fatalf("drain frame = (%v, %v, %v), want (1ms, true, nil)", ra, draining, err)
	}
	if e.Snapshot().DrainRejects != 1 {
		t.Fatalf("drain rejects = %d, want 1", e.Snapshot().DrainRejects)
	}
}

func TestRetryBudgetSpendAndRefill(t *testing.T) {
	b := NewRetryBudget(2, 0.5)
	// The bucket starts full: two whole retries, then suppression.
	if !b.allowRetry() || !b.allowRetry() {
		t.Fatal("full budget refused a retry")
	}
	if b.allowRetry() {
		t.Fatal("empty budget allowed a retry")
	}
	if b.Tokens() != 0 {
		t.Fatalf("tokens = %v after spending the bucket, want 0", b.Tokens())
	}
	// Two first attempts deposit one whole token (ratio 0.5 each).
	b.onAttempt()
	b.onAttempt()
	if !b.allowRetry() {
		t.Fatal("refilled budget refused a retry")
	}
	if b.allowRetry() {
		t.Fatal("budget allowed more retries than deposited")
	}
	if got := b.Suppressed(); got != 2 {
		t.Fatalf("suppressed = %d, want 2", got)
	}
	// Deposits cap at the configured capacity.
	for i := 0; i < 100; i++ {
		b.onAttempt()
	}
	if b.Tokens() != 2 {
		t.Fatalf("tokens = %v after heavy deposits, want capacity 2", b.Tokens())
	}

	var nilB *RetryBudget
	nilB.onAttempt()
	if !nilB.allowRetry() {
		t.Fatal("nil budget is not the disabled state")
	}
}

// sessOKReply frames body as a successful session reply.
func sessOKReply(body []byte) []byte {
	rep := make([]byte, robustRepHeader+len(body))
	binary.BigEndian.PutUint32(rep[0:4], sessOK)
	binary.BigEndian.PutUint32(rep[4:8], crc32.ChecksumIEEE(body))
	copy(rep[robustRepHeader:], body)
	return rep
}

// pushbackNConn answers n pushback frames, then clean empty replies.
type pushbackNConn struct {
	n        int
	calls    int
	ra       time.Duration
	draining bool
}

func (c *pushbackNConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	c.calls++
	if c.calls <= c.n {
		return AppendPushbackFrame(nil, c.draining, c.ra), nil
	}
	return sessOKReply(nil), nil
}

func (c *pushbackNConn) Close() error { return nil }

// TestPushbackRetriesNonIdempotent pins the semantic that makes
// admission control compose with at-most-once: a pushed-back call was
// rejected before decode, so even a non-idempotent operation outside
// an at-most-once session — which transport faults may not retry —
// retries freely, pausing exactly the server's advisory RetryAfter
// (no jitter) instead of the backoff schedule.
func TestPushbackRetriesNonIdempotent(t *testing.T) {
	const ra = 3 * time.Millisecond
	p := allocPres(t) // nop is not [idempotent]
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	conn := &pushbackNConn{n: 2, ra: ra}
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID:   1,
		AtMostOnce: false,
		Policy:     RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, Seed: 5},
		Clock:      fc,
	})
	e := stats.New([]string{"nop", "put"})
	r.SetStats(e)

	if _, err := r.Call(0, nil, nil); err != nil {
		t.Fatalf("call after pushbacks cleared: %v", err)
	}
	if conn.calls != 3 {
		t.Fatalf("conn saw %d calls, want 3 (two pushbacks, one success)", conn.calls)
	}
	sleeps := fc.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != ra || sleeps[1] != ra {
		t.Fatalf("sleeps = %v, want exactly [%v %v] (advisory pause, unjittered)", sleeps, ra, ra)
	}
	snap := e.Snapshot()
	if snap.Pushbacks != 2 {
		t.Fatalf("pushbacks = %d, want 2", snap.Pushbacks)
	}
	if snap.Ops[0].Retries != 2 {
		t.Fatalf("retries = %d, want 2", snap.Ops[0].Retries)
	}
}

// TestPushbackWithoutAdviceUsesBackoff covers the RetryAfter==0 wire
// value ("no advice"): the loop falls back to its jittered schedule.
func TestPushbackWithoutAdviceUsesBackoff(t *testing.T) {
	p := allocPres(t)
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	conn := &pushbackNConn{n: 1, ra: 0}
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID: 1,
		Policy:   RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, Seed: 5},
		Clock:    fc,
	})
	if _, err := r.Call(0, nil, nil); err != nil {
		t.Fatalf("call: %v", err)
	}
	sleeps := fc.Sleeps()
	if len(sleeps) != 1 || sleeps[0] < 5*time.Millisecond || sleeps[0] > 10*time.Millisecond {
		t.Fatalf("sleeps = %v, want one jittered backoff in [5ms, 10ms]", sleeps)
	}
}

// TestDrainingPushbackTaxonomy exhausts the retry loop against a
// draining server: the single-attempt budget of a non-idempotent call
// is still widened to the policy bound (retrying a shed call is always
// safe), and the final error carries the draining taxonomy.
func TestDrainingPushbackTaxonomy(t *testing.T) {
	p := allocPres(t)
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	conn := &pushbackNConn{n: 1000, ra: 2 * time.Millisecond, draining: true}
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID: 1,
		Policy:   RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: 5},
		Clock:    fc,
	})
	_, err := r.Call(0, nil, nil)
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || !ov.Draining {
		t.Fatalf("err = %v, want draining *ErrOverloaded", err)
	}
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v does not match ErrDraining", err)
	}
	if conn.calls != 4 {
		t.Fatalf("conn saw %d calls, want the full policy bound of 4", conn.calls)
	}
}

// TestBudgetSuppressesRetryStorm starves the retry budget: when
// nearly every call is failing, deposits cannot keep up and the loop
// fails fast with the last error instead of spending MaxAttempts.
func TestBudgetSuppressesRetryStorm(t *testing.T) {
	p := clockPres(t) // echo is [idempotent]: freely retryable
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	conn := &failNConn{n: 1000}
	bud := NewRetryBudget(1, 0.001)
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID: 1,
		Policy:   RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, Seed: 5},
		Clock:    fc,
		Budget:   bud,
	})
	e := stats.New([]string{"echo"})
	r.SetStats(e)

	// The full bucket pays for exactly one retry; the second is
	// suppressed and the call fails with the transport's error.
	if _, err := r.Call(0, nil, nil); !errors.Is(err, ErrCorruptReply) {
		t.Fatalf("err = %v, want the last attempt's ErrCorruptReply", err)
	}
	if conn.calls != 2 {
		t.Fatalf("conn saw %d calls, want 2 (budget must stop the storm)", conn.calls)
	}
	// The next call's single deposit cannot buy a whole retry.
	if _, err := r.Call(0, nil, nil); !errors.Is(err, ErrCorruptReply) {
		t.Fatalf("err = %v, want ErrCorruptReply", err)
	}
	if conn.calls != 3 {
		t.Fatalf("conn saw %d calls, want 3 (retry rate collapsed to the deposit ratio)", conn.calls)
	}
	if got := bud.Suppressed(); got != 2 {
		t.Fatalf("suppressed = %d, want 2", got)
	}
	if snap := e.Snapshot(); snap.RetrySuppressed != 2 {
		t.Fatalf("stats suppressed = %d, want 2", snap.RetrySuppressed)
	}
}

// sessionRequestFrame builds a valid client request frame by hand.
func sessionRequestFrame(cid, seq, flags uint32, body []byte) []byte {
	f := make([]byte, robustReqHeader+len(body))
	binary.BigEndian.PutUint32(f[0:4], cid)
	binary.BigEndian.PutUint32(f[4:8], seq)
	binary.BigEndian.PutUint32(f[8:12], flags)
	binary.BigEndian.PutUint32(f[12:16], crc32.ChecksumIEEE(body))
	copy(f[robustReqHeader:], body)
	return f
}

// TestDrainWithoutAdmissionKeepsReplies: with no Admission installed
// nothing turns new calls away, so Drain must refuse rather than flush
// the reply cache — a retransmit of a completed non-idempotent call
// would find no entry and execute a second time, breaking at-most-once.
func TestDrainWithoutAdmissionKeepsReplies(t *testing.T) {
	p := allocPres(t) // nop is not [idempotent]
	disp := NewDispatcher(p)
	execs := 0
	disp.Handle("nop", func(*Call) error { execs++; return nil })
	e := disp.EnableStats()
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionServer(disp, plan, NewReplyCacheSharded(64, 0))
	idx := plan.OpIndex("nop")
	frame := sessionRequestFrame(1, 1, 0, nil)
	first := s.Handle(t.Context(), idx, frame)
	if err := s.Drain(t.Context()); err == nil {
		t.Fatal("Drain without an admission controller reported success")
	}
	retransmit := s.Handle(t.Context(), idx, frame)
	if execs != 1 {
		t.Fatalf("nop executed %d times across a drain, want 1", execs)
	}
	if !bytes.Equal(first, retransmit) {
		t.Fatal("the retransmit's reply differs from the original's")
	}
	if n := e.Snapshot().Ops[idx].Replays; n != 1 {
		t.Fatalf("replays = %d, want 1", n)
	}
}

// panicHooks marshal a [special] byte parameter, except that the
// decode hook panics.
type panicHooks struct{}

func (panicHooks) EncodeSpecial(op, param string, enc Encoder, v Value) error {
	enc.PutBytes(v.([]byte))
	return nil
}

func (panicHooks) DecodeSpecial(op, param string, dec Decoder) (Value, error) {
	panic("hook exploded")
}

// TestSpecialHookPanicFailsTheCall: a server [special] hook that panics
// fails its call like any other decode error. The call gets an error
// reply, the reply cache keeps it, and admission is released, so a
// retransmit replays that reply instead of waiting forever on an
// execution that never finished.
func TestSpecialHookPanicFailsTheCall(t *testing.T) {
	p := testPres(t)
	p.Op("write").Param("data").Special = true
	disp := NewDispatcher(p)
	disp.SetHooks(panicHooks{})
	disp.Handle("write", func(*Call) error { return nil })
	plan, err := disp.Plan(XDRCodec)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionServer(disp, plan, NewReplyCacheSharded(64, 0))
	a := NewAdmission(AdmissionOptions{MaxInflight: 4})
	s.SetAdmission(a)
	enc := XDRCodec.NewEncoder()
	enc.PutBytes([]byte("abc"))
	frame := sessionRequestFrame(1, 1, 0, enc.Bytes())
	idx := plan.OpIndex("write")

	first := s.Handle(t.Context(), idx, frame)
	if len(first) < robustRepHeader || binary.BigEndian.Uint32(first[0:4]) != sessOK {
		t.Fatalf("reply frame %x, want a session OK frame carrying the error", first)
	}
	dec := XDRCodec.NewDecoder(first[robustRepHeader:])
	status, _ := dec.Uint32()
	msg, _ := dec.String()
	if status != replyErr || !strings.Contains(msg, "write param data") || !strings.Contains(msg, "hook exploded") {
		t.Fatalf("reply status %d %q, want an error naming the op, the parameter and the panic", status, msg)
	}
	if n := a.Inflight(); n != 0 {
		t.Fatalf("%d calls in flight after the failed call, want 0", n)
	}
	done := make(chan []byte, 1)
	go func() { done <- s.Handle(t.Context(), idx, frame) }()
	select {
	case rep := <-done:
		if !bytes.Equal(rep, first) {
			t.Fatal("the retransmit's reply differs from the original's")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the retransmit is still waiting on the failed call after 2s")
	}
}

// The admission path's allocation contract: deciding a call — admit
// or reject — allocates nothing, because overload is exactly when the
// server cannot afford to allocate per rejected call.

func TestAdmissionDecisionZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	a := NewAdmission(AdmissionOptions{MaxInflight: 64})
	gateAllocs(t, "admitted call decision", 0, func() {
		if pb := a.Admit(); pb != nil {
			t.Fatal("call rejected under the cap")
		}
		a.Release()
	})

	full := NewAdmission(AdmissionOptions{MaxInflight: 1})
	if full.Admit() != nil {
		t.Fatal("pre-fill rejected")
	}
	gateAllocs(t, "shed call rejection", 0, func() {
		if full.Admit() == nil {
			t.Fatal("call admitted over the cap")
		}
	})
}

func TestSessionServerShedHandleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp, plan, _, _ := serverStack(t)
	s := NewSessionServer(disp, plan, NewReplyCacheSharded(64, 0))
	a := NewAdmission(AdmissionOptions{MaxInflight: 1})
	s.SetAdmission(a)
	if a.Admit() != nil {
		t.Fatal("pre-fill rejected")
	}
	frame := sessionRequestFrame(1, 1, 0, nil)
	idx := plan.OpIndex("nop")
	buf := make([]byte, 0, 64) // the transport's reply buffer
	gateAllocs(t, "admission-on shed null call", 0, func() {
		if rep := s.HandleAppend(t.Context(), idx, frame, buf); len(rep) != robustRepHeader {
			t.Fatalf("shed reply is %d bytes, want the pushback frame", len(rep))
		}
	})
}

// An admitted idempotent null call under admission control costs what
// it costs without it: nothing, the reply frame being appended to the
// transport's buffer.
func TestSessionServerAdmittedHandleBoundedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp, plan, _, _ := serverStack(t)
	s := NewSessionServer(disp, plan, NewReplyCacheSharded(64, 0))
	s.SetAdmission(NewAdmission(AdmissionOptions{MaxInflight: 64}))
	frame := sessionRequestFrame(1, 1, flagIdempotent, nil)
	idx := plan.OpIndex("nop")
	buf := make([]byte, 0, 64)
	gateAllocs(t, "admission-on admitted null call", 0, func() {
		if rep := s.HandleAppend(t.Context(), idx, frame, buf); len(rep) < robustRepHeader {
			t.Fatalf("short reply: %d bytes", len(rep))
		}
	})
}

// The client's protection (budget deposits) adds zero allocations to a
// successful session call.
func TestRobustCallZeroAllocsWithProtection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	p := allocPres(t)
	conn := &fixedConn{reply: sessOKReply(nil)}
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID: 1,
		Budget:   NewRetryBudget(10, 0.1),
	})
	replyBuf := make([]byte, 0, 64)
	gateAllocs(t, "protected null session call", 0, func() {
		if _, err := r.Call(0, nil, replyBuf); err != nil {
			t.Fatal(err)
		}
	})
}
