package runtime

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"

	"flexrpc/internal/stats"
)

// Unit tests for the overload-resilience layer: the Admission
// controller and its stats-informed shedder, the client-side
// RetryBudget and Breaker, and the RobustConn retry loop's pushback
// handling. Everything time-dependent runs on a FakeClock.

// admitted calls Admit and immediately returns the capacity when the
// call was admitted, reporting whether it was.
func admitted(a *Admission, cid uint32, idem bool) bool {
	if pb := a.Admit(cid, idem); pb != nil {
		return false
	}
	a.Release(cid)
	return true
}

func TestAdmissionNilIsDisabled(t *testing.T) {
	var a *Admission
	if pb := a.Admit(1, false); pb != nil {
		t.Fatalf("nil admission rejected: %v", pb)
	}
	a.Release(1)
	a.StartDrain()
	a.SetStats(nil)
	if a.Inflight() != 0 {
		t.Fatal("nil admission reported state")
	}
}

func TestAdmissionGlobalCap(t *testing.T) {
	const ra = 7 * time.Millisecond
	e := stats.New(nil)
	a := NewAdmission(AdmissionOptions{MaxInflight: 2, RetryAfter: ra, Stats: e})
	if a.Admit(1, false) != nil || a.Admit(2, false) != nil {
		t.Fatal("calls under the cap rejected")
	}
	pb := a.Admit(3, false)
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
	a.Release(1)
	if a.Admit(3, false) != nil {
		t.Fatal("call after release rejected")
	}
}

func TestAdmissionPerClientFairness(t *testing.T) {
	// Client ids 5 and 6 hash to distinct fair-share slots.
	if clientSlot(5) == clientSlot(6) {
		t.Fatal("test ids collide in the fair-share table")
	}
	a := NewAdmission(AdmissionOptions{PerClient: 2})
	if a.Admit(5, false) != nil || a.Admit(5, false) != nil {
		t.Fatal("greedy client rejected under its share")
	}
	if a.Admit(5, false) == nil {
		t.Fatal("greedy client admitted over its share")
	}
	// A different client is unaffected by the greedy one's cap.
	if !admitted(a, 6, false) {
		t.Fatal("well-behaved client starved by the greedy one")
	}
	a.Release(5)
	if !admitted(a, 5, false) {
		t.Fatal("greedy client still capped after release")
	}
}

func TestAdmissionDrain(t *testing.T) {
	e := stats.New(nil)
	a := NewAdmission(AdmissionOptions{RetryAfter: time.Millisecond, Stats: e})
	if !admitted(a, 1, false) {
		t.Fatal("pre-drain call rejected")
	}
	a.StartDrain()
	if !a.Draining() {
		t.Fatal("Draining false after StartDrain")
	}
	pb := a.Admit(1, true)
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

// TestAdmissionShedderHysteresis drives the load shedder through its
// whole level diagram on a FakeClock: up under a latency storm
// (shedding non-idempotent traffic first, then everything), holding
// in the hysteresis band, stepping down on recovery, and decaying
// when shedding is so total that no traffic completes at all.
func TestAdmissionShedderHysteresis(t *testing.T) {
	fc := NewFakeClock()
	e := stats.New([]string{"op"})
	a := NewAdmission(AdmissionOptions{
		ShedP99:      10 * time.Millisecond,
		ShedExitP99:  5 * time.Millisecond,
		ShedInterval: 100 * time.Millisecond,
		Clock:        fc,
		Stats:        e,
	})
	feed := func(d time.Duration, n int) {
		for i := 0; i < n; i++ {
			e.RecordCall(0, d, 0, 0, stats.OK)
		}
	}
	// step advances one shed interval and probes the controller once
	// (the probe is the elected recomputer), returning whether the
	// probe was admitted.
	step := func(idem bool) bool {
		fc.Advance(100 * time.Millisecond)
		return admitted(a, 1, idem)
	}

	if a.ShedLevel() != 0 || !admitted(a, 1, false) {
		t.Fatal("fresh controller not admitting everything")
	}
	// Just under the entry threshold the level stays put: a 9 ms p99
	// must read as 9 ms, not as the top of a bucket above 10 ms.
	feed(9*time.Millisecond, 100)
	if !step(false) || a.ShedLevel() != 0 {
		t.Fatalf("level = %d with a 9 ms p99 under a 10 ms threshold, want 0", a.ShedLevel())
	}
	// A p99 storm raises one level per interval: first non-idempotent
	// traffic sheds while idempotent still admits, then everything.
	feed(50*time.Millisecond, 100)
	if !step(true) {
		t.Fatal("idempotent call shed at level 1")
	}
	if a.ShedLevel() != 1 {
		t.Fatalf("level = %d after storm, want 1", a.ShedLevel())
	}
	if admitted(a, 1, false) {
		t.Fatal("non-idempotent call admitted at level 1")
	}
	feed(50*time.Millisecond, 100)
	if step(true) {
		t.Fatal("idempotent call admitted at level 2")
	}
	if a.ShedLevel() != 2 {
		t.Fatalf("level = %d after second storm interval, want 2", a.ShedLevel())
	}
	// In the hysteresis band (between exit and entry) the level holds.
	feed(6*time.Millisecond, 100)
	if step(true) {
		t.Fatal("call admitted while p99 holds in the hysteresis band")
	}
	if a.ShedLevel() != 2 {
		t.Fatalf("level = %d in hysteresis band, want 2", a.ShedLevel())
	}
	// Recovery steps down one level per interval.
	feed(time.Millisecond, 100)
	if step(false) {
		t.Fatal("non-idempotent call admitted at level 1")
	}
	if a.ShedLevel() != 1 {
		t.Fatalf("level = %d after recovery interval, want 1", a.ShedLevel())
	}
	// Just under the exit threshold counts as recovered: a 4.5 ms p99
	// must read below 5 ms.
	feed(4500*time.Microsecond, 100)
	if !step(false) {
		t.Fatal("call shed after full recovery")
	}
	if a.ShedLevel() != 0 {
		t.Fatalf("level = %d after full recovery, want 0", a.ShedLevel())
	}
	// Idle decay: with no completed traffic at all between checks the
	// level steps down rather than wedging shut forever.
	feed(50*time.Millisecond, 100)
	step(true)
	if a.ShedLevel() != 1 {
		t.Fatalf("level = %d before idle decay, want 1", a.ShedLevel())
	}
	if !step(true) {
		t.Fatal("idle decay probe shed")
	}
	if a.ShedLevel() != 0 {
		t.Fatalf("level = %d after idle interval, want 0 (decay)", a.ShedLevel())
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

func TestBreakerTripHalfOpenRecover(t *testing.T) {
	fc := NewFakeClock()
	b := NewBreaker(3, 100*time.Millisecond, fc)
	if b.OnFailure(0) || b.OnFailure(0) {
		t.Fatal("breaker opened below its threshold")
	}
	if !b.Allow() || b.State() != "closed" {
		t.Fatal("closed breaker not admitting")
	}
	if !b.OnFailure(0) {
		t.Fatal("threshold failure did not report the open transition")
	}
	if b.State() != "open" || b.Opens() != 1 {
		t.Fatalf("state = %s opens = %d after trip, want open/1", b.State(), b.Opens())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call")
	}
	fc.Advance(99 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted before its cooldown elapsed")
	}
	fc.Advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	// Exactly one probe until it resolves.
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	if b.State() != "half-open" {
		t.Fatalf("state = %s during probe, want half-open", b.State())
	}
	b.OnSuccess()
	if b.State() != "closed" || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
	// The probe's success reset the consecutive-failure count.
	if b.OnFailure(0) || b.OnFailure(0) {
		t.Fatal("failure count survived the close")
	}

	var nilB *Breaker
	if !nilB.Allow() || nilB.OnFailure(0) {
		t.Fatal("nil breaker is not the disabled state")
	}
	nilB.OnSuccess()
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	fc := NewFakeClock()
	b := NewBreaker(1, 10*time.Millisecond, fc)
	if !b.OnFailure(0) {
		t.Fatal("threshold-1 breaker did not open on first failure")
	}
	fc.Advance(10 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	if !b.OnFailure(0) {
		t.Fatal("failed probe did not report re-opening")
	}
	if b.State() != "open" || b.Opens() != 2 {
		t.Fatalf("state = %s opens = %d after failed probe, want open/2", b.State(), b.Opens())
	}
}

func TestBreakerRetryAfterSeedsCooldown(t *testing.T) {
	fc := NewFakeClock()
	b := NewBreaker(1, 10*time.Millisecond, fc)
	// The server's advisory horizon outranks the client default.
	b.OnFailure(500 * time.Millisecond)
	fc.Advance(499 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker reopened before the server's RetryAfter")
	}
	fc.Advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker still closed after the server's RetryAfter")
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

// TestBreakerFastFailsCalls wires a Breaker into the retry loop:
// persistent pushback trips it, a tripped breaker fails calls without
// touching the transport, and the cooled-down probe closes it again.
func TestBreakerFastFailsCalls(t *testing.T) {
	p := allocPres(t)
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	conn := &pushbackNConn{n: 2, ra: time.Millisecond}
	br := NewBreaker(2, 100*time.Millisecond, fc)
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID: 1,
		Policy:   RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, Seed: 5},
		Clock:    fc,
		Breaker:  br,
	})
	e := stats.New([]string{"nop", "put"})
	r.SetStats(e)

	// Two pushed-back attempts reach the threshold and trip it.
	_, err := r.Call(0, nil, nil)
	var ov *ErrOverloaded
	if !errors.As(err, &ov) {
		t.Fatalf("first call err = %v, want *ErrOverloaded", err)
	}
	if br.State() != "open" {
		t.Fatalf("breaker %s after persistent pushback, want open", br.State())
	}
	// While open, calls fail fast: the transport sees nothing.
	if _, err := r.Call(0, nil, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("fast-fail err = %v, want ErrCircuitOpen", err)
	}
	if conn.calls != 2 {
		t.Fatalf("conn saw %d calls, want 2 (fast fail must not touch the wire)", conn.calls)
	}
	// After the cooldown the probe goes through and closes it.
	fc.Advance(200 * time.Millisecond)
	if _, err := r.Call(0, nil, nil); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if br.State() != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", br.State())
	}
	snap := e.Snapshot()
	if snap.BreakerOpens != 1 || snap.BreakerFastFails != 1 || snap.Pushbacks != 2 {
		t.Fatalf("counters = opens %d fastfails %d pushbacks %d, want 1/1/2",
			snap.BreakerOpens, snap.BreakerFastFails, snap.Pushbacks)
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

// The admission path's allocation contract: deciding a call — admit
// or reject — allocates nothing, because overload is exactly when the
// server cannot afford to allocate per rejected call.

func TestAdmissionDecisionZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	a := NewAdmission(AdmissionOptions{MaxInflight: 64, PerClient: 8})
	gateAllocs(t, "admitted call decision", 0, func() {
		if pb := a.Admit(7, false); pb != nil {
			t.Fatal("call rejected under the cap")
		}
		a.Release(7)
	})

	full := NewAdmission(AdmissionOptions{MaxInflight: 1})
	if full.Admit(1, false) != nil {
		t.Fatal("pre-fill rejected")
	}
	gateAllocs(t, "shed call rejection", 0, func() {
		if full.Admit(2, false) == nil {
			t.Fatal("call admitted over the cap")
		}
	})
}

func TestSessionServerShedHandleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	disp, plan, _, _ := serverStack(t)
	s := NewSessionServer(disp, plan, NewReplyCache(64))
	a := NewAdmission(AdmissionOptions{MaxInflight: 1})
	s.SetAdmission(a)
	if a.Admit(99, false) != nil {
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
	s := NewSessionServer(disp, plan, NewReplyCache(64))
	s.SetAdmission(NewAdmission(AdmissionOptions{MaxInflight: 64, PerClient: 8}))
	frame := sessionRequestFrame(1, 1, flagIdempotent, nil)
	idx := plan.OpIndex("nop")
	buf := make([]byte, 0, 64)
	gateAllocs(t, "admission-on admitted null call", 0, func() {
		if rep := s.HandleAppend(t.Context(), idx, frame, buf); len(rep) < robustRepHeader {
			t.Fatalf("short reply: %d bytes", len(rep))
		}
	})
}

// The client's protection (budget deposits, breaker bookkeeping) adds
// zero allocations to a successful session call.
func TestRobustCallZeroAllocsWithProtection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	p := allocPres(t)
	conn := &fixedConn{reply: sessOKReply(nil)}
	r := NewRobustConn(conn, p, RobustOptions{
		ClientID: 1,
		Budget:   NewRetryBudget(10, 0.1),
		Breaker:  NewBreaker(5, 100*time.Millisecond, nil),
	})
	replyBuf := make([]byte, 0, 64)
	gateAllocs(t, "protected null session call", 0, func() {
		if _, err := r.Call(0, nil, replyBuf); err != nil {
			t.Fatal(err)
		}
	})
}
