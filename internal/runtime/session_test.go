package runtime

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"flexrpc/internal/pres"
)

// wireTap forwards session frames to a SessionServer and keeps a copy
// of every request and reply it carried.
type wireTap struct {
	sess     *SessionServer
	requests [][]byte
	replies  [][]byte
}

func (w *wireTap) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	rep := w.sess.Handle(context.Background(), opIdx, req)
	w.requests = append(w.requests, append([]byte(nil), req...))
	w.replies = append(w.replies, append([]byte(nil), rep...))
	return append(replyBuf[:0], rep...), nil
}

func (w *wireTap) Close() error { return nil }

// TestSessionFrameBytes pins the session layer's wire bit for bit: the
// frames a RobustConn writes and a SessionServer answers for fixed
// inputs, recorded before the protocol's codec moved into session.go.
// A change here is a wire change, not a refactor.
func TestSessionFrameBytes(t *testing.T) {
	st := newSessStack(t)
	tap := &wireTap{sess: st.sess}
	rc := NewRobustConn(tap, st.p, RobustOptions{ClientID: 0x01020304, AtMostOnce: true})
	ctx := context.Background()
	if _, err := rc.CallTraceContext(ctx, st.lone, st.body(t, st.lone, 21), nil, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Call(st.lone, st.body(t, st.lone, 22), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Call(st.echo, st.body(t, st.echo, 5), nil); err != nil {
		t.Fatal(err)
	}

	batch := binary.BigEndian.AppendUint32(nil, 2)
	batch = appendBatchEntry(batch, uint32(st.echo), st.body(t, st.echo, 1))
	batch = appendBatchEntry(batch, uint32(st.lone), st.body(t, st.lone, 2))
	batchOK := st.sess.Handle(ctx, 0, sessionRequestFrame(9, 1, flagBatch, batch))

	damaged := sessionRequestFrame(9, 2, 0, st.body(t, st.lone, 3))
	damaged[len(damaged)-1] ^= 1
	badRequest := st.sess.Handle(ctx, st.lone, damaged)

	// 0x01020304's third frame acknowledged its second call, seq 2.
	stale := st.sess.Handle(ctx, st.lone, tap.requests[1])

	adm := NewAdmission(AdmissionOptions{MaxInflight: 1, RetryAfter: 5 * time.Millisecond})
	st.sess.SetAdmission(adm)
	adm.Admit()
	overloaded := st.sess.Handle(ctx, st.lone, tap.requests[0])
	adm.Release()
	adm.StartDrain()
	draining := st.sess.Handle(ctx, st.lone, tap.requests[0])

	for _, c := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"request lone(21), seq 1, trace 0xbeef", tap.requests[0], "01020304" + "00000001" + "beef0000" + "1abfc6db" + "00000015"},
		{"request lone(22), seq 2, ack 1", tap.requests[1], "01020304" + "00000002" + "00000004" + "792f1f0f" + "00000016"},
		{"request echo(5), seq 3, idempotent, ack 1", tap.requests[2], "01020304" + "00000003" + "00000005" + "d78a6322" + "00000005"},
		{"ok lone(21)", tap.replies[0], "00000000" + "be9916bf" + "00000000" + "0000002a"},
		{"ok echo(5)", tap.replies[2], "00000000" + "85f73677" + "00000000" + "0000000a"},
		{"batch ok", batchOK, "00000000" + "e90d8b88" + "00000002" + "00000008" + "0000000000000002" + "00000008" + "0000000000000004"},
		{"bad request", badRequest, "00000001" + "00000000"},
		{"stale", stale, "00000004" + "00000000"},
		{"overloaded, retry after 5ms", overloaded, "00000502" + "00000000"},
		{"draining, retry after 5ms", draining, "00000503" + "00000000"},
	} {
		if got := hex.EncodeToString(c.frame); got != c.want {
			t.Errorf("%s: frame %s, want %s", c.name, got, c.want)
		}
	}
}

// sessStack serves batchPres's echo ([batchable, idempotent]) and lone,
// both doubling their argument, through a SessionServer over a reply
// cache.
type sessStack struct {
	p          *pres.Presentation
	plan       *Plan
	sess       *SessionServer
	echo, lone int
}

func newSessStack(t testing.TB) *sessStack {
	t.Helper()
	p := batchPres(t)
	disp := NewDispatcher(p)
	double := func(c *Call) error {
		c.SetResult(c.Arg(0).(int32) * 2)
		return nil
	}
	disp.Handle("echo", double)
	disp.Handle("lone", double)
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &sessStack{p: p, plan: plan, sess: NewSessionServer(disp, plan, NewReplyCacheSharded(64, 1)),
		echo: plan.OpIndex("echo"), lone: plan.OpIndex("lone")}
}

// body encodes op(n)'s request.
func (st *sessStack) body(t testing.TB, op int, n int32) []byte {
	t.Helper()
	enc := XDRCodec.NewEncoder()
	if err := st.plan.Ops[op].EncodeRequest(enc, []Value{n}); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), enc.Bytes()...)
}

// TestRetryStepBounds walks the retry step through each outcome under a
// seeded policy: the backoff doubles from BaseBackoff to MaxBackoff, its
// jittered sleep stays in [d/2, d] and reaches d, a pushback's advice is
// slept as given, and no call gets more than MaxAttempts attempts.
func TestRetryStepBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, Seed: 3}.withDefaults()
	var s retryStep
	for i, want := range []time.Duration{2, 4, 8, 10, 10} {
		act, d := s.next(attemptFault, 0, &p, true)
		if act != retryBackoff || d != want*time.Millisecond {
			t.Fatalf("attempt %d: (%d, %v), want a backoff of %v", i+1, act, d, want*time.Millisecond)
		}
	}
	if act, _ := s.next(attemptFault, 0, &p, true); act != retryDone {
		t.Fatalf("attempt %d of %d retried", s.attempt, p.MaxAttempts)
	}

	for _, c := range []struct {
		o    attemptOutcome
		ra   time.Duration
		safe bool
		act  retryAct
		d    time.Duration
	}{
		{attemptOK, 0, true, retryDone, 0},
		{attemptRemote, 0, true, retryDone, 0},
		{attemptCtxDone, 0, true, retryDone, 0},
		{attemptFault, 0, false, retryDone, 0},
		{attemptCorrupt, 0, false, retryDone, 0},
		{attemptStale, 0, true, retryBackoff, p.BaseBackoff},
		{attemptBadRequest, 0, true, retryBackoff, p.BaseBackoff},
		{attemptPushback, 7 * time.Millisecond, false, retryPause, 7 * time.Millisecond},
		{attemptPushback, 0, false, retryBackoff, p.BaseBackoff},
	} {
		var s retryStep
		if act, d := s.next(c.o, c.ra, &p, c.safe); act != c.act || d != c.d {
			t.Errorf("%v (safe %v): (%d, %v), want (%d, %v)", c.o, c.safe, act, d, c.act, c.d)
		}
	}

	// The jitter: seeded alike, drawn alike; over [d/2, d], both ends
	// reached.
	a, b := clientState{rng: uint64(p.Seed)}, clientState{rng: uint64(p.Seed)}
	const d = 4
	var seen [d + 1]bool
	for i := 0; i < 64; i++ {
		x := a.jitter(d)
		if x != b.jitter(d) {
			t.Fatal("one seed drew two jitters")
		}
		if x < d/2 || x > d {
			t.Fatalf("jitter %v outside [%v, %v]", x, d/2, d)
		}
		seen[x] = true
	}
	if !seen[d/2] || !seen[d] {
		t.Fatalf("64 draws over [%d, %d] reached %v", d/2, d, seen)
	}
}
