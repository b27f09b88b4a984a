package runtime

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// batchPres declares echo as [batchable] and lone as an ordinary
// operation, so tests can watch calls take (and skip) the batcher.
func batchPres(t testing.TB) *pres.Presentation {
	t.Helper()
	f, err := corba.Parse("b.idl", `
		interface B {
			long echo(in long n);
			long lone(in long n);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdl.ApplyLoose(pres.Default(f.Interface("B"), pres.StyleCORBA),
		"b.pdl", "interface B {\n    [batchable, idempotent] echo();\n};\n")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// batchLoopback carries session frames into a SessionServer and
// counts wire exchanges, the quantity batching exists to reduce.
type batchLoopback struct {
	sess   *SessionServer
	frames atomic.Int64
}

func (l *batchLoopback) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	l.frames.Add(1)
	frame := l.sess.Handle(context.Background(), opIdx, req)
	return append(replyBuf[:0], frame...), nil
}

func (l *batchLoopback) Close() error { return nil }

type batchStack struct {
	plan  *Plan
	conn  *RobustConn
	wire  *batchLoopback
	execs *atomic.Int64
	stats *stats.Endpoint
}

func newBatchStack(t testing.TB, clock Clock, opts BatchOptions) *batchStack {
	t.Helper()
	p := batchPres(t)
	var execs atomic.Int64
	disp := NewDispatcher(p)
	double := func(c *Call) error {
		execs.Add(1)
		c.SetResult(c.Arg(0).(int32) * 2)
		return nil
	}
	disp.Handle("echo", double)
	disp.Handle("lone", double)
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSessionServer(disp, plan, NewReplyCacheSharded(64, 4))
	wire := &batchLoopback{sess: sess}
	conn := NewRobustConn(wire, p, RobustOptions{ClientID: 5, AtMostOnce: true, Clock: clock})
	e := stats.New([]string{"echo", "lone"})
	conn.SetStats(e)
	conn.EnableBatching(opts)
	t.Cleanup(func() { conn.Close() })
	return &batchStack{plan: plan, conn: conn, wire: wire, execs: &execs, stats: e}
}

// call invokes op(n) through the conn the way concurrent callers (the
// pooled parallel client) do — the serial Client holds a per-client
// mutex across each round trip, so batchable calls must reach the
// conn concurrently to share a frame.
func (st *batchStack) call(ctx context.Context, op string, n int32) (int32, error) {
	opIdx := st.plan.OpIndex(op)
	enc := XDRCodec.NewEncoder()
	if err := st.plan.Ops[opIdx].EncodeRequest(enc, []Value{n}); err != nil {
		return 0, err
	}
	body, err := st.conn.CallContext(ctx, opIdx, enc.Bytes(), nil)
	if err != nil {
		return 0, err
	}
	return decodeDoubled(st.plan, opIdx, body)
}

// decodeDoubled reads one dispatcher reply: status word, then the
// int32 result.
func decodeDoubled(plan *Plan, opIdx int, body []byte) (int32, error) {
	dec := XDRCodec.NewDecoder(body)
	status, err := dec.Uint32()
	if err != nil {
		return 0, err
	}
	if status != replyOK {
		msg, _ := dec.String()
		return 0, errors.New("remote: " + msg)
	}
	_, ret, err := plan.Ops[opIdx].DecodeReply(dec, nil, nil)
	if err != nil {
		return 0, err
	}
	return ret.(int32), nil
}

// TestBatchSizeFlushMergesCalls is the deterministic merge test: with
// MaxCalls = 4 and a never-advancing fake clock (so the timer can't
// fire), four concurrent calls must ride ONE wire frame, execute once
// each, and all return correct results.
func TestBatchSizeFlushMergesCalls(t *testing.T) {
	fc := NewFakeClock()
	st := newBatchStack(t, fc, BatchOptions{MaxCalls: 4})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int32) {
			defer wg.Done()
			got, err := st.call(context.Background(), "echo", n)
			if err != nil {
				t.Errorf("echo(%d): %v", n, err)
				return
			}
			if got != 2*n {
				t.Errorf("echo(%d) = %d, want %d", n, got, 2*n)
			}
		}(int32(i + 1))
	}
	wg.Wait()

	if got := st.wire.frames.Load(); got != 1 {
		t.Fatalf("4 batchable calls used %d wire frames, want 1", got)
	}
	if got := st.execs.Load(); got != 4 {
		t.Fatalf("handler executed %d times, want 4", got)
	}
	snap := st.stats.Snapshot()
	if snap.BatchedCalls != 4 || snap.BatchFlushes != 1 {
		t.Fatalf("batched_calls=%d batch_flushes=%d, want 4 and 1",
			snap.BatchedCalls, snap.BatchFlushes)
	}
}

// TestBatcherLoneCallBound pins the latency contract: a lone call
// waits for companions on the flusher's timer, and that timer is
// exactly maxBatchDelay (200µs) — never more. The fake clock proves
// the bound without trusting wall time.
func TestBatcherLoneCallBound(t *testing.T) {
	const bound = 200 * time.Microsecond
	if maxBatchDelay != bound {
		t.Fatalf("maxBatchDelay = %v, want %v", maxBatchDelay, bound)
	}
	fc := NewFakeClock()
	st := newBatchStack(t, fc, BatchOptions{MaxCalls: 64})

	done := make(chan error, 1)
	go func() {
		got, err := st.call(context.Background(), "echo", 21)
		if err == nil && got != 42 {
			err = errBadReply
		}
		done <- err
	}()

	// The flusher must arm exactly one timer, and it must be the
	// bound — the "never delays a lone call past maxBatchDelay"
	// guarantee is this assertion.
	deadline := time.Now().Add(5 * time.Second)
	for len(fc.Sleeps()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never armed its timer")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if sleeps := fc.Sleeps(); sleeps[0] != bound {
		t.Fatalf("flusher armed %v, want exactly maxBatchDelay %v", sleeps[0], bound)
	}

	fc.Advance(bound)
	if err := <-done; err != nil {
		t.Fatalf("lone batched call: %v", err)
	}
	if got := st.wire.frames.Load(); got != 1 {
		t.Fatalf("lone call used %d wire frames, want 1", got)
	}
	if snap := st.stats.Snapshot(); snap.BatchedCalls != 1 {
		t.Fatalf("batched_calls = %d, want 1", snap.BatchedCalls)
	}
}

var errBadReply = errors.New("wrong reply value")

// TestBatchBypasses checks the paths that must NOT ride the batcher:
// non-[batchable] operations and calls carrying a cancelable context
// go straight to the per-call session path.
func TestBatchBypasses(t *testing.T) {
	fc := NewFakeClock()
	fc.AutoAdvance(true)
	st := newBatchStack(t, fc, BatchOptions{MaxCalls: 4})

	if got, err := st.call(context.Background(), "lone", 3); err != nil || got != 6 {
		t.Fatalf("lone(3) = %v, %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got, err := st.call(ctx, "echo", 4); err != nil || got != 8 {
		t.Fatalf("echo(4) under cancelable ctx = %v, %v", got, err)
	}
	if snap := st.stats.Snapshot(); snap.BatchedCalls != 0 {
		t.Fatalf("bypass paths recorded %d batched calls, want 0", snap.BatchedCalls)
	}
	if got := st.wire.frames.Load(); got != 2 {
		t.Fatalf("2 bypass calls used %d wire frames, want 2", got)
	}
}

// TestBatchConcurrentStress drives many goroutines through the
// batcher under real time and checks nothing is lost, duplicated or
// cross-wired: every call sees its own doubled argument and the
// handler runs exactly once per call.
func TestBatchConcurrentStress(t *testing.T) {
	st := newBatchStack(t, WallClock, BatchOptions{MaxCalls: 8})

	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base int32) {
			defer wg.Done()
			for i := int32(0); i < per; i++ {
				n := base*1000 + i
				got, err := st.call(context.Background(), "echo", n)
				if err != nil {
					t.Errorf("echo(%d): %v", n, err)
					return
				}
				if got != 2*n {
					t.Errorf("echo(%d) = %d: cross-wired reply", n, got)
					return
				}
			}
		}(int32(g))
	}
	wg.Wait()
	if got := st.execs.Load(); got != goroutines*per {
		t.Fatalf("handler executed %d times for %d calls", got, goroutines*per)
	}
}

// TestBatchReplayedWhole: a retransmitted batch frame (same cid/seq)
// is replayed from the reply cache without re-executing any sub-call
// — the outer at-most-once key covers the whole batch.
func TestBatchReplayedWhole(t *testing.T) {
	p := batchPres(t)
	var execs atomic.Int64
	disp := NewDispatcher(p)
	disp.Handle("echo", func(c *Call) error {
		execs.Add(1)
		c.SetResult(c.Arg(0).(int32) * 2)
		return nil
	})
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSessionServer(disp, plan, NewReplyCacheSharded(16, 2))

	enc := XDRCodec.NewEncoder()
	if err := plan.Ops[plan.OpIndex("echo")].EncodeRequest(enc, []Value{int32(9)}); err != nil {
		t.Fatal(err)
	}
	body := binary.BigEndian.AppendUint32(nil, 2)
	body = appendBatchEntry(body, uint32(plan.OpIndex("echo")), enc.Bytes())
	body = appendBatchEntry(body, uint32(plan.OpIndex("echo")), enc.Bytes())
	frame := sessionRequestFrame(11, 1, flagBatch, body)

	first := sess.Handle(context.Background(), 0, frame)
	replay := sess.Handle(context.Background(), 0, frame)
	if execs.Load() != 2 {
		t.Fatalf("retransmitted batch re-executed: %d executions for 2 sub-calls", execs.Load())
	}
	if !bytes.Equal(first, replay) {
		t.Fatal("replayed batch reply differs from the original")
	}
	if binary.BigEndian.Uint32(first[0:4]) != sessOK {
		t.Fatalf("batch reply status = %d", binary.BigEndian.Uint32(first[0:4]))
	}
	bodies, err := decodeBatchReply(first[robustRepHeader:], 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bodies {
		got, err := decodeDoubled(plan, plan.OpIndex("echo"), b)
		if err != nil || got != 18 {
			t.Fatalf("sub-reply %d: %v, %v", i, got, err)
		}
	}
}

// TestBatchReplayBilledToSubCalls: a batch frame travels as wire op 0,
// but a replay of it answers its sub-calls, so the replay is billed to
// each sub-call's op and none to op 0.
func TestBatchReplayBilledToSubCalls(t *testing.T) {
	p := batchPres(t)
	disp := NewDispatcher(p)
	double := func(c *Call) error {
		c.SetResult(c.Arg(0).(int32) * 2)
		return nil
	}
	disp.Handle("echo", double)
	disp.Handle("lone", double)
	e := disp.EnableStats()
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSessionServer(disp, plan, NewReplyCacheSharded(16, 2))
	echo, lone := plan.OpIndex("echo"), plan.OpIndex("lone")
	if echo != 0 {
		t.Fatalf("echo is op %d, want 0: the wire op a batch frame travels as", echo)
	}
	enc := XDRCodec.NewEncoder()
	if err := plan.Ops[lone].EncodeRequest(enc, []Value{int32(4)}); err != nil {
		t.Fatal(err)
	}
	body := binary.BigEndian.AppendUint32(nil, 2)
	body = appendBatchEntry(body, uint32(lone), enc.Bytes())
	body = appendBatchEntry(body, uint32(lone), enc.Bytes())
	frame := sessionRequestFrame(12, 1, flagBatch, body)

	sess.Handle(context.Background(), 0, frame)
	sess.Handle(context.Background(), 0, frame)
	snap := e.Snapshot()
	if got := snap.Ops[echo]; got.Replays != 0 || got.Calls != 0 {
		t.Fatalf("echo: %d replays, %d calls; want 0 and 0: the batch's wire op never ran", got.Replays, got.Calls)
	}
	if got := snap.Ops[lone].Replays; got != 2 {
		t.Fatalf("lone: %d replays, want 2, one per replayed sub-call", got)
	}
}

// FuzzBatchCodec round-trips the batch frame codec: whatever decodes
// must re-encode to bytes that decode to the same sub-calls, and no
// input may panic either decoder.
func FuzzBatchCodec(f *testing.F) {
	seed := binary.BigEndian.AppendUint32(nil, 2)
	seed = appendBatchEntry(seed, 3, []byte("abc"))
	seed = appendBatchEntry(seed, 0, nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, 0xffffffff))

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, reqs, err := decodeBatchRequest(data)
		if err == nil {
			re := binary.BigEndian.AppendUint32(nil, uint32(len(ops)))
			for i := range ops {
				re = appendBatchEntry(re, uint32(ops[i]), reqs[i])
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("request did not round-trip:\n in: %x\nout: %x", data, re)
			}
		}
		if bodies, err := decodeBatchReply(data, -1); err == nil {
			t.Fatalf("decodeBatchReply accepted %d bodies for want -1", len(bodies))
		}
		// A reply body round-trips under its own decoded count.
		if len(data) >= 4 {
			want := int(binary.BigEndian.Uint32(data[0:4]))
			if bodies, err := decodeBatchReply(data, want); err == nil {
				re := binary.BigEndian.AppendUint32(nil, uint32(len(bodies)))
				for _, b := range bodies {
					re = appendBatchReplyEntry(re, b)
				}
				if !bytes.Equal(re, data) {
					t.Fatalf("reply did not round-trip:\n in: %x\nout: %x", data, re)
				}
			}
		}
	})
}
