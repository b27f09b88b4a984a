package runtime

import (
	"bytes"
	"encoding/binary"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// The tests below pin the acknowledgement a request frame carries for
// an earlier reply of its client: the reply's bytes leave the cache,
// its key stays for the whole at-most-once window.

// ackStack serves fetch(n), which returns n bytes and counts its
// executions, through a SessionServer over cache.
type ackStack struct {
	p     *pres.Presentation
	plan  *Plan
	sess  *SessionServer
	cache *ReplyCache
	stats *stats.Endpoint
	execs *atomic.Int64
	fetch int
}

func newAckStack(t testing.TB, cache *ReplyCache) *ackStack {
	t.Helper()
	f, err := corba.Parse("ack.idl", `
		interface Ack {
			sequence<octet> fetch(in long n);
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(f.Interface("Ack"), pres.StyleCORBA)
	var execs atomic.Int64
	disp := NewDispatcher(p)
	e := disp.EnableStats()
	out := make([]byte, 64<<10)
	disp.Handle("fetch", func(c *Call) error {
		execs.Add(1)
		c.SetResult(out[:c.Arg(0).(int32)])
		return nil
	})
	plan, err := NewPlan(p, XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &ackStack{p: p, plan: plan, sess: NewSessionServer(disp, plan, cache), cache: cache,
		stats: e, execs: &execs, fetch: plan.OpIndex("fetch")}
}

// body encodes fetch(n)'s request.
func (st *ackStack) body(t testing.TB, n int32) []byte {
	t.Helper()
	enc := XDRCodec.NewEncoder()
	if err := st.plan.Ops[st.fetch].EncodeRequest(enc, []Value{n}); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), enc.Bytes()...)
}

// frame builds fetch(n)'s request frame for (cid, seq), acknowledging
// seq − ack (none when ack is 0).
func (st *ackStack) frame(t testing.TB, cid, seq, ack uint32, n int32) []byte {
	return sessionRequestFrame(cid, seq, ack<<ackShift, st.body(t, n))
}

func replyStatus(rep []byte) uint32 { return binary.BigEndian.Uint32(rep) }

// TestAckedRepliesReleaseTheirBytes: two clients each make 10 000
// sequential calls with 8 KiB replies over one SessionServer. Each
// frame acknowledges its client's previous reply, so the cache holds
// bytes for at most two replies per client, and no shard's arena,
// filled and free chunks together, ever grows past two chunks — where
// without acks the cache holds the last 4096 replies, 32 MiB in 512
// chunks. At the end no more chunks hold bytes than there are replies
// left unacknowledged: a chunk each, or one shared. The window is
// untouched: every key of the last 4096 completions is remembered.
func TestAckedRepliesReleaseTheirBytes(t *testing.T) {
	const calls, size, shards = 10000, 8 << 10, 4
	st := newAckStack(t, NewReplyCacheSharded(DefaultReplyCacheSize, shards))
	wire := &batchLoopback{sess: st.sess}
	var conns [2]*RobustConn
	for i := range conns {
		conns[i] = NewRobustConn(wire, st.p, RobustOptions{ClientID: uint32(i + 1), AtMostOnce: true})
	}
	req := st.body(t, size)
	var reply []byte
	for i := 0; i < calls; i++ {
		for _, rc := range conns {
			var err error
			if reply, err = rc.Call(st.fetch, req, reply); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if len(reply) < size {
				t.Fatalf("call %d: %d-byte reply", i, len(reply))
			}
		}
		if held := st.cache.Held(); held > 2*len(conns) {
			t.Fatalf("after round %d the cache holds bytes for %d replies; want <= %d", i, held, 2*len(conns))
		}
		for j := range st.cache.shards {
			s := &st.cache.shards[j]
			s.mu.Lock()
			n := len(s.chunks) + len(s.free)
			s.mu.Unlock()
			if n > 2 {
				t.Fatalf("after round %d shard %d's arena holds %d chunks, want <= 2", i, j, n)
			}
		}
	}
	if n := st.execs.Load(); n != 2*calls {
		t.Fatalf("%d executions for %d calls", n, 2*calls)
	}
	if n := st.cache.Len(); n != DefaultReplyCacheSize {
		t.Fatalf("the cache remembers %d keys, want the window of %d", n, DefaultReplyCacheSize)
	}
	filled := 0
	for i := range st.cache.shards {
		s := &st.cache.shards[i]
		checkArena(t, s)
		s.mu.Lock()
		filled += len(s.chunks)
		s.mu.Unlock()
	}
	if held := st.cache.Held(); filled > held {
		t.Fatalf("%d arena chunks hold bytes for %d replies", filled, held)
	}
}

// TestAckedRetransmitIsStale: a retransmit of a key its client has
// acknowledged is inside the window, so it must not execute; its bytes
// are gone, so it is answered sessStale — counted, and not billed as a
// replay. An ack for another client's key releases nothing.
func TestAckedRetransmitIsStale(t *testing.T) {
	st := newAckStack(t, NewReplyCacheSharded(64, 2))
	first := st.sess.Handle(t.Context(), st.fetch, st.frame(t, 3, 1, 0, 100))
	if replyStatus(first) != sessOK {
		t.Fatalf("first call answered status %d", replyStatus(first))
	}
	// Client 4's seq 2 acknowledging "seq 1" names (4, 1), not (3, 1).
	st.sess.Handle(t.Context(), st.fetch, st.frame(t, 4, 2, 1, 100))
	if rep := st.sess.Handle(t.Context(), st.fetch, st.frame(t, 3, 1, 0, 100)); !bytes.Equal(rep, first) {
		t.Fatal("another client's ack released this client's reply")
	}
	// Client 3's seq 2 acknowledges its seq 1.
	st.sess.Handle(t.Context(), st.fetch, st.frame(t, 3, 2, 1, 100))
	execs := st.execs.Load()
	rep := st.sess.Handle(t.Context(), st.fetch, st.frame(t, 3, 1, 0, 100))
	if !bytes.Equal(rep, appendEmptyReply(nil, sessStale)) {
		t.Fatalf("retransmit of an acknowledged key answered % x, want a stale frame", rep)
	}
	if n := st.execs.Load(); n != execs {
		t.Fatalf("retransmit of an acknowledged key executed (%d executions, want %d)", n, execs)
	}
	snap := st.stats.Snapshot()
	if snap.StaleRetransmits != 1 {
		t.Fatalf("stale retransmits = %d, want 1", snap.StaleRetransmits)
	}
	if r := snap.Ops[st.fetch].Replays; r != 1 {
		t.Fatalf("replays = %d, want 1 (the unacknowledged retransmit only)", r)
	}
	if st.cache.Len() != 3 || st.cache.Held() != 2 {
		t.Fatalf("cache remembers %d keys holding %d replies, want 3 and 2", st.cache.Len(), st.cache.Held())
	}
}

// flipStatusConn rewrites the status word of the first reply whose
// status is from to to, as a damaged status byte would.
type flipStatusConn struct {
	inner    Conn
	from, to uint32
	flipped  bool
}

func (c *flipStatusConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	rep, err := c.inner.Call(opIdx, req, replyBuf)
	if err == nil && !c.flipped && len(rep) >= 4 && replyStatus(rep) == c.from {
		binary.BigEndian.PutUint32(rep, c.to)
		c.flipped = true
	}
	return rep, err
}

func (c *flipStatusConn) Close() error { return nil }

// TestStaleStatusOnLiveCallRetries: a reply whose status reads
// sessStale reaches a caller only through damage — no call that is
// still waiting has been acknowledged — so the client takes it as a
// corrupt reply, retries, and gets the reply the cache kept.
func TestStaleStatusOnLiveCallRetries(t *testing.T) {
	st := newAckStack(t, NewReplyCacheSharded(64, 2))
	wire := &flipStatusConn{inner: &batchLoopback{sess: st.sess}, from: sessOK, to: sessStale}
	e := stats.New([]string{"fetch"})
	rc := NewRobustConn(wire, st.p, RobustOptions{ClientID: 9, AtMostOnce: true, Policy: RetryPolicy{BaseBackoff: 1}})
	rc.SetStats(e)
	reply, err := rc.Call(st.fetch, st.body(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !wire.flipped {
		t.Fatal("no reply was damaged")
	}
	if replyStatus(reply) != replyOK || len(reply) < 300 {
		t.Fatalf("%d-byte reply with status %d", len(reply), replyStatus(reply))
	}
	if n := st.execs.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	snap := e.Snapshot()
	if snap.CorruptReplies != 0 || snap.Ops[st.fetch].Retries != 1 {
		t.Fatalf("corrupt replies %d, retries %d; want 0 (the CRC held) and 1", snap.CorruptReplies, snap.Ops[st.fetch].Retries)
	}
}

// TestRequestHeaderInsideCRC: a bit flipped anywhere in a request's
// cid, seq or flags word makes the frame fail its CRC. Each of the 96
// flips of a cached call's retransmit is refused with sessBadRequest
// and executes nothing — not as a new key, not under a forged
// idempotent bit, not as an ack.
func TestRequestHeaderInsideCRC(t *testing.T) {
	st := newAckStack(t, NewReplyCacheSharded(64, 1))
	frame := st.frame(t, 7, 5, 1, 40)
	if rep := st.sess.Handle(t.Context(), st.fetch, frame); replyStatus(rep) != sessOK {
		t.Fatalf("original call answered status %d", replyStatus(rep))
	}
	for bit := 0; bit < 96; bit++ {
		damaged := bytes.Clone(frame)
		damaged[bit/8] ^= 1 << (bit % 8)
		rep := st.sess.Handle(t.Context(), st.fetch, damaged)
		if !bytes.Equal(rep, appendEmptyReply(nil, sessBadRequest)) {
			t.Fatalf("bit %d of the header flipped: answered status %d, want sessBadRequest", bit, replyStatus(rep))
		}
	}
	if n := st.execs.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	if n := st.stats.Snapshot().BadFrames; n != 96 {
		t.Fatalf("bad frames = %d, want 96", n)
	}
}

// TestZeroAckKeepsFIFOEviction: frames whose ack bits are zero — an old
// client's — leave the cache as it always was. Every key of the last
// capacity completions replays its original reply byte for byte, each
// older key executes afresh, and the ring holds the window in
// completion order with every entry's bytes.
func TestZeroAckKeepsFIFOEviction(t *testing.T) {
	const capacity, keys = 16, 100
	st := newAckStack(t, NewReplyCacheSharded(capacity, 1))
	s := &st.cache.shards[0]
	replies := map[uint32][]byte{}
	for seq := uint32(1); seq <= keys; seq++ {
		size := int32(seq * 977 % 20000)
		replies[seq] = st.sess.Handle(t.Context(), st.fetch, st.frame(t, 2, seq, 0, size))
		s.mu.Lock()
		for i := range s.ring {
			e := s.ring[(s.head+i)%len(s.ring)]
			want := uint64(2)<<32 | uint64(int(seq)-len(s.ring)+1+i)
			if e.key != want || e.acked || !bytes.Equal(e.frame, replies[uint32(e.key)]) {
				s.mu.Unlock()
				t.Fatalf("after seq %d, ring position %d holds key %#x (acked %v); want key %#x with its reply", seq, i, e.key, e.acked, want)
			}
		}
		s.mu.Unlock()
		checkArena(t, s)
	}
	for seq := uint32(keys - capacity); seq <= keys; seq++ {
		execs := st.execs.Load()
		rep := st.sess.Handle(t.Context(), st.fetch, st.frame(t, 2, seq, 0, int32(seq*977%20000)))
		inWindow := seq > keys-capacity
		if executed := st.execs.Load() != execs; executed == inWindow {
			t.Fatalf("retransmit of seq %d: executed %v, in the window %v", seq, executed, inWindow)
		}
		if inWindow && !bytes.Equal(rep, replies[seq]) {
			t.Fatalf("replay of seq %d differs from its original reply", seq)
		}
		// Executing the evicted key evicted the window's oldest, which
		// is the next one retransmitted: start the window after it.
		if !inWindow {
			seq++
		}
	}
	if st.cache.Held() != st.cache.Len() {
		t.Fatalf("%d of %d keys hold bytes with no ack sent", st.cache.Held(), st.cache.Len())
	}
}

// TestReplyCacheAckSteadyStateNoAllocs: with every reply acknowledged
// by the next call, a call through the cache and the ack that follows
// it allocate nothing once the arena has warmed up.
func TestReplyCacheAckSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	c := NewReplyCacheSharded(64, 2)
	reply := patterned(1, 8200)
	buf := make([]byte, 0, 9000)
	exec := func(dst []byte) []byte { return append(dst, reply...) }
	key := uint64(0)
	call := func() {
		key++
		c.ack(key - 1)
		if out, got := c.do(key, buf, exec); got != cacheExecuted || len(out) != len(reply) {
			t.Fatalf("%d-byte reply, outcome %d", len(out), got)
		}
	}
	for i := 0; i < 40*64; i++ {
		call()
	}
	if allocs := testing.AllocsPerRun(2000, call); allocs != 0 {
		t.Fatalf("an acknowledged call allocates %.2f times in steady state, want 0", allocs)
	}
}

// TestAckQueueReachesOnlyWithinField: a RobustConn acknowledges each
// finished cacheable call on a later frame, oldest first, and drops a
// queued seq the 14-bit field can no longer reach rather than send a
// wrong one. Idempotent calls are acknowledged nothing for, since the
// server never caches them.
func TestAckQueueReachesOnlyWithinField(t *testing.T) {
	rc := NewRobustConn(&fixedConn{}, allocPres(t), RobustOptions{})
	seq, ack := rc.nextSeq()
	if seq != 1 || ack != 0 {
		t.Fatalf("first frame: seq %d ack %d, want 1 and 0", seq, ack)
	}
	rc.finished(1)
	if seq, ack = rc.nextSeq(); seq != 2 || ack != 1 {
		t.Fatalf("second frame: seq %d ack %d, want 2 and 1", seq, ack)
	}
	rc.finished(2)
	rc.seq += ackMask // seq 2 is now out of reach of the next frame
	rc.finished(rc.seq)
	if seq, ack = rc.nextSeq(); ack != 1 || seq-ack != 2+ackMask {
		t.Fatalf("frame %d acknowledged seq %d, want %d", seq, seq-ack, 2+ackMask)
	}
	for i := uint32(1); i <= ackQueueLen+1; i++ {
		rc.finished(rc.seq - i)
	}
	if rc.ackLen != ackQueueLen {
		t.Fatalf("ack queue holds %d seqs, want its bound %d", rc.ackLen, ackQueueLen)
	}
}

// TestReplyCacheAckRecyclesOldestFirst: acks free bytes out of
// completion order, and a chunk is recycled once it and every older
// chunk are empty — an emptied chunk behind a tenanted one stays
// listed, and emptying the oldest recycles the whole run at once.
func TestReplyCacheAckRecyclesOldestFirst(t *testing.T) {
	c := NewReplyCacheSharded(64, 1)
	s := &c.shards[0]
	// replySize gives keys ending in 5 30 000 bytes: two to a chunk.
	keys := []uint64{5, 15, 25, 35, 45, 55, 65}
	for _, key := range keys {
		c.do(key, nil, func(dst []byte) []byte { return append(dst, patterned(key, replySize(key))...) })
	}
	checkShard(t, s)
	arena := func(want string, filled, free int) {
		t.Helper()
		checkShard(t, s)
		if len(s.chunks) != filled || len(s.free) != free {
			t.Fatalf("%s: %d chunks listed, %d free; want %d and %d", want, len(s.chunks), len(s.free), filled, free)
		}
	}
	arena("seven replies", 4, 0)
	c.ack(uint64(99)) // not cached: a no-op
	c.ack(25)
	c.ack(35)
	arena("the second chunk emptied behind the first", 4, 0)
	c.ack(45)
	c.ack(5)
	c.ack(5) // twice: a no-op
	arena("the first chunk still holds 15", 4, 0)
	c.ack(15)
	arena("the first two chunks emptied", 2, 2)
	c.ack(55)
	c.ack(65)
	arena("every reply acknowledged", 0, 4)
	for _, key := range keys {
		out, got := c.do(key, nil, func(dst []byte) []byte { t.Fatalf("acknowledged key %d executed", key); return dst })
		if got != cacheStale || !bytes.Equal(out, appendEmptyReply(nil, sessStale)) {
			t.Fatalf("acknowledged key %d answered %d bytes, want the stale frame", key, len(out))
		}
	}
	if c.Len() != len(keys) {
		t.Fatalf("the cache remembers %d keys, want %d", c.Len(), len(keys))
	}
}

// TestReplyCacheAckOfExecutingKeyIsNoOp: an ack can only name a call
// its client has finished, but one may race a retransmit still
// executing on the server — say, after the client gave up. The ack is
// ignored: a duplicate still waits for the execution and replays its
// bytes, which the cache then keeps.
func TestReplyCacheAckOfExecutingKeyIsNoOp(t *testing.T) {
	c := NewReplyCacheSharded(8, 1)
	s := &c.shards[0]
	const key = 15
	var execs atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	exec := func(dst []byte) []byte {
		if execs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return append(dst, patterned(key, replySize(key))...)
	}
	first, dup := make(chan []byte, 1), make(chan []byte, 1)
	go func() { out, _ := c.do(key, nil, exec); first <- out }()
	<-entered
	c.ack(key)
	go func() { out, _ := c.do(key, nil, exec); dup <- out }()
	// Until the duplicate waits — or, wrongly, executes.
	for waiting := 0; waiting == 0 && execs.Load() == 1; goruntime.Gosched() {
		s.mu.Lock()
		waiting = s.waiters
		s.mu.Unlock()
	}
	close(release)
	a, b := <-first, <-dup
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	if !isPatterned(key, a) || !bytes.Equal(a, b) {
		t.Fatal("the duplicate did not replay the original's bytes")
	}
	if c.Held() != 1 {
		t.Fatalf("%d replies hold bytes, want the one whose ack came too early", c.Held())
	}
	checkShard(t, s)
}
