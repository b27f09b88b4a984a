package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// The robustness layer: a session protocol between RobustConn
// (client) and SessionServer (server) that makes calls safe to retry
// over lossy transports. It rides beneath the presentation — the
// marshaled bodies it carries are byte-identical with or without it —
// and above any Conn, so the same layer covers inproc loopbacks,
// netsim pipes, and Sun RPC streams.
//
// Session frames are fixed big-endian binary, independent of the
// marshal codec (the body keeps whatever codec the plan chose):
//
//	request: cid(4) seq(4) flags(4) crc32(body)(4) body...
//	reply:   status(4) crc32(body)(4) body...
//
// cid identifies the client instance, seq the logical call; a retry
// retransmits the same (cid, seq), which is what lets the server's
// ReplyCache suppress duplicate execution. flags bit 0 marks the
// operation [idempotent], telling the server caching is unnecessary.
// flags bits 16-31 carry the call's 16-bit trace id (0 = untraced):
// the flags word always existed, so tracing changes no wire format.
// The CRC lets the client distinguish a corrupted reply (retryable —
// the server may or may not have executed, but the cache makes the
// retry safe) from a clean reply carrying an application error (not
// retryable: the server definitely executed).
const (
	robustReqHeader = 16
	robustRepHeader = 8

	flagIdempotent = 1 << 0
	flagBatch      = 1 << 1 // body is a batch of sub-calls; op index rides per sub-call
	traceIDShift   = 16

	sessOK         = 0 // body is the dispatcher's reply (status framing + results)
	sessBadRequest = 1 // request frame failed its CRC; body empty; retry
	sessOverloaded = 2 // admission control shed the call before decode; body empty
	sessDraining   = 3 // server is draining; body empty; retry elsewhere/later

	// The pushback statuses (sessOverloaded, sessDraining) split the
	// status word: code in the low 8 bits, advisory retry-after
	// milliseconds in the upper 24 (see pushback.go). sessOK and
	// sessBadRequest keep full-word encodings.
)

// ErrCorruptReply reports a session reply that failed its length or
// CRC check; the call may be retried (the reply cache suppresses
// double execution for non-idempotent operations).
var ErrCorruptReply = errors.New("runtime: corrupt session reply")

// ErrBadRequestFrame reports that the server received this call's
// request frame corrupted and did not execute it; always retryable.
var ErrBadRequestFrame = errors.New("runtime: request frame corrupted in transit")

// Retryable reports whether a failed call may be safely retried by a
// client using the session layer: transport faults, timeouts, and
// corruption are retryable; a *RemoteError is not (the server
// executed and replied), and a canceled context is not (the caller
// gave up).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, context.Canceled)
}

// A RetryPolicy bounds the retry loop: capped exponential backoff
// with jitter, and an optional per-attempt timeout carved out of the
// call's deadline.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Zero means the default of 4.
	MaxAttempts int
	// AttemptTimeout bounds each individual attempt; zero means the
	// attempt runs until the call's own deadline.
	AttemptTimeout time.Duration
	// BaseBackoff is the delay before the first retry (default 1ms);
	// each subsequent delay doubles, capped at MaxBackoff (default
	// 100ms). The actual sleep is jittered uniformly over [d/2, d).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the jitter deterministic for tests; zero seeds from
	// an arbitrary fixed value.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	return p
}

// RobustOptions configure a RobustConn.
type RobustOptions struct {
	// ClientID identifies this client instance in the at-most-once
	// cache key; distinct concurrent clients of one server must use
	// distinct IDs.
	ClientID uint32
	// AtMostOnce declares that the server wraps its dispatcher in a
	// SessionServer with a ReplyCache, making every operation safe to
	// retry. When false, only [idempotent]-annotated operations
	// retry; everything else gets a single attempt.
	AtMostOnce bool
	Policy     RetryPolicy
	// Clock drives backoff sleeps and per-attempt timeouts; nil means
	// WallClock. Tests substitute a FakeClock.
	Clock Clock
	// Budget throttles retries (shareable across conns to one
	// backend); nil means retries are limited only by the policy.
	Budget *RetryBudget
}

// A RobustConn wraps a Conn with the client half of the session
// layer: framing with CRCs, deadlines, and idempotency-aware retry.
// The peer must unwrap frames with a SessionServer. RobustConn is
// deliberately not SelfFraming: the dispatcher's status framing rides
// inside the session body, so application errors are cached and
// replayed like any other reply.
type RobustConn struct {
	inner     Conn
	cid       uint32
	seq       atomic.Uint32
	idem      []bool // by op index: may retry without the cache
	batchable []bool // by op index: may ride in a batch frame
	atMost    bool
	policy    RetryPolicy
	batch     *batcher // nil until EnableBatching
	budget    *RetryBudget

	rmu sync.Mutex // guards rng
	rng *rand.Rand

	clock Clock
	stats *stats.Endpoint

	frames sync.Pool // *[]byte request frame buffers
}

// SetStats points the session layer at an observability endpoint —
// usually the same one the Client records into, so retries, wire
// bytes and corruption show up alongside the per-op counters. A nil
// endpoint (the default) records nothing.
func (r *RobustConn) SetStats(e *stats.Endpoint) { r.stats = e }

// NewRobustConn wraps inner for presentation p. The idempotency of
// each operation comes from p's [idempotent] annotations.
func NewRobustConn(inner Conn, p *pres.Presentation, opts RobustOptions) *RobustConn {
	idem := make([]bool, len(p.Interface.Ops))
	batchable := make([]bool, len(p.Interface.Ops))
	for i := range p.Interface.Ops {
		if op := p.Op(p.Interface.Ops[i].Name); op != nil {
			idem[i] = op.Idempotent
			batchable[i] = op.Batchable
		}
	}
	seed := opts.Policy.Seed
	if seed == 0 {
		seed = 1
	}
	clock := opts.Clock
	if clock == nil {
		clock = WallClock
	}
	return &RobustConn{
		inner:     inner,
		cid:       opts.ClientID,
		idem:      idem,
		batchable: batchable,
		atMost:    opts.AtMostOnce,
		policy:    opts.Policy.withDefaults(),
		budget:    opts.Budget,
		rng:       rand.New(rand.NewSource(seed)),
		clock:     clock,
	}
}

// Call implements Conn.
func (r *RobustConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	return r.CallContext(context.Background(), opIdx, req, replyBuf)
}

// Close drains the batcher (when batching is enabled) and closes the
// wrapped transport.
func (r *RobustConn) Close() error {
	if r.batch != nil {
		r.batch.close()
	}
	return r.inner.Close()
}

// CallContext implements ContextConn: frame the request, send it,
// verify the reply, retrying per the policy when the operation (or
// the at-most-once session) allows. Retries retransmit the same
// sequence number, so the server replays rather than re-executes.
func (r *RobustConn) CallContext(ctx context.Context, opIdx int, req, replyBuf []byte) ([]byte, error) {
	return r.CallTraceContext(ctx, opIdx, req, replyBuf, 0)
}

// CallTraceContext is CallContext carrying a trace id: tid rides in
// the upper half of the frame's flags word, so the server tags its
// decode/dispatch/reply trace events with the same id the client
// used. tid 0 means untraced; when this conn's own stats endpoint
// has tracing enabled, a fresh id is drawn so the session layer can
// trace calls even for clients that do not.
func (r *RobustConn) CallTraceContext(ctx context.Context, opIdx int, req, replyBuf []byte, tid uint32) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if b := r.batch; b != nil && tid == 0 && ctx.Done() == nil &&
		opIdx >= 0 && opIdx < len(r.batchable) && r.batchable[opIdx] {
		if reply, err, handled := b.call(opIdx, req, replyBuf); handled {
			return reply, err
		}
	}
	idem := opIdx >= 0 && opIdx < len(r.idem) && r.idem[opIdx]
	if tid == 0 {
		tid = r.stats.NextTraceID()
	}
	flags := (tid & 0xFFFF) << traceIDShift
	if idem {
		flags |= flagIdempotent
	}
	return r.callSession(ctx, opIdx, opIdx, req, replyBuf, flags, idem, tid)
}

// callSession frames req under a fresh sequence number and drives the
// retry loop. wireOp is the operation index the transport routes by;
// statOp bills retries to a counter row (negative for none, e.g. for
// batch frames that have no single op). idem permits retrying even
// without an at-most-once session.
//
// Overload protection threads through here: the budget gates every
// retry; a pushback reply (the server shed the call before executing
// it) is retryable regardless of idempotency and sleeps the server's
// advisory RetryAfter instead of the jittered backoff.
func (r *RobustConn) callSession(ctx context.Context, wireOp, statOp int, req, replyBuf []byte, flags uint32, idem bool, tid uint32) ([]byte, error) {
	attempts := r.policy.MaxAttempts
	if !r.atMost && !idem {
		attempts = 1
	}
	seq := r.seq.Add(1)

	fb, _ := r.frames.Get().(*[]byte)
	if fb == nil {
		fb = new([]byte)
	}
	frame := *fb
	need := robustReqHeader + len(req)
	if cap(frame) < need {
		frame = make([]byte, need)
	}
	frame = frame[:need]
	binary.BigEndian.PutUint32(frame[0:4], r.cid)
	binary.BigEndian.PutUint32(frame[4:8], seq)
	binary.BigEndian.PutUint32(frame[8:12], flags)
	binary.BigEndian.PutUint32(frame[12:16], crc32.ChecksumIEEE(req))
	copy(frame[robustReqHeader:], req)

	r.budget.onAttempt()
	var reply []byte
	var err error
	backoff := r.policy.BaseBackoff
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			break
		}
		if attempt > 1 {
			r.stats.AddOp(statOp, stats.OpRetries, 1)
			r.stats.Trace(tid, statOp, stats.StageRetry)
		}
		reply, err = r.callOnce(ctx, wireOp, frame, replyBuf)
		if err == nil {
			break
		}
		var ov *ErrOverloaded
		pushback := errors.As(err, &ov)
		if pushback {
			r.stats.Add(stats.Pushbacks, 1)
		}
		if !Retryable(err) {
			break
		}
		// A pushed-back call never reached the dispatcher, so retrying
		// it is safe even for non-idempotent calls outside an
		// at-most-once session.
		max := attempts
		if pushback && r.policy.MaxAttempts > max {
			max = r.policy.MaxAttempts
		}
		if attempt >= max {
			break
		}
		if !r.budget.allowRetry() {
			r.stats.Add(stats.RetrySuppressed, 1)
			break
		}
		if pushback && ov.RetryAfter > 0 {
			// Honor the server's advisory pause over our own schedule.
			if serr := r.clock.Sleep(ctx, ov.RetryAfter); serr != nil {
				break
			}
			continue
		}
		if serr := r.sleep(ctx, backoff); serr != nil {
			break
		}
		backoff *= 2
		if backoff > r.policy.MaxBackoff {
			backoff = r.policy.MaxBackoff
		}
	}
	*fb = frame[:0]
	r.frames.Put(fb)
	return reply, err
}

// callOnce performs one attempt under the per-attempt timeout and
// verifies the session reply.
func (r *RobustConn) callOnce(ctx context.Context, opIdx int, frame, replyBuf []byte) ([]byte, error) {
	actx := ctx
	var cancel context.CancelFunc
	if r.policy.AttemptTimeout > 0 {
		actx, cancel = r.clock.WithTimeout(ctx, r.policy.AttemptTimeout)
	}
	if r.stats != nil {
		r.stats.Wire.Add(len(frame))
	}
	reply, err := CallConn(actx, r.inner, opIdx, frame, replyBuf)
	if cancel != nil {
		cancel()
	}
	if err != nil {
		return nil, err
	}
	if r.stats != nil {
		r.stats.Wire.Add(len(reply))
	}
	if len(reply) < robustRepHeader {
		r.stats.Add(stats.CorruptReplies, 1)
		return nil, fmt.Errorf("%w: %d-byte frame", ErrCorruptReply, len(reply))
	}
	status := binary.BigEndian.Uint32(reply[0:4])
	sum := binary.BigEndian.Uint32(reply[4:8])
	body := reply[robustRepHeader:]
	if crc32.ChecksumIEEE(body) != sum {
		r.stats.Add(stats.CorruptReplies, 1)
		return nil, ErrCorruptReply
	}
	switch status {
	case sessOK:
		return body, nil
	case sessBadRequest:
		return nil, ErrBadRequestFrame
	default:
		// Pushback statuses carry a retry-after in the upper bits, so
		// they cannot be matched whole; parse strictly and fall through
		// to corruption for anything else.
		if ra, draining, perr := ParsePushbackFrame(reply); perr == nil {
			return nil, &ErrOverloaded{RetryAfter: ra, Draining: draining}
		}
		return nil, fmt.Errorf("%w: unknown status %d", ErrCorruptReply, status)
	}
}

// sleep waits one jittered backoff interval or until ctx expires.
func (r *RobustConn) sleep(ctx context.Context, d time.Duration) error {
	r.rmu.Lock()
	jittered := d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
	r.rmu.Unlock()
	return r.clock.Sleep(ctx, jittered)
}

// A ReplyCache is the server half of at-most-once execution: it
// memoizes one reply frame per (client id, sequence) key, and
// single-flights concurrent duplicates — a retransmit that arrives
// while the original is still executing waits for that execution
// instead of starting another. Completed entries are evicted FIFO
// beyond the capacity.
//
// The cache is sharded: keys hash onto a power-of-two number of
// independently locked shards, so at-most-once bookkeeping for
// unrelated clients never serializes. Calls from one client
// interleave their sequence numbers across every shard (the hash
// mixes the low bits), so even a single chatty client spreads its
// bookkeeping. [idempotent] operations never reach the cache at all.
//
// The cache owns the memory it retains, and a call in steady state
// allocates none of it, whatever the mix of reply sizes. Per shard,
// completed entries sit by value in a ring slab in completion order,
// found through index; their reply bytes are bump-allocated from an
// arena of fixed-size chunks filled in that same order. Eviction takes
// the ring's oldest entry, which is also the arena's oldest bytes, so a
// chunk is recycled exactly when its last entry is evicted, onto a per-shard free list the next refill takes
// from: a run of small replies evicting large ones retires many chunks
// per chunk it fills, and the large run that follows wants them all
// back. Slab and arena grow on demand — nothing is sized by the
// capacity up front — and a shard never holds more chunks, filled and
// free together, than its arena's high-water mark: a new one is made
// only when none is free. Arena bytes never leave the cache: a replay
// is copied into the caller's buffer under the shard lock.
type ReplyCache struct {
	shards     []replyShard
	mask       uint64
	contention atomic.Uint64
	stats      *stats.Endpoint
}

// replyShard is one independently locked slice of the key space,
// padded so adjacent shards do not share a cache line under write
// contention.
type replyShard struct {
	mu      sync.Mutex
	done    sync.Cond // on mu; waited on only by a duplicate that arrives mid-execution
	waiters int       // goroutines in done.Wait
	cap     int
	index   map[uint64]int32 // key → ring slot, or executing
	ring    []cacheEntry     // completed entries; full at len == cap, then head is the oldest
	head    int
	chunks  []arenaChunk // oldest first; the last is being filled
	free    [][]byte     // retired standard-size chunks, taken back before a new one is made
	_       [24]byte
}

// executing is the index value of a key whose first execution is still
// running. It holds no ring slot — a slot is claimed at completion — so
// the ring only ever wraps onto completed entries and an in-flight call
// cannot be evicted.
const executing = -1

// cacheEntry is one retained reply; frame aliases its arena chunk.
type cacheEntry struct {
	key   uint64
	frame []byte
}

// arenaChunk is one block of reply bytes: buf's length is the fill
// mark, live the retained entries inside it.
type arenaChunk struct {
	buf  []byte
	live int
}

// replyChunkSize is the arena's allocation unit. A reply larger than a
// chunk gets a chunk of its own size, returned to the collector when
// its entry is evicted.
const replyChunkSize = 64 << 10

// DefaultReplyCacheSize bounds the cache when NewReplyCacheSharded is
// given a non-positive capacity.
const DefaultReplyCacheSize = 4096

// maxReplyCacheShards caps the default shard count; past the point
// where shards outnumber runnable server workers the extra maps only
// cost memory.
const maxReplyCacheShards = 64

// NewReplyCacheSharded returns a cache retaining up to capacity
// completed replies (DefaultReplyCacheSize when capacity <= 0), its
// state split across the given number of independently locked shards,
// rounded up to a power of two. shards <= 0 derives the count from
// GOMAXPROCS (the next power of two, at most maxReplyCacheShards);
// shards == 1 restores the single-mutex behavior, which experiments
// use as the serial baseline.
func NewReplyCacheSharded(capacity, shards int) *ReplyCache {
	if capacity <= 0 {
		capacity = DefaultReplyCacheSize
	}
	if shards <= 0 {
		shards = goruntime.GOMAXPROCS(0)
		if shards > maxReplyCacheShards {
			shards = maxReplyCacheShards
		}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &ReplyCache{shards: make([]replyShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = perShard
		s.done.L = &s.mu
		s.index = make(map[uint64]int32)
	}
	return c
}

// SetStats points the cache's shard-contention counter at e. Set
// before serving; a nil endpoint (the default) records nothing.
func (c *ReplyCache) SetStats(e *stats.Endpoint) { c.stats = e }

// Contention reports how many lock acquisitions found their shard
// already held — the direct witness that sharding is (or is not)
// spreading load.
func (c *ReplyCache) Contention() uint64 { return c.contention.Load() }

// shardHash spreads the (cid, seq) key over the shards: a splitmix64
// finalizer, so consecutive sequence numbers from one client land on
// different shards.
func shardHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func (c *ReplyCache) shard(key uint64) *replyShard {
	return &c.shards[shardHash(key)&c.mask]
}

// lock takes s.mu, counting the acquisition as contended when the
// uncontended fast path fails.
func (c *ReplyCache) lock(s *replyShard) {
	if s.mu.TryLock() {
		return
	}
	c.contention.Add(1)
	c.stats.Add(stats.ShardContention, 1)
	s.mu.Lock()
}

// do appends the reply frame for key to dst and returns the extended
// slice, running exec — which appends a fresh frame to the dst it is
// given — exactly once per key; duplicates wait for the first execution
// to finish and get a copy of its bytes. The second result reports
// whether the reply was replayed (copied from the cache, possibly after
// waiting out the original execution) rather than produced by this
// call's own exec. exec runs outside the shard lock, so slow handlers
// only serialize true duplicates. A duplicate that waited looks the key
// up afresh when woken: if more than a shard's capacity of other calls
// completed before it ran, its entry is already evicted and it executes
// as a first arrival — the outcome of any duplicate that arrives after
// eviction.
func (c *ReplyCache) do(key uint64, dst []byte, exec func(dst []byte) []byte) ([]byte, bool) {
	s := c.shard(key)
	c.lock(s)
	for {
		slot, ok := s.index[key]
		if !ok {
			break
		}
		if slot != executing {
			dst = append(dst, s.ring[slot].frame...)
			s.mu.Unlock()
			return dst, true
		}
		s.waiters++
		s.done.Wait()
		s.waiters--
	}
	s.index[key] = executing
	s.mu.Unlock()

	out := exec(dst)

	c.lock(s)
	s.retain(key, out[len(dst):])
	if s.waiters > 0 {
		s.done.Broadcast()
	}
	s.mu.Unlock()
	return out, false
}

// retain copies a completed reply into the arena and claims the ring's
// next slot for it, evicting the oldest entry once the ring is full.
func (s *replyShard) retain(key uint64, frame []byte) {
	if len(s.ring) < s.cap {
		s.index[key] = int32(len(s.ring))
		s.ring = append(s.ring, cacheEntry{key, s.alloc(frame)})
		return
	}
	e := &s.ring[s.head]
	delete(s.index, e.key)
	// The oldest entry lives in the oldest chunk — every chunk listed has
	// a tenant — and a chunk it was the last tenant of is recycled, the
	// one being filled included: alloc takes it straight back.
	if k := &s.chunks[0]; k.live > 1 {
		k.live--
	} else {
		if cap(k.buf) == replyChunkSize {
			s.free = append(s.free, k.buf[:0])
		}
		n := copy(s.chunks, s.chunks[1:])
		s.chunks[n] = arenaChunk{}
		s.chunks = s.chunks[:n]
	}
	*e = cacheEntry{key, s.alloc(frame)}
	s.index[key] = int32(s.head)
	s.head = (s.head + 1) % s.cap
}

// alloc copies frame to the arena's fill mark, opening a new chunk when
// the current one has no room for it whole.
func (s *replyShard) alloc(frame []byte) []byte {
	if n := len(s.chunks); n == 0 || cap(s.chunks[n-1].buf)-len(s.chunks[n-1].buf) < len(frame) {
		var buf []byte
		switch last := len(s.free) - 1; {
		case len(frame) > replyChunkSize:
			buf = make([]byte, 0, len(frame))
		case last < 0:
			buf = make([]byte, 0, replyChunkSize)
		default:
			buf, s.free[last] = s.free[last], nil
			s.free = s.free[:last]
		}
		s.chunks = append(s.chunks, arenaChunk{buf: buf})
	}
	k := &s.chunks[len(s.chunks)-1]
	off := len(k.buf)
	k.buf = append(k.buf, frame...)
	k.live++
	return k.buf[off:len(k.buf):len(k.buf)]
}

// Flush evicts every completed reply and releases the slab and the
// arena, returning how many replies were dropped. In-flight executions
// are left to finish; a drain calls Flush after the last in-flight call
// completes, so the memory retires with the session.
func (c *ReplyCache) Flush() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		c.lock(s)
		for j := range s.ring {
			delete(s.index, s.ring[j].key)
		}
		n += len(s.ring)
		s.ring, s.head, s.chunks, s.free = nil, 0, nil, nil
		s.mu.Unlock()
	}
	return n
}

// A SessionServer is the server half of the session layer: it
// unwraps request frames, drives the dispatcher, and wraps replies,
// consulting a ReplyCache so retransmitted non-idempotent calls
// replay their original reply instead of re-executing.
type SessionServer struct {
	disp  *Dispatcher
	plan  *Plan
	cache *ReplyCache
	adm   *Admission // nil: no admission control
}

// NewSessionServer wraps disp/plan. cache may be nil, which disables
// duplicate suppression (clients must then only retry idempotent
// operations).
func NewSessionServer(disp *Dispatcher, plan *Plan, cache *ReplyCache) *SessionServer {
	return &SessionServer{disp: disp, plan: plan, cache: cache}
}

// SetAdmission installs an admission controller: Handle consults it
// before the CRC check (a call that will be shed is not worth
// checksumming) and answers rejected calls with its pushback frame.
// Set before serving; nil (the default) admits everything.
func (s *SessionServer) SetAdmission(a *Admission) { s.adm = a }

// errNoAdmission reports a Drain on a session server with no Admission
// controller installed: nothing could turn new calls away, so flushing
// the reply cache would let a retransmit of a completed call execute
// again.
var errNoAdmission = errors.New("runtime: drain needs an admission controller")

// Drain gracefully retires the session server: new calls are rejected
// with a draining pushback, then Drain waits (bounded by ctx) for
// every admitted in-flight call to complete and flushes the reply
// cache. It reports ctx.Err() when in-flight calls outlive the
// deadline, nil once the server is idle. It requires an installed
// Admission controller, which turns new calls away and owns the
// inflight count; without one it returns an error and leaves
// the cache alone.
func (s *SessionServer) Drain(ctx context.Context) error {
	if s.adm == nil {
		return errNoAdmission
	}
	s.adm.StartDrain()
	for s.adm.Inflight() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		WallClock.Sleep(ctx, 100*time.Microsecond)
	}
	if s.cache != nil {
		s.cache.Flush()
	}
	return nil
}

// Handle processes one request frame and returns the reply frame in a
// buffer of the caller's own: HandleAppend with a nil dst.
func (s *SessionServer) Handle(ctx context.Context, opIdx int, frame []byte) []byte {
	return s.HandleAppend(ctx, opIdx, frame, nil)
}

// HandleAppend processes one request frame, appends the reply frame to
// dst — a buffer the transport owns, typically the one it sends from —
// and returns the extended slice. Nothing it returns is shared: the
// bytes the reply cache retains for a later retransmit are its own
// copy, and a replay is copied out of the cache into dst. With room in
// dst a call allocates nothing here, cached or not.
func (s *SessionServer) HandleAppend(ctx context.Context, opIdx int, frame, dst []byte) []byte {
	if len(frame) < robustReqHeader {
		s.disp.stats.Add(stats.BadFrames, 1)
		return appendBadRequestFrame(dst)
	}
	cid := binary.BigEndian.Uint32(frame[0:4])
	seq := binary.BigEndian.Uint32(frame[4:8])
	flags := binary.BigEndian.Uint32(frame[8:12])
	sum := binary.BigEndian.Uint32(frame[12:16])
	// Admission runs before the CRC check: shedding exists to avoid
	// work, and checksumming a call we are about to reject is work. A
	// rejected call copies out the controller's prebuilt pushback
	// frame.
	if pb := s.adm.Admit(); pb != nil {
		return append(dst, pb...)
	}
	body := frame[robustReqHeader:]
	if crc32.ChecksumIEEE(body) != sum {
		// Damaged in transit: tell the client to retransmit. Not
		// cached — the retry must reach the dispatcher.
		s.adm.Release()
		s.disp.stats.Add(stats.BadFrames, 1)
		return appendBadRequestFrame(dst)
	}
	exec := func(dst []byte) []byte {
		if flags&flagBatch != 0 {
			return s.execBatch(ctx, body, flags>>traceIDShift, dst)
		}
		return s.exec(ctx, opIdx, body, flags>>traceIDShift, dst)
	}
	if flags&flagIdempotent != 0 || s.cache == nil {
		dst = exec(dst)
		s.adm.Release()
		return dst
	}
	// A batch frame is cached and replayed whole under the outer
	// (cid, seq) key: the client retransmits the whole batch, so one
	// cache entry gives every sub-call at-most-once execution.
	key := uint64(cid)<<32 | uint64(seq)
	dst, replayed := s.cache.do(key, dst, exec)
	s.adm.Release()
	if replayed && s.disp.stats != nil {
		s.billReplay(opIdx, flags, body)
	}
	return dst
}

// billReplay counts a replayed reply against the ops it answers: the
// frame's op, or — for a batch, which travels as wire op 0 — each
// sub-call's.
func (s *SessionServer) billReplay(opIdx int, flags uint32, body []byte) {
	if flags&flagBatch == 0 {
		s.disp.stats.AddOp(opIdx, stats.OpReplays, 1)
		return
	}
	ops, _, _ := decodeBatchRequest(body)
	for _, op := range ops {
		s.disp.stats.AddOp(op, stats.OpReplays, 1)
	}
}

// exec dispatches one request body and appends a fresh reply frame to
// dst.
func (s *SessionServer) exec(ctx context.Context, opIdx int, body []byte, tid uint32, dst []byte) []byte {
	f := acquireFrame()
	enc := f.encoder(s.plan)
	s.disp.serve(ctx, f, s.plan, opIdx, body, enc, tid, true)
	out := enc.Bytes()
	dst = binary.BigEndian.AppendUint32(dst, sessOK)
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(out))
	dst = append(dst, out...)
	releaseFrame(f)
	return dst
}

// appendBadRequestFrame appends the reply that asks for a retransmit.
// crc32 of its empty body is 0.
func appendBadRequestFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, sessBadRequest, 0, 0, 0, 0)
}
