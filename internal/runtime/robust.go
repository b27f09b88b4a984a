package runtime

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexrpc/internal/pres"
	"flexrpc/internal/stats"
)

// The robustness layer's shells: RobustConn (client) and
// SessionServer (server) hold the locks, the clock, the retry budget
// and the I/O of the session protocol, and the ReplyCache its memory.
// Every decision of the protocol — frame layout, statuses, the client's
// sequence and ack state, the retry step and the server step — is in
// session.go; DESIGN.md §6 has it as one table.

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
func Retryable(err error) bool { return err != nil && faultOutcome(err) == attemptFault }

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
	// 100ms). The actual sleep is jittered uniformly over [d/2, d].
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
	idem      []bool // by op index: may retry without the cache
	batchable []bool // by op index: may ride in a batch frame
	atMost    bool
	policy    RetryPolicy
	batch     *batcher // nil until EnableBatching
	budget    *RetryBudget

	mu sync.Mutex // guards clientState
	clientState

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
	for i := range p.Ops {
		idem[i], batchable[i] = p.Ops[i].Idempotent, p.Ops[i].Batchable
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
		inner:       inner,
		cid:         opts.ClientID,
		idem:        idem,
		batchable:   batchable,
		atMost:      opts.AtMostOnce,
		policy:      opts.Policy.withDefaults(),
		budget:      opts.Budget,
		clock:       clock,
		clientState: clientState{rng: uint64(seed)},
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
	if tid == 0 {
		tid = r.stats.NextTraceID()
	}
	idem := opIdx >= 0 && opIdx < len(r.idem) && r.idem[opIdx]
	return r.callSession(ctx, opIdx, opIdx, req, replyBuf, reqHeader{idem: idem, tid: tid})
}

// callSession frames req under a fresh sequence number, acknowledging
// an earlier finished call, and runs the retry step after each
// attempt; once it returns, a cacheable call's seq waits for a later
// frame to acknowledge it. wireOp is the operation index the transport
// routes by; statOp bills retries to a counter row (negative for none,
// e.g. for batch frames that have no single op). h says whether the
// frame is idempotent — which permits retrying even without an
// at-most-once session — or a batch, and its trace id. The budget gates
// every retry.
func (r *RobustConn) callSession(ctx context.Context, wireOp, statOp int, req, replyBuf []byte, h reqHeader) ([]byte, error) {
	h.cid = r.cid
	r.mu.Lock()
	h.seq, h.ackDist = r.nextSeq()
	r.mu.Unlock()
	fb, _ := r.frames.Get().(*[]byte)
	if fb == nil {
		fb = new([]byte)
	}
	frame := appendRequest((*fb)[:0], &h, req)

	r.budget.onAttempt()
	var reply []byte
	var err error
	var step retryStep
	for {
		var o attemptOutcome
		reply, o, err = r.callOnce(ctx, wireOp, frame, replyBuf)
		var ra time.Duration
		if o == attemptPushback {
			r.stats.Add(stats.Pushbacks, 1)
			ra = err.(*ErrOverloaded).RetryAfter
		}
		act, d := step.next(o, ra, &r.policy, r.atMost || h.idem)
		if act == retryDone {
			break
		}
		if !r.budget.allowRetry() {
			r.stats.Add(stats.RetrySuppressed, 1)
			break
		}
		if act == retryBackoff {
			r.mu.Lock()
			d = r.jitter(d)
			r.mu.Unlock()
		}
		if r.clock.Sleep(ctx, d) != nil || ctx.Err() != nil {
			break
		}
		r.stats.AddOp(statOp, stats.OpRetries, 1)
		r.stats.Trace(h.tid, statOp, stats.StageRetry)
	}
	*fb = frame[:0]
	r.frames.Put(fb)
	if !h.idem {
		r.mu.Lock()
		r.finished(h.seq)
		r.mu.Unlock()
	}
	return reply, err
}

// callOnce performs one attempt under the per-attempt timeout and
// reads the session reply.
func (r *RobustConn) callOnce(ctx context.Context, opIdx int, frame, replyBuf []byte) ([]byte, attemptOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, attemptCtxDone, err
	}
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
		return nil, faultOutcome(err), err
	}
	if r.stats != nil {
		r.stats.Wire.Add(len(reply))
	}
	body, o, err := readReply(reply)
	if o == attemptCorrupt {
		r.stats.Add(stats.CorruptReplies, 1)
	}
	return body, o, err
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
// arena of fixed-size chunks filled in that same order, and each entry
// records the number of the chunk it lives in. Eviction takes the
// ring's oldest entry. An entry's bytes are released either then or
// earlier, when its client acknowledges the reply (ack): the entry
// stays in the ring and the index as a tombstone without bytes, so the
// dedupe window — the last capacity completions per shard — is the
// same whether or not clients acknowledge. A chunk is recycled once it
// and every older chunk have no tenant, the one being filled included,
// onto a per-shard free list the next refill takes from: a run of
// small replies evicting large ones retires many chunks per chunk it
// fills, and the large run that follows wants them all back. Slab and
// arena grow on demand — nothing is sized by the capacity up front —
// and a shard never holds more chunks, filled and free together, than
// its arena's high-water mark: a new one is made only when none is
// free. A client that acknowledges each reply on its next call keeps
// its shards' arenas at a chunk or two; one that goes quiet pins the
// chunk of its last reply, and the chunks filled after it, until that
// reply is acknowledged or evicted. Arena bytes never leave the cache:
// a replay is copied into the caller's buffer under the shard lock.
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
	base    uint32       // number of chunks[0]
	_       [20]byte
}

// executing is the index value of a key whose first execution is still
// running. It holds no ring slot — a slot is claimed at completion — so
// the ring only ever wraps onto completed entries and an in-flight call
// cannot be evicted.
const executing = -1

// cacheEntry is one completed key. Until acked, frame is its retained
// reply, aliasing arena chunk number chunk; an acked entry is a
// tombstone that holds no bytes.
type cacheEntry struct {
	key   uint64
	frame []byte
	chunk uint32
	acked bool
}

// arenaChunk is one block of reply bytes: buf's length is the fill
// mark, live the unacknowledged entries inside it.
type arenaChunk struct {
	buf  []byte
	live int
}

// replyChunkSize is the arena's allocation unit. A reply larger than a
// chunk gets a chunk of its own size, returned to the collector when
// it is recycled.
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

// cacheOutcome is how the cache answered a key.
type cacheOutcome uint8

const (
	cacheExecuted cacheOutcome = iota // this call's own exec produced the reply
	cacheReplayed                     // a copy of the reply the first execution kept
	cacheStale                        // the key's reply was acknowledged: a sessStale frame
)

// do appends the reply frame for key to dst and returns the extended
// slice, running exec — which appends a fresh frame to the dst it is
// given — exactly once per key; duplicates wait for the first execution
// to finish and get a copy of its bytes, or a sessStale frame once the
// key's reply was acknowledged, and are never executed. exec runs
// outside the shard lock, so slow handlers only serialize true
// duplicates. A duplicate that waited looks the key up afresh when
// woken: if more than a shard's capacity of other calls completed
// before it ran, its entry is already evicted and it executes as a
// first arrival — the outcome of any duplicate that arrives after
// eviction.
func (c *ReplyCache) do(key uint64, dst []byte, exec func(dst []byte) []byte) ([]byte, cacheOutcome) {
	s := c.shard(key)
	c.lock(s)
	for {
		slot, ok := s.index[key]
		if !ok {
			break
		}
		if slot != executing {
			out := cacheReplayed
			if e := &s.ring[slot]; e.acked {
				dst, out = appendEmptyReply(dst, sessStale), cacheStale
			} else {
				dst = append(dst, e.frame...)
			}
			s.mu.Unlock()
			return dst, out
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
	return out, cacheExecuted
}

// retain copies a completed reply into the arena and claims the ring's
// next slot for it, evicting the oldest entry once the ring is full.
func (s *replyShard) retain(key uint64, frame []byte) {
	if len(s.ring) < s.cap {
		s.index[key] = int32(len(s.ring))
		s.ring = append(s.ring, s.alloc(key, frame))
		return
	}
	e := &s.ring[s.head]
	delete(s.index, e.key)
	// Evicting first recycles a chunk the oldest entry was the last
	// tenant of, the one being filled included: alloc takes it straight
	// back.
	if !e.acked {
		s.release(e.chunk)
	}
	*e = s.alloc(key, frame)
	s.index[key] = int32(s.head)
	s.head = (s.head + 1) % s.cap
}

// alloc copies frame to the arena's fill mark, opening a new chunk when
// the current one has no room for it whole, and returns key's entry.
func (s *replyShard) alloc(key uint64, frame []byte) cacheEntry {
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
	n := len(s.chunks) - 1
	k := &s.chunks[n]
	off := len(k.buf)
	k.buf = append(k.buf, frame...)
	k.live++
	return cacheEntry{key: key, frame: k.buf[off:len(k.buf):len(k.buf)], chunk: s.base + uint32(n)}
}

// release drops one tenant of chunk number n, then recycles the chunks
// that, oldest first, are left with none. Chunk numbers wrap; only
// their distance from base matters.
func (s *replyShard) release(n uint32) {
	s.chunks[n-s.base].live--
	i := 0
	for ; i < len(s.chunks) && s.chunks[i].live == 0; i++ {
		if b := s.chunks[i].buf; cap(b) == replyChunkSize {
			s.free = append(s.free, b[:0])
		}
	}
	if i > 0 {
		n := copy(s.chunks, s.chunks[i:])
		clear(s.chunks[n:])
		s.chunks = s.chunks[:n]
		s.base += uint32(i)
	}
}

// ack releases the reply bytes retained for key, whose client has
// received them or given up, and leaves the key as a tombstone: until
// FIFO eviction a retransmit of it is answered sessStale, never
// executed. A key that is executing, or is not cached, is left alone.
func (c *ReplyCache) ack(key uint64) {
	s := c.shard(key)
	c.lock(s)
	if slot, ok := s.index[key]; ok && slot != executing {
		if e := &s.ring[slot]; !e.acked {
			s.release(e.chunk)
			e.frame, e.acked = nil, true
		}
	}
	s.mu.Unlock()
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
	h, ok := parseRequest(frame)
	if !ok {
		s.disp.stats.Add(stats.BadFrames, 1)
		return appendEmptyReply(dst, sessBadRequest)
	}
	// Admission runs before the CRC check: shedding exists to avoid
	// work, and checksumming a call we are about to reject is work. A
	// rejected call copies out the controller's prebuilt pushback
	// frame.
	if pb := s.adm.Admit(); pb != nil {
		return append(dst, pb...)
	}
	act, ack, acks := serverStep(frame, &h, s.cache != nil)
	if act == serveRefuse {
		s.adm.Release()
		s.disp.stats.Add(stats.BadFrames, 1)
		return appendEmptyReply(dst, sessBadRequest)
	}
	if acks {
		s.cache.ack(ack)
	}
	body := frame[robustReqHeader:]
	exec := func(dst []byte) []byte {
		if h.batch {
			return s.execBatch(ctx, body, h.tid, dst)
		}
		f := acquireFrame()
		enc := f.encoder(s.plan)
		s.disp.serve(ctx, f, s.plan, opIdx, body, enc, h.tid, true)
		dst = appendReply(dst, sessOK, enc.Bytes())
		frames.Put(f)
		return dst
	}
	if act == serveUncached {
		dst = exec(dst)
		s.adm.Release()
		return dst
	}
	// A batch frame is cached and replayed whole under the outer
	// (cid, seq) key: the client retransmits the whole batch, so one
	// cache entry gives every sub-call at-most-once execution.
	dst, out := s.cache.do(h.key(), dst, exec)
	s.adm.Release()
	switch {
	case out == cacheStale:
		// A stale answer replays no reply, so it is not billed as one.
		s.disp.stats.Add(stats.StaleRetransmits, 1)
	case out == cacheReplayed && s.disp.stats != nil:
		// A replay is billed to the ops it answers: the frame's, or —
		// for a batch, which travels as wire op 0 — each sub-call's.
		ops := []int{opIdx}
		if h.batch {
			ops, _, _ = decodeBatchRequest(body)
		}
		for _, op := range ops {
			s.disp.stats.AddOp(op, stats.OpReplays, 1)
		}
	}
	return dst
}
