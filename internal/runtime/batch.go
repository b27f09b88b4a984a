package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"time"

	"flexrpc/internal/stats"
)

// Client-side call batching: [batchable] operations may be queued for
// at most a fixed delay (maxBatchDelay, 200µs) and sent to the server
// merged into one session frame, amortizing per-call framing,
// checksums and transport round trips across small calls. The batch
// frame rides the ordinary session layer (flagBatch set), so it
// inherits CRC protection, retries, and — under the outer (cid, seq)
// key — at-most-once execution of the whole batch.
//
// Wire format, big-endian, inside the session body:
//
//	request: count(4), then per sub-call: opIdx(4) len(4) body
//	reply:   count(4), then per sub-call: len(4) body
//
// Each sub-call body is byte-identical to the body an unbatched call
// would have carried: batching is endpoint-private presentation, not
// a wire-contract change.

// ErrBadBatch reports a structurally invalid batch body.
var ErrBadBatch = errors.New("runtime: malformed batch frame")

// maxBatchCount bounds the sub-call count a decoder will accept
// before reading entry headers; every entry needs at least 8 bytes,
// so a count beyond len(body)/8 is already provably corrupt.
func maxBatchCount(body []byte) uint32 { return uint32(len(body) / 8) }

// appendBatchEntry appends one sub-call (request form) to a batch
// request body under construction.
func appendBatchEntry(dst []byte, opIdx uint32, req []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, opIdx)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req)))
	return append(dst, req...)
}

// decodeBatchRequest splits a batch request body into per-sub-call
// operation indices and bodies. The returned bodies alias body.
func decodeBatchRequest(body []byte) (ops []int, reqs [][]byte, err error) {
	if len(body) < 4 {
		return nil, nil, ErrBadBatch
	}
	count := binary.BigEndian.Uint32(body[0:4])
	if count == 0 || count > maxBatchCount(body[4:]) {
		return nil, nil, ErrBadBatch
	}
	rest := body[4:]
	ops = make([]int, 0, count)
	reqs = make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 8 {
			return nil, nil, ErrBadBatch
		}
		op := binary.BigEndian.Uint32(rest[0:4])
		n := binary.BigEndian.Uint32(rest[4:8])
		rest = rest[8:]
		if uint32(len(rest)) < n {
			return nil, nil, ErrBadBatch
		}
		ops = append(ops, int(op))
		reqs = append(reqs, rest[:n:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, nil, ErrBadBatch
	}
	return ops, reqs, nil
}

// appendBatchReplyEntry appends one sub-reply to a batch reply body
// under construction.
func appendBatchReplyEntry(dst, rep []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rep)))
	return append(dst, rep...)
}

// decodeBatchReply splits a batch reply body into want sub-reply
// bodies, which alias body.
func decodeBatchReply(body []byte, want int) ([][]byte, error) {
	if len(body) < 4 {
		return nil, ErrBadBatch
	}
	count := binary.BigEndian.Uint32(body[0:4])
	rest := body[4:]
	// Bound count by what the body could possibly hold (4 bytes per
	// entry minimum) BEFORE sizing anything by it: the count word is
	// attacker-controlled until the entries actually check out.
	if int(count) != want || count > uint32(len(rest)/4) {
		return nil, ErrBadBatch
	}
	out := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, ErrBadBatch
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		rest = rest[4:]
		if uint32(len(rest)) < n {
			return nil, ErrBadBatch
		}
		out = append(out, rest[:n:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, ErrBadBatch
	}
	return out, nil
}

// execBatch executes every sub-call of a batch request body in order
// and appends the complete session reply frame to dst. A malformed
// batch is answered like a corrupted frame: the client retransmits the
// whole batch.
func (s *SessionServer) execBatch(ctx context.Context, body []byte, tid uint32, dst []byte) []byte {
	ops, reqs, err := decodeBatchRequest(body)
	if err != nil {
		s.disp.stats.Add(stats.BadFrames, 1)
		return appendBadRequestFrame(dst)
	}
	f := acquireFrame()
	// The body's checksum is known only once every sub-reply is in.
	hdr := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, sessOK)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ops)))
	for i, opIdx := range ops {
		enc := f.encoder(s.plan)
		s.disp.serve(ctx, f, s.plan, opIdx, reqs[i], enc, tid, true)
		dst = appendBatchReplyEntry(dst, enc.Bytes())
	}
	releaseFrame(f)
	binary.BigEndian.PutUint32(dst[hdr+4:], crc32.ChecksumIEEE(dst[hdr+robustRepHeader:]))
	return dst
}

// batchFlushBytes flushes the queue when the queued request bodies
// reach this many bytes, so large calls don't pile up behind the timer.
const batchFlushBytes = 16 << 10

// maxBatchDelay bounds how long any call — including a lone one — may
// wait for companions before the queue is flushed: fixed, and well
// under one transport RTT, so batching is a net win.
const maxBatchDelay = 200 * time.Microsecond

// BatchOptions size the client-side batcher. The zero value of any
// field selects its default.
type BatchOptions struct {
	// MaxCalls flushes the queue when this many calls are waiting
	// (default 16).
	MaxCalls int
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxCalls <= 0 {
		o.MaxCalls = 16
	}
	return o
}

// EnableBatching starts the adaptive small-call batcher: concurrent
// calls to [batchable] operations are merged into single session
// frames, flushed when MaxCalls calls or 16 KiB accumulate or
// maxBatchDelay elapses, whichever is first. Calls carrying a
// cancelable context, a trace id, or a non-[batchable] operation
// bypass the queue and use the ordinary per-call path. Call before the conn is shared; call at
// most once.
func (r *RobustConn) EnableBatching(opts BatchOptions) {
	b := &batcher{
		r:    r,
		opts: opts.withDefaults(),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	r.batch = b
	go b.run()
}

type batchCall struct {
	opIdx int
	req   []byte
	done  chan batchResult
}

type batchResult struct {
	body []byte // aliases the batch reply; receiver must copy
	err  error
}

// batcher accumulates batchable calls and flushes them as single
// session frames. Size-triggered flushes run on the enqueuing
// goroutine; the timer flush runs on a dedicated flusher goroutine
// driven by the conn's Clock, so a lone call never waits past
// maxBatchDelay.
type batcher struct {
	r    *RobustConn
	opts BatchOptions

	mu     sync.Mutex
	queue  []*batchCall
	bytes  int
	closed bool

	wake   chan struct{} // a fresh queue generation started
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // flusher exited
}

// call enqueues one sub-call and waits for its reply. handled is
// false when the batcher is closed, telling the caller to fall back
// to the unbatched path.
func (b *batcher) call(opIdx int, req, replyBuf []byte) (reply []byte, err error, handled bool) {
	c := &batchCall{
		opIdx: opIdx,
		req:   append([]byte(nil), req...), // the caller reuses req after we return
		done:  make(chan batchResult, 1),
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, nil, false
	}
	wasEmpty := len(b.queue) == 0
	b.queue = append(b.queue, c)
	b.bytes += len(req)
	var batch []*batchCall
	if len(b.queue) >= b.opts.MaxCalls || b.bytes >= batchFlushBytes {
		batch = b.takeLocked()
	}
	b.mu.Unlock()

	if batch != nil {
		b.send(batch)
	} else if wasEmpty {
		select {
		case b.wake <- struct{}{}:
		default:
		}
	}
	res := <-c.done
	if res.err != nil {
		return nil, res.err, true
	}
	return append(replyBuf[:0], res.body...), nil, true
}

func (b *batcher) takeLocked() []*batchCall {
	batch := b.queue
	b.queue = nil
	b.bytes = 0
	return batch
}

// run is the timer flusher: each time a fresh queue starts it sleeps
// maxBatchDelay on the conn's clock and flushes whatever is waiting. A
// size-triggered flush may empty the queue first; the subsequent
// timer flush of an empty queue is a no-op. Because the flusher was
// already armed by an earlier generation at worst, no call ever waits
// longer than maxBatchDelay.
func (b *batcher) run() {
	defer close(b.done)
	for {
		select {
		case <-b.ctx.Done():
			b.flush()
			return
		case <-b.wake:
		}
		_ = b.r.clock.Sleep(b.ctx, maxBatchDelay)
		b.flush()
		if b.ctx.Err() != nil {
			b.flush()
			return
		}
	}
}

// flush sends whatever is queued right now.
func (b *batcher) flush() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.send(batch)
	}
}

// send transmits one batch as a single session call and distributes
// the sub-replies. The batch frame is [idempotent] only when every
// sub-call is, and rides wire op 0: the server demultiplexes by the
// flagBatch bit, with per-sub-call op indices inside the body.
func (b *batcher) send(batch []*batchCall) {
	r := b.r
	body := binary.BigEndian.AppendUint32(nil, uint32(len(batch)))
	idem := true
	for _, c := range batch {
		if !(c.opIdx < len(r.idem) && r.idem[c.opIdx]) {
			idem = false
		}
		body = appendBatchEntry(body, uint32(c.opIdx), c.req)
	}
	flags := uint32(flagBatch)
	if idem {
		flags |= flagIdempotent
	}
	r.stats.AddBatched(len(batch))
	reply, err := r.callSession(context.Background(), 0, -1, body, nil, flags, idem, 0)
	var bodies [][]byte
	if err == nil {
		bodies, err = decodeBatchReply(reply, len(batch))
	}
	for i, c := range batch {
		if err != nil {
			c.done <- batchResult{err: err}
		} else {
			c.done <- batchResult{body: bodies[i]}
		}
	}
}

// close flushes the queue, stops the flusher and rejects future
// enqueues (callers fall back to the unbatched path).
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.cancel()
	<-b.done
}
