package sunrpc

// The server connection core. Every connection the server serves,
// whatever SetConcurrency and SetNetpoll say, is one srvConn: a read
// state machine feeding the push record assembler, an executor each
// completed record is submitted to, a combining reply flusher, and one
// teardown. It varies in two places only:
//
//   - Who feeds it bytes. The poller feed (netpoll requested, the
//     platform has a poller, the conn exposes a descriptor) reads the
//     raw fd without blocking on readiness edges, so an idle connection
//     costs no goroutine. The goroutine feed parks one goroutine in
//     conn.Read; it is the only feed on platforms without a poller and
//     for descriptor-less conns (net.Pipe), which is why it stays.
//   - Who executes a record. The server's shared workerPool
//     (SetConcurrency(n > 1), or netpoll), or the feeding goroutine
//     itself, inline, which keeps replies in request order.
//
// fd ownership (poller feed): the descriptor is extracted once via
// syscall.RawConn and the net.Conn stays alive for the srvConn's whole
// lifetime, so the number stays valid. Reads go straight through
// syscall.Read (the sockets are already non-blocking under Go's
// runtime); writes use conn.Write so the Go netpoller parks blocked
// flushers. The descriptor is deregistered from the poller before
// conn.Close() runs — closing a registered fd invites the fd-reuse race
// where a recycled descriptor number receives a stale event — and only
// whoever retires the read side closes it, never anyone under an active
// reader, whose next syscall.Read would land on a recycled number.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"flexrpc/internal/netpoll"
	"flexrpc/internal/stats"
)

// aLongTimeAgo is a past deadline used to unpark blocked writers.
var aLongTimeAgo = time.Unix(1, 0)

// Read scratch sizes. The poller feed borrows a pooled pollReadBuf per
// draining pass, so idle connections hold none. A goroutine feed — the
// client's reply reader is one too — holds its scratch while parked in
// Read, so it gets goReadBuf: one Read still carries a 1 KiB call and
// its headers, and a fragment larger than the scratch bypasses it (see
// recordAssembler.landing).
const (
	pollReadBuf = 64 << 10
	goReadBuf   = 4 << 10
)

// srvConnMaxPending caps the bytes of finished replies buffered on one
// connection awaiting flush. Past it the read state machine pauses, so
// a slow-reading client that keeps pipelining requests stalls its own
// ingest — TCP pushes back on the peer — and pins O(cap + in-flight
// jobs) server memory instead of growing without bound. The cap gates
// the reader rather than the pool workers so one slow client can never
// park the shared pool.
const srvConnMaxPending = 256 << 10

// Read states. Exactly one goroutine owns the read side at a time: the
// one that moved rstate to rActive under mu.
//
//	rIdle ──edge──▶ rActive ──pending cap, or pool queue full──▶ rPaused
//	  ▲               │  ▲                                         │
//	  └────EAGAIN─────┘  └───flusher under cap, job off the queue──┘
//	                  └──EOF / error / close──▶ rDone
const (
	rIdle   = iota // poller feed only: registered, waiting for a readiness edge
	rActive        // a goroutine is draining the descriptor, or parked in conn.Read
	rPaused        // over the pending-reply cap, or its job waits for a pool slot
	rDone          // read side retired (EOF, error, or close)
)

// srvConn is one served connection. It owns no goroutine of its own:
// reads run on a poller wakeup or the goroutine feed, replies are
// flushed by whichever executor finishes first (see enqueueReply).
type srvConn struct {
	// Reassembly state, touched only by the goroutine owning rActive.
	// It is written on every record, so it comes first and the
	// read-only fields after it keep it off the cache lines the
	// executors contend on under mu.
	asm    recordAssembler
	holder *[]byte // partially assembled record (pooled), nil between records
	carry  []byte  // read bytes not yet ingested when the read side paused (< one scratch)

	srv  *Server
	conn net.Conn

	pl     *netpoll.Poller // poller feed; nil means the goroutine feed
	fd     int
	resume chan struct{} // goroutine feed: the paused feeder waits here, in place

	pool   *workerPool // executor: the shared pool, or when nil
	inline *executor   // the feeding goroutine itself

	closeOnce sync.Once
	done      chan struct{} // closed by finish(); ServeConn parks here

	mu       sync.Mutex
	pending  []byte // record-marked replies awaiting the flusher
	queued   int    // reply count inside pending
	spare    []byte // previous flush buffer, recycled on swap
	flushing bool   // some goroutine currently owns this connection's flush
	werr     error  // first write error; poisons the stream
	rstate   int
	rearm    bool  // readiness edge arrived while rActive; drain again before idling
	stalled  bool  // paused until its job gets a slot in the pool's full queue
	closing  bool  // close requested, or the read side failed: wind down, owing nothing
	tornDown bool  // finish() ran (or is about to); guards double teardown
	njobs    int   // records submitted, replies not yet flushed or discarded
	err      error // terminal status reported by ServeConn
}

// onReady starts or continues the read side: claim rActive and read,
// or note the edge for the goroutine already reading. It is the poller
// callback, the kick that picks up data which arrived before an edge-
// triggered registration, and the body of the goroutine feed.
func (c *srvConn) onReady(bool) {
	c.mu.Lock()
	switch c.rstate {
	case rActive:
		c.rearm = true
		c.mu.Unlock()
		return
	case rPaused, rDone:
		// Paused conns are resumed by settleLocked (the resumed reader
		// always reads to EAGAIN, so no edge is lost); done conns are
		// winding down.
		c.mu.Unlock()
		return
	}
	c.rstate = rActive
	c.mu.Unlock()
	c.readLoop()
}

// readLoop reads until the feed runs dry (poller feed: EAGAIN, back to
// rIdle), the read side pauses (rPaused; settleLocked resumes), or it
// finishes (rDone). It runs on whichever goroutine claimed rActive — a
// poller, the goroutine feed, or the one spawned to resume a paused
// poller feed.
func (c *srvConn) readLoop() {
	var buf []byte
	if c.pl != nil {
		bufp := c.srv.pollBufs.Get().(*[]byte)
		defer c.srv.pollBufs.Put(bufp)
		buf = *bufp
	} else {
		buf = make([]byte, goReadBuf)
	}
	for {
		c.mu.Lock()
		if c.closing || c.werr != nil {
			c.finishReadLocked(nil)
			return
		}
		c.mu.Unlock()

		// Bytes left over from the read that paused us come before
		// anything new from the descriptor.
		var n int
		var paused bool
		var rerr, err error
		if b := c.carry; len(b) > 0 {
			c.carry = b[:0]
			paused, err = c.ingest(b)
		} else if dst := c.asm.landing(c.holder, len(buf)); dst != nil {
			if n, rerr = c.read(dst); c.asm.landed(n, c.holder) {
				paused = c.submit(nil)
			} else if n > 0 {
				c.srv.stats.Add(stats.PartialReads, 1)
			}
		} else {
			n, rerr = c.read(buf)
			paused, err = c.ingest(buf[:n])
		}
		if err != nil {
			c.mu.Lock()
			c.finishReadLocked(err)
			return
		}
		if paused {
			if c.pl != nil {
				return
			}
			<-c.resume
			continue
		}
		switch {
		case rerr == nil:
		case rerr == syscall.EAGAIN:
			// Drained. Go around again if an edge fired meanwhile — its
			// data may have landed after our last read — or if the
			// connection died, which the top of the loop retires.
			c.mu.Lock()
			again := c.rearm || c.closing || c.werr != nil
			c.rearm = false
			if !again {
				c.rstate = rIdle
			}
			c.mu.Unlock()
			if !again {
				return
			}
		default:
			// EOF may be a half-close with pipelined replies still
			// owed; finishReadLocked keeps the descriptor open until
			// the last of them is flushed. A peer that reset, or a
			// close that raced the read, winds down as quietly.
			if peerGone(rerr) {
				rerr = nil
			} else {
				rerr = fmt.Errorf("sunrpc: read: %w", rerr)
			}
			c.mu.Lock()
			c.finishReadLocked(rerr)
			return
		}
	}
}

// read is the feed's one read: non-blocking on the poller feed (EAGAIN
// once the descriptor is drained), blocking on the goroutine feed.
func (c *srvConn) read(buf []byte) (int, error) {
	if c.pl == nil {
		return c.conn.Read(buf)
	}
	for {
		n, err := syscall.Read(c.fd, buf)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func peerGone(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.EBADF)
}

// ingest feeds one read's bytes through the reassembler and submits
// each completed record, stopping when one pauses the read side. Steady
// state allocates nothing: record holders are pooled and grow to their
// working size.
func (c *srvConn) ingest(b []byte) (paused bool, err error) {
	for len(b) > 0 {
		if c.holder == nil {
			c.holder = c.srv.recBufs.Get().(*[]byte)
			*c.holder = (*c.holder)[:0]
		}
		n, complete, err := c.asm.feed(b, c.holder)
		if err != nil {
			return false, err
		}
		b = b[n:]
		if !complete {
			break
		}
		if c.submit(b) {
			return true, nil
		}
	}
	if c.asm.midRecord() {
		c.srv.stats.Add(stats.PartialReads, 1)
	}
	return false, nil
}

// submit hands the completed record in holder to the executor; rest is
// what the current read holds beyond it. It never blocks — the caller
// may be a poller that owns many connections — but pauses the read side,
// stashing rest in carry, over the pending-reply cap (checked per record:
// one read can carry hundreds of pipelined requests with far larger
// replies) and on a full pool queue. rPaused is published in the
// critical section that hands the record over, so neither the flush of
// its reply nor the slot it waits for can resume a reader not yet paused.
func (c *srvConn) submit(rest []byte) (paused bool) {
	job := poolJob{c, c.holder}
	c.holder = nil
	c.srv.stats.Add(stats.Queued, 1)
	c.mu.Lock()
	c.njobs++
	stalled := false
	if c.pool != nil {
		select {
		case c.pool.jobs <- job:
		default:
			stalled = true // every worker is busy
		}
	}
	if paused = stalled || len(c.pending) > srvConnMaxPending; paused {
		c.stalled = stalled
		c.carry = append(c.carry[:0], rest...)
		c.rstate = rPaused
	}
	c.mu.Unlock()
	switch {
	case c.pool == nil:
		c.inline.run(c, job.holder)
	case stalled:
		// Wait for a slot — blocked senders queue in arrival order — on
		// a goroutine that may: at most one a connection.
		go func() {
			c.pool.jobs <- job
			c.mu.Lock()
			c.stalled = false
			c.settleLocked(0)
		}()
	}
	return paused
}

// enqueueReply appends one finished reply to the connection's pending
// buffer and, unless another goroutine already owns the flush, becomes
// the flusher: it keeps writing until nothing is pending, so every
// reply that lands while a Write is in flight coalesces into the next
// one. njobs is released per reply flushed, or discarded on a poisoned
// stream — never at mere enqueue — so the connection cannot tear down
// while replies are still buffered.
func (c *srvConn) enqueueReply(rep []byte) {
	c.mu.Lock()
	if c.werr != nil {
		c.settleLocked(1) // discarded: the stream is already poisoned
		return
	}
	c.pending = appendRecord(c.pending, rep)
	c.queued++
	if c.flushing {
		c.mu.Unlock()
		return
	}
	c.flushing = true
	done := 0
	for c.werr == nil && len(c.pending) > 0 {
		buf, n := c.pending, c.queued
		c.pending, c.queued = c.spare[:0], 0
		c.spare = nil
		c.mu.Unlock()
		_, err := c.conn.Write(buf)
		c.mu.Lock()
		c.spare = buf
		if err != nil {
			// The stream is poisoned mid-record: discard whatever
			// queued behind the failed write.
			c.werr = fmt.Errorf("sunrpc: write: %w", err)
			n += c.queued
			c.pending, c.queued = c.pending[:0], 0
		} else {
			c.srv.stats.AddFlush(n)
		}
		done += n
	}
	c.flushing = false
	c.settleLocked(done)
}

// finishReadLocked retires the read side (mu held on entry; unlocks).
// A read error kills the connection at once; after a clean EOF with
// replies still owed it stays open so they reach the half-closed peer,
// and the last flush tears it down.
func (c *srvConn) finishReadLocked(rerr error) {
	if rerr != nil {
		if !c.closing && c.werr == nil {
			c.err = rerr
		}
		c.closing = true
	}
	c.rstate = rDone
	c.settleLocked(0)
}

// close is Drain's request to wind the connection down.
func (c *srvConn) close() {
	c.mu.Lock()
	c.closing = true
	c.settleLocked(0)
}

// settleLocked is where every state change lands (mu held on entry;
// unlocks): it credits done flushed or discarded replies, resumes a
// paused reader, retires the read side of a dead connection, and tears
// down once the read side is done and the last owed reply has left.
func (c *srvConn) settleLocked(done int) {
	c.njobs -= done
	resume, closeNow := false, false
	dead := c.closing || c.werr != nil
	if c.rstate == rPaused && (dead && c.pl == nil ||
		!dead && !c.stalled && len(c.pending) <= srvConnMaxPending) {
		// Resume — or, on a dead connection, wake a goroutine feed
		// waiting in place, which retires its read side like any other.
		c.rstate = rActive
		resume = true
	}
	switch {
	case !dead:
	case c.rstate != rActive:
		c.rstate = rDone
		closeNow = true
	case c.pl == nil:
		// The goroutine feed is parked in conn.Read, and closing the
		// conn is what wakes it; it reads through the net.Conn, not a
		// raw descriptor, so closing under it is safe.
		closeNow = true
	default:
		// The poller feed reads the raw descriptor, which must not be
		// closed (and recycled) under it: the reader finds the
		// connection dead when it next looks, and closes. Meanwhile
		// unpark a flusher blocked in Write.
		c.conn.SetWriteDeadline(aLongTimeAgo)
	}
	fin := c.rstate == rDone && c.njobs == 0 && !c.tornDown
	if fin {
		c.tornDown = true
		if c.err == nil {
			c.err = c.werr
		}
		closeNow = true
	}
	c.mu.Unlock()
	if closeNow {
		// Deregister, then close — in that order, so a recycled fd
		// number cannot receive stale events. Closing also fails a
		// flusher blocked in Write, whose discard path settles again.
		c.closeOnce.Do(func() {
			if c.pl != nil {
				c.pl.Deregister(c.fd)
			}
			c.conn.Close()
		})
	}
	if fin {
		c.finish()
	}
	switch {
	case !resume:
	case c.pl == nil:
		c.resume <- struct{}{} // the feeder carries on, on its own goroutine
	default:
		// This goroutine is usually a pool worker with jobs to get back
		// to. Pause/resume only happens under backpressure, so the
		// transient goroutine does not disturb the steady-state count.
		go c.readLoop()
	}
}

// finish is the single teardown point (guarded by tornDown): release
// the reassembly holder, leave the server's connection set — which is
// also what holds the worker pool open — and wake ServeConn.
func (c *srvConn) finish() {
	if c.holder != nil {
		c.srv.recBufs.Put(c.holder)
		c.holder = nil
	}
	c.srv.untrack(c)
	close(c.done)
}
