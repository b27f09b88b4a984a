package sunrpc

// Netpoll server mode: instead of one reader goroutine per connection
// (serveShared), connections register their raw file descriptor with a
// fixed set of edge-triggered pollers (internal/netpoll). On readiness
// a poller performs non-blocking reads into compact per-connection
// reassembly state; complete records go to the same shared workerPool
// and the same combining reply flusher (srvConn.enqueueReply) as the
// goroutine path, so steady-state goroutines are O(pollers + workers +
// accept shards) — independent of the connection count — while the
// Drain / panic-isolation / 0-alloc semantics are unchanged.
//
// fd ownership: the npConn extracts the descriptor once via
// syscall.RawConn and keeps the net.Conn alive for its whole lifetime,
// so the number stays valid. Reads go straight through syscall.Read
// (the sockets are already non-blocking under Go's runtime); writes
// keep using conn.Write so the Go netpoller parks blocked flushers.
// The descriptor is deregistered from the poller before conn.Close()
// runs — closing a registered fd invites the fd-reuse race where a
// recycled descriptor number receives a stale event.

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"flexrpc/internal/netpoll"
)

// aLongTimeAgo is a past deadline used to unpark blocked writers.
var aLongTimeAgo = time.Unix(1, 0)

// SetNetpoll switches the server to the event-driven readiness
// runtime: accepted connections register with a fixed set of pollers
// instead of spending a reader goroutine each, so idle connections
// cost only their compact per-conn state (~a few hundred bytes), not a
// goroutine stack. On platforms without netpoll support (see
// internal/netpoll), or for connections that expose no raw descriptor
// (in-memory pipes), the server transparently falls back to the
// goroutine-per-connection reader with identical semantics. Implies a
// shared worker pool even when SetConcurrency was never raised. Set
// before serving.
func (s *Server) SetNetpoll(on bool) { s.netpoll = on }

// npReadBuf is the scratch-buffer size for poller reads. One buffer is
// in use per concurrently-draining connection (pooled, not per-conn):
// idle connections hold only their reassembly state.
const npReadBuf = 64 << 10

// recordAssembler incrementally reassembles record-marked messages
// (RFC 1057 §10) from arbitrary byte chunks — the push-style
// counterpart of readRecordLimit for readers that cannot block. Header
// bytes accumulate in hdr; body bytes append to the caller's record
// buffer. Total record size is bounded by limit.
type recordAssembler struct {
	limit   int
	hdrLen  int  // header bytes collected so far (< 4 mid-header)
	fragRem int  // body bytes remaining in the current fragment
	last    bool // current fragment is the record's last
	started bool // some record bytes consumed since the last complete record
	hdr     [4]byte
}

// midRecord reports whether the assembler is holding a partial record.
func (a *recordAssembler) midRecord() bool { return a.started || a.hdrLen > 0 }

// feed consumes bytes from b into *rec. It returns the count consumed
// and whether *rec now holds one complete record; when complete, the
// remaining bytes of b are left for the next call (with a fresh rec).
func (a *recordAssembler) feed(b []byte, rec *[]byte) (int, bool, error) {
	consumed := 0
	for consumed < len(b) {
		if a.fragRem == 0 {
			n := copy(a.hdr[a.hdrLen:], b[consumed:])
			a.hdrLen += n
			consumed += n
			if a.hdrLen < 4 {
				return consumed, false, nil
			}
			a.hdrLen = 0
			a.started = true
			word := binary.BigEndian.Uint32(a.hdr[:])
			a.last = word&lastFragFlag != 0
			frag := int(word &^ lastFragFlag)
			if frag > a.limit || len(*rec)+frag > a.limit {
				return consumed, false, fmt.Errorf("sunrpc: record exceeds %d bytes", a.limit)
			}
			a.fragRem = frag
			if a.fragRem == 0 && a.last {
				a.started = false
				return consumed, true, nil
			}
			continue
		}
		chunk := a.fragRem
		if rest := len(b) - consumed; chunk > rest {
			chunk = rest
		}
		out := growRecord(*rec, chunk)
		out = append(out, b[consumed:consumed+chunk]...)
		*rec = out
		consumed += chunk
		a.fragRem -= chunk
		if a.fragRem == 0 && a.last {
			a.started = false
			return consumed, true, nil
		}
	}
	return consumed, false, nil
}

// npConn read states. Exactly one goroutine runs readLoop at a time:
// the one that transitioned rstate to rActive under mu.
const (
	rIdle   = iota // registered, waiting for a readiness edge
	rActive        // a goroutine is draining the descriptor
	rPaused        // over the pending-reply cap; resumed by the flusher
	rDone          // read side finished (EOF, error, or close)
)

// npConn is a netpoll-registered connection: the shared srvConn write
// state plus the poller-side read state machine and record reassembly.
// No goroutines — reads run on poller wakeups, replies on pool
// workers.
type npConn struct {
	srvConn
	srv   *Server
	pl    *netpoll.Poller
	fd    int
	limit int
	pool  *workerPool

	// Reassembly state, touched only by the goroutine owning rActive.
	asm    recordAssembler
	holder *[]byte // partially assembled record (pool-backed), nil between records
	carry  []byte  // read bytes not yet ingested when the pending cap paused us (< one scratch buffer)

	// Guarded by srvConn.mu.
	rstate    int
	rearm     bool  // readiness edge arrived while rActive; drain again before idling
	closing   bool  // Close requested; reader must wind down
	njobs     int   // records submitted to the pool, replies not yet flushed/discarded
	needClose bool  // fd close requested while a flush held mu; done in afterEnqueue
	tornDown  bool  // finish() ran (or is about to); guards double teardown
	err       error // terminal status reported by ServeConn

	closeOnce sync.Once
	done      chan struct{} // closed by finish(); ServeConn parks here
}

// registerNetpoll tries to serve conn in netpoll mode. handled=false
// means the caller should fall back to a goroutine reader (platform or
// descriptor unsupported); handled=true with a nil npConn means the
// server is draining and the conn was dropped.
func (s *Server) registerNetpoll(nc net.Conn) (*npConn, bool) {
	if !s.netpoll || !netpoll.Supported() {
		return nil, false
	}
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil, false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil, false
	}
	fd := -1
	if err := raw.Control(func(u uintptr) { fd = int(u) }); err != nil || fd < 0 {
		return nil, false
	}

	limit := s.MaxMessageSize
	if limit <= 0 {
		limit = DefaultMaxRecord
	}

	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		nc.Close()
		return nil, true
	}
	if s.pool == nil {
		n := s.concurrency
		if n < 1 {
			n = 1
		}
		s.pool = newWorkerPool(s, n)
	}
	if len(s.pollers) == 0 {
		if err := s.startPollersLocked(); err != nil {
			s.mu.Unlock()
			return nil, false
		}
	}
	pl := s.pollers[s.pollerNext%len(s.pollers)]
	s.pollerNext++
	c := &npConn{srv: s, pl: pl, fd: fd, limit: limit, pool: s.pool}
	c.conn = nc
	c.np = c
	c.flushed.L = &c.mu
	c.done = make(chan struct{})
	c.asm.limit = limit
	s.poolUsers++
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	if err := pl.Register(fd, c.onReady); err != nil {
		s.untrack(c)
		s.mu.Lock()
		s.poolUsers--
		if s.poolUsers == 0 {
			s.poolWake.Broadcast()
		}
		s.mu.Unlock()
		return nil, false
	}
	s.stats.AddPollerConnRegistered()
	// Data that arrived before the edge-triggered registration gets no
	// edge; kick one read pass to pick it up.
	c.onReady(false)
	return c, true
}

// startPollersLocked starts the poller set (s.mu held): one poller per
// P. A poller parks in the Go scheduler like any reader goroutine, so
// it costs no thread, and with fewer pollers than Ps connections
// serialise through a goroutine that is usually running on another P.
func (s *Server) startPollersLocked() error {
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n; i++ {
		p, err := netpoll.New(func(events int) { s.stats.AddPollerWakeups(events) })
		if err != nil {
			for _, q := range s.pollers {
				q.Close()
			}
			s.pollers = nil
			return err
		}
		s.pollers = append(s.pollers, p)
	}
	return nil
}

// onReady is the poller callback: claim rActive and drain, or note the
// edge for the goroutine already draining.
func (c *npConn) onReady(bool) {
	c.mu.Lock()
	switch c.rstate {
	case rActive:
		c.rearm = true
		c.mu.Unlock()
		return
	case rPaused, rDone:
		// Paused conns are resumed by the flusher (which always drains
		// to EAGAIN afterwards, so no edge is lost); done conns are
		// winding down.
		c.mu.Unlock()
		return
	}
	c.rstate = rActive
	c.mu.Unlock()
	c.readLoop()
}

// readLoop drains the descriptor until EAGAIN (back to rIdle), the
// pending-reply cap (rPaused; the flusher resumes), or the read side
// finishes (rDone). Runs on whichever goroutine claimed rActive — a
// poller, a pool worker resuming after backpressure, or the accept
// path's initial kick.
func (c *npConn) readLoop() {
	bufp := c.srv.npRead.Get().(*[]byte)
	defer c.srv.npRead.Put(bufp)
	buf := *bufp
	for {
		c.mu.Lock()
		if c.closing || c.werr != nil {
			c.finishReadLocked(nil)
			return
		}
		if len(c.pending) > srvConnMaxPending {
			// Backpressure: same cap as serveShared's parked reader,
			// but instead of blocking a goroutine we park the state
			// machine; enqueueReply resumes it once under the cap.
			c.rstate = rPaused
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		if m := len(c.carry); m > 0 {
			// Bytes left over from the batch that tripped the pending
			// cap: ingest them before touching the descriptor. The
			// carry is always a strict suffix of one scratch batch, so
			// it fits the scratch buffer.
			m = copy(buf, c.carry)
			c.carry = c.carry[:0]
			if ferr := c.ingest(buf[:m]); ferr != nil {
				c.mu.Lock()
				c.finishReadLocked(ferr)
				return
			}
			continue
		}

		n, err := syscall.Read(c.fd, buf)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			c.mu.Lock()
			if c.rearm {
				// An edge fired while we were draining; its data may
				// have landed after our last read. Go around again.
				c.rearm = false
				c.mu.Unlock()
				continue
			}
			if c.closing || c.werr != nil {
				c.finishReadLocked(nil)
				return
			}
			c.rstate = rIdle
			c.mu.Unlock()
			return
		case err != nil:
			// Reset/closed-by-peer (and EBADF from an external close)
			// wind down quietly like the goroutine path; anything else
			// is a real read error.
			var rerr error
			if err != syscall.ECONNRESET && err != syscall.EPIPE && err != syscall.EBADF {
				rerr = fmt.Errorf("sunrpc: read: %w", err)
			}
			c.mu.Lock()
			c.finishReadLocked(rerr)
			return
		case n == 0:
			// Clean EOF — possibly a half-close with pipelined replies
			// still owed. finishReadLocked keeps the descriptor open
			// until the last owed reply flushes.
			c.mu.Lock()
			c.finishReadLocked(nil)
			return
		}
		if ferr := c.ingest(buf[:n]); ferr != nil {
			c.mu.Lock()
			c.finishReadLocked(ferr)
			return
		}
	}
}

// ingest feeds one read's bytes through the reassembler, submitting
// each completed record to the shared pool. The pending-reply cap is
// enforced per record, not per batch: a single 64 KiB read can carry
// hundreds of pipelined requests whose replies are each far larger
// than the request, so once the cap trips, the unconsumed remainder is
// stashed in carry and readLoop's next check parks the state machine.
// Steady state allocates nothing: record holders are pooled and grow
// to their working size.
func (c *npConn) ingest(b []byte) error {
	for len(b) > 0 {
		if c.holder == nil {
			c.holder = c.pool.bufs.Get().(*[]byte)
			*c.holder = (*c.holder)[:0]
		}
		n, complete, err := c.asm.feed(b, c.holder)
		if err != nil {
			return err
		}
		b = b[n:]
		if !complete {
			continue
		}
		holder := c.holder
		c.holder = nil
		c.srv.stats.AddQueued()
		c.inflight.Add(1)
		c.mu.Lock()
		c.njobs++
		over := len(c.pending) > srvConnMaxPending
		c.mu.Unlock()
		c.pool.jobs <- poolJob{&c.srvConn, holder}
		if over && len(b) > 0 {
			c.carry = append(c.carry[:0], b...)
			return nil
		}
	}
	if c.asm.midRecord() {
		c.srv.stats.AddPartialRead()
	}
	return nil
}

// finishReadLocked retires the read side (mu held on entry; unlocks).
// The descriptor closes immediately on error or requested close; on a
// clean EOF with replies still owed it stays open so the tail replies
// reach the half-closed peer, and the last flush tears down.
func (c *npConn) finishReadLocked(rerr error) {
	if c.err == nil {
		c.err = rerr
	}
	c.rstate = rDone
	closeNow := c.closing || c.werr != nil || rerr != nil
	fin := c.njobs == 0 && !c.tornDown
	if fin {
		c.tornDown = true
	}
	c.mu.Unlock()
	if closeNow || fin {
		c.closeFD()
	}
	if fin {
		c.finish()
	}
}

// poisonLocked is enqueueReply's write-error hook (mu held): the
// goroutine path closes the conn inline to unblock its reader, but a
// netpoll descriptor must be deregistered first, which cannot happen
// under mu — flag it and let afterEnqueue do the close.
func (c *npConn) poisonLocked() {
	c.closing = true
	if c.rstate != rActive {
		c.rstate = rDone
	}
	c.needClose = true
}

// afterEnqueue runs after enqueueReply releases mu, crediting done
// flushed (or discarded) replies: it performs deferred fd closes,
// resumes a reader paused on backpressure, and tears the connection
// down once the read side is done and the last owed reply left.
func (c *npConn) afterEnqueue(done int) {
	c.mu.Lock()
	c.njobs -= done
	needClose := c.needClose
	c.needClose = false
	resume := false
	if c.rstate == rPaused && !c.closing && c.werr == nil && len(c.pending) <= srvConnMaxPending {
		c.rstate = rActive
		resume = true
	}
	fin := c.rstate == rDone && c.njobs == 0 && !c.tornDown
	if fin {
		c.tornDown = true
	}
	c.mu.Unlock()
	if needClose || fin {
		c.closeFD()
	}
	if fin {
		c.finish()
	}
	if resume {
		// Resume on a fresh goroutine: this is a pool worker, and a
		// readLoop blocked submitting back into the pool from a worker
		// could deadlock the pool against itself. Pause/resume only
		// happens under slow-reader backpressure, so the transient
		// goroutine does not disturb the steady-state count.
		go c.readLoop()
	}
}

// Close (the Drain/track path) winds the connection down. If a reader
// is actively draining, it observes closing and finishes; otherwise
// the descriptor closes here. A flusher blocked in Write holds njobs —
// the past write deadline unparks it so the poison path can run.
func (c *npConn) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return nil
	}
	c.closing = true
	c.conn.SetWriteDeadline(aLongTimeAgo)
	if c.rstate == rActive {
		c.mu.Unlock()
		return nil
	}
	c.rstate = rDone
	fin := c.njobs == 0 && !c.tornDown
	if fin {
		c.tornDown = true
	}
	c.mu.Unlock()
	c.closeFD()
	if fin {
		c.finish()
	}
	return nil
}

// closeFD deregisters from the poller, then closes the descriptor —
// in that order, so a recycled fd number cannot receive stale events.
func (c *npConn) closeFD() {
	c.closeOnce.Do(func() {
		c.pl.Deregister(c.fd)
		c.conn.Close()
	})
}

// finish is the single teardown point (guarded by tornDown): release
// the reassembly holder, untrack, leave the worker pool, and wake
// ServeConn waiters.
func (c *npConn) finish() {
	if c.holder != nil {
		*c.holder = (*c.holder)[:cap(*c.holder)]
		c.pool.bufs.Put(c.holder)
		c.holder = nil
	}
	c.srv.untrack(c)
	c.srv.mu.Lock()
	c.srv.poolUsers--
	if c.srv.poolUsers == 0 {
		c.srv.poolWake.Broadcast()
	}
	c.srv.mu.Unlock()
	c.mu.Lock()
	if c.err == nil {
		c.err = c.werr
	}
	c.mu.Unlock()
	close(c.done)
}

// net.Conn delegation — npConn stands in for its connection in the
// server's conns map, so Drain reaches the netpoll-safe Close above;
// everything else passes through.
func (c *npConn) Read(b []byte) (int, error)         { return c.conn.Read(b) }
func (c *npConn) Write(b []byte) (int, error)        { return c.conn.Write(b) }
func (c *npConn) LocalAddr() net.Addr                { return c.conn.LocalAddr() }
func (c *npConn) RemoteAddr() net.Addr               { return c.conn.RemoteAddr() }
func (c *npConn) SetDeadline(t time.Time) error      { return c.conn.SetDeadline(t) }
func (c *npConn) SetReadDeadline(t time.Time) error  { return c.conn.SetReadDeadline(t) }
func (c *npConn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }
