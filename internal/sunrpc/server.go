package sunrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flexrpc/internal/netpoll"
	"flexrpc/internal/stats"
	"flexrpc/internal/xdr"
)

// A ProcHandler implements one procedure: decode arguments from
// args, append results to reply. Returning ErrGarbageArgs reports
// undecodable arguments to the caller; any other error is a system
// error.
type ProcHandler func(args *xdr.Decoder, reply *xdr.Encoder) error

// ErrGarbageArgs signals that a handler could not decode its
// arguments; it maps to the GARBAGE_ARGS accept status.
var ErrGarbageArgs = errors.New("sunrpc: garbage arguments")

// A PanicError reports a recovered handler panic. The peer sees a
// bare SYSTEM_ERR accept status (the Sun RPC reply carries no error
// payload); the server process keeps the value and stack for logs.
type PanicError struct {
	Proc  uint32
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sunrpc: handler for proc %d panicked: %v", e.Proc, e.Value)
}

// Accept-loop backoff cap for resource-exhaustion errors (EMFILE and
// friends): long enough that a starved shard is not spinning, low
// enough that Drain is never held up long.
const acceptBackoffMax = 100 * time.Millisecond

// A Server dispatches Sun RPC calls for one program/version.
type Server struct {
	prog     uint32
	vers     uint32
	handlers map[uint32]ProcHandler

	// MaxMessageSize bounds received request records; zero means
	// DefaultMaxRecord. Set before serving.
	MaxMessageSize int

	concurrency int
	stats       *stats.Endpoint

	// Netpoll mode (see netpoll.go): event-driven readiness readers
	// instead of a goroutine per connection. npRead pools the scratch
	// buffers poller reads drain into.
	netpoll bool
	npRead  sync.Pool

	// Accept rate limiting: a token bucket per accept shard (see
	// accept.go). The clock is swappable so tests drive it with a
	// FakeClock.
	acceptRate  float64
	acceptBurst int
	clock       Clock

	// Overload protection: maxInflight bounds calls across every
	// connection; over-cap (and post-drain) calls answer SYSTEM_ERR —
	// the only pushback the bare Sun RPC wire can carry — instead of
	// queueing behind work the server cannot finish.
	maxInflight int64
	inflight    atomic.Int64
	draining    atomic.Bool

	mu         sync.Mutex
	listeners  []net.Listener
	conns      map[net.Conn]struct{}
	pool       *workerPool // shared across connections; nil until first concurrent conn
	poolUsers  int         // connection readers currently able to submit to pool
	poolWake   sync.Cond   // broadcast (under mu) when poolUsers reaches zero
	pollers    []*netpoll.Poller
	pollerNext int // round-robin poller assignment for new conns
}

// NewServer creates a server for prog/vers. Procedure 0 (the null
// procedure every Sun RPC program must provide) is pre-registered.
func NewServer(prog, vers uint32) *Server {
	s := &Server{prog: prog, vers: vers, handlers: make(map[uint32]ProcHandler)}
	s.poolWake.L = &s.mu
	s.npRead.New = func() any { b := make([]byte, npReadBuf); return &b }
	s.handlers[0] = func(*xdr.Decoder, *xdr.Encoder) error { return nil }
	return s
}

// Register installs the handler for proc, replacing any previous
// one.
func (s *Server) Register(proc uint32, h ProcHandler) {
	s.handlers[proc] = h
}

// SetConcurrency sets the size of the server's shared worker pool.
// n <= 1 (the default) keeps the serial in-order loop on every
// connection; n > 1 dispatches requests from all connections onto one
// bounded pool of n workers, so the goroutine bill is O(conns +
// workers) — one reader per connection plus the shared pool — rather
// than O(conns × workers). Replies are coalesced per connection by
// whichever worker holds the flush at the time (see srvConn). Out-of-
// order replies are legal on the Sun RPC wire — the client
// demultiplexes by xid. Set before serving.
func (s *Server) SetConcurrency(n int) { s.concurrency = n }

// SetStats points the server's queue/flush/panic counters at e; a nil
// endpoint (the default) records nothing. Set before serving.
func (s *Server) SetStats(e *stats.Endpoint) { s.stats = e }

// SetMaxInflight bounds concurrently dispatched calls across every
// connection; calls past the bound answer SYSTEM_ERR without invoking
// a handler. n <= 0 (the default) means unlimited. Set before serving.
func (s *Server) SetMaxInflight(n int) { s.maxInflight = int64(n) }

// Inflight reports the calls currently being dispatched.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully retires the server: listeners passed to Serve stop
// accepting, new calls on existing connections answer SYSTEM_ERR, and
// Drain waits (bounded by ctx) for in-flight dispatches to finish
// before closing the remaining connections and stopping the shared
// worker pool. It reports ctx.Err() when in-flight calls outlive the
// deadline (connections are closed regardless, so blocked peers
// unpark; the pool is then detached and retired in the background
// once its last reader leaves, since a stuck reader may still hold a
// reference to it). Connections served via ServeConn directly were
// never handed to the server, so Drain cannot close them: their
// callers must close them, or the readers they occupy keep the pool
// alive past the deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for _, l := range s.listeners {
		l.Close()
	}
	s.listeners = nil
	s.mu.Unlock()

	var err error
	for s.inflight.Load() > 0 {
		if err = ctx.Err(); err != nil {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if err != nil {
			break
		}
	}

	// Snapshot then close outside the lock: a netpoll conn's Close
	// finishes the connection inline (untrack, pool departure), which
	// needs s.mu itself.
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}

	// Stop the shared pool once every connection reader has wound
	// down (closing the conns above unblocks them). A reader mid-
	// submit still holds a pool reference, so closing the jobs
	// channel earlier could panic a send; poolUsers counts exactly
	// those readers, and the last one out broadcasts poolWake. The
	// waker goroutine turns a ctx expiry into a broadcast so the
	// wait below never outlives the deadline.
	wakerDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.poolWake.Broadcast()
			s.mu.Unlock()
		case <-wakerDone:
		}
	}()
	s.mu.Lock()
	for s.poolUsers > 0 && ctx.Err() == nil {
		s.poolWake.Wait()
	}
	pool, users := s.pool, s.poolUsers
	s.pool = nil
	s.mu.Unlock()
	close(wakerDone)
	if pool != nil {
		if users == 0 {
			close(pool.jobs)
			pool.wg.Wait()
		} else {
			// Deadline expired with readers still registered. The pool
			// is detached (no new connection can reach it, since the
			// server is draining) and retired in the background the
			// moment the last reader leaves, so repeated drain/recreate
			// cycles cannot accumulate worker goroutines.
			if err == nil {
				err = ctx.Err()
			}
			go func() {
				s.mu.Lock()
				for s.poolUsers > 0 {
					s.poolWake.Wait()
				}
				s.mu.Unlock()
				close(pool.jobs)
				pool.wg.Wait()
			}()
		}
	}

	// Netpoll pollers go last: every registered conn counts as a pool
	// user, so once the wait above has seen poolUsers reach zero no
	// callback can be mid-flight and Close releases each loop at once.
	// Waiting for Done makes a returned Drain leave no poller goroutine
	// or epoll descriptor behind; a loop wedged behind a stuck pool in
	// the deadline-expired case exits once the pool drains.
	s.mu.Lock()
	pollers := s.pollers
	s.pollers = nil
	s.mu.Unlock()
	for _, p := range pollers {
		p.Close()
	}
	for _, p := range pollers {
		select {
		case <-p.Done():
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
	}
	return err
}

// track registers conn for closure at drain time; it reports false
// (and closes conn) when the server is already draining.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		conn.Close()
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// ServeConn processes calls from conn until it closes, returning nil
// on clean EOF. With SetConcurrency(n > 1) requests are executed by
// the server's shared worker pool and replies are coalesced; otherwise
// requests run serially in arrival order.
func (s *Server) ServeConn(conn net.Conn) error {
	limit := s.MaxMessageSize
	if limit <= 0 {
		limit = DefaultMaxRecord
	}
	if s.netpoll {
		// Netpoll mode: register with a poller and park until the
		// connection winds down. Unlike the goroutine paths, these
		// conns are tracked, so Drain closes them. Conns without a
		// usable descriptor (in-memory pipes) and platforms without a
		// poller fall through to the goroutine readers.
		if c, handled := s.registerNetpoll(conn); handled {
			if c == nil {
				return nil // dropped: server already draining
			}
			<-c.done
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return err
		}
	}
	if s.concurrency > 1 {
		return s.serveShared(conn, limit)
	}
	var enc xdr.Encoder
	var recBuf []byte
	for {
		rec, err := readRecordLimit(conn, recBuf, limit)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("sunrpc: read: %w", err)
		}
		recBuf = rec[:cap(rec)]
		enc.Reset()
		s.dispatch(xdr.NewDecoder(rec), &enc)
		if err := writeRecord(conn, enc.Bytes()); err != nil {
			return fmt.Errorf("sunrpc: write: %w", err)
		}
	}
}

// A workerPool executes dispatches for every concurrent connection of
// one Server: a fixed set of workers draining one bounded jobs
// channel. Each job carries the connection it belongs to, so replies
// land on the right stream; record buffers are pooled across
// connections, so the steady-state path allocates nothing.
type workerPool struct {
	jobs chan poolJob
	wg   sync.WaitGroup
	bufs sync.Pool
}

type poolJob struct {
	c      *srvConn
	holder *[]byte
}

func newWorkerPool(s *Server, n int) *workerPool {
	p := &workerPool{
		jobs: make(chan poolJob, n),
		bufs: sync.Pool{New: func() any { return new([]byte) }},
	}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.run(s)
	}
	return p
}

func (p *workerPool) run(s *Server) {
	defer p.wg.Done()
	dec := xdr.NewDecoder(nil)
	var enc xdr.Encoder
	for j := range p.jobs {
		rec := *j.holder
		enc.Reset()
		dec.Reset(rec)
		s.dispatch(dec, &enc)
		*j.holder = rec[:cap(rec)]
		p.bufs.Put(j.holder)
		j.c.enqueueReply(s, enc.Bytes())
	}
}

// srvConn is the compact per-connection state of the shared-pool
// server: the net.Conn, a WaitGroup tracking this connection's jobs
// inside the pool, and the coalescing write state. No goroutines —
// the reader loop lives in serveShared's frame and replies are
// flushed by whichever pool worker finishes first (see enqueueReply).
type srvConn struct {
	conn     net.Conn
	np       *npConn        // non-nil in netpoll mode: reply accounting feeds the read state machine
	inflight sync.WaitGroup // jobs submitted to the pool, replies not yet flushed (or discarded)

	mu       sync.Mutex
	flushed  sync.Cond // broadcast after every flush attempt; L is &mu
	pending  []byte    // record-marked replies awaiting the flusher
	queued   int       // reply count inside pending
	spare    []byte    // previous flush buffer, recycled on swap
	flushing bool      // some worker currently owns this connection's flush
	werr     error     // first write error; poisons the stream
}

// srvConnMaxPending caps the bytes of finished replies buffered on one
// connection awaiting flush. The connection's reader parks before
// pulling the next record while pending is over the cap (see
// serveShared), so a slow-reading client that keeps pipelining
// requests stalls its own reader — TCP pushes back on the peer — and
// pins O(cap + in-flight jobs) server memory instead of growing
// without bound. The cap gates the reader rather than the pool
// workers so one slow client can never park the shared pool.
const srvConnMaxPending = 256 << 10

// enqueueReply appends one finished reply to the connection's pending
// buffer and, unless another worker already owns the flush, becomes
// the flusher: it keeps writing until nothing is pending, so every
// reply that lands while a Write is in flight coalesces into the next
// one. This is the combining-writer replacement for the per-connection
// writer goroutine the old server spent. The connection's inflight
// count is released here — per reply flushed, or at discard on a
// poisoned stream — never at mere enqueue, so serveShared's
// inflight.Wait() doubles as wait-for-flush and ServeConn cannot
// return (and Serve cannot close the conn) while replies are still
// buffered.
func (c *srvConn) enqueueReply(s *Server, rep []byte) {
	c.mu.Lock()
	if c.werr != nil {
		c.mu.Unlock()
		c.inflight.Done() // discarded: the stream is already poisoned
		if c.np != nil {
			c.np.afterEnqueue(1)
		}
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
			c.werr = fmt.Errorf("sunrpc: write: %w", err)
			// The stream is poisoned mid-record; unblock the reader
			// so the connection winds down, and discard whatever
			// queued behind the failed write. The netpoll path must
			// deregister the fd before closing it, which cannot happen
			// under mu — poisonLocked defers it to afterEnqueue.
			if c.np != nil {
				c.np.poisonLocked()
			} else {
				c.conn.Close()
			}
			n += c.queued
			c.pending = c.pending[:0]
			c.queued = 0
		} else {
			s.stats.AddFlush(n)
		}
		c.inflight.Add(-n)
		done += n
		c.flushed.Broadcast()
	}
	c.flushing = false
	c.mu.Unlock()
	if c.np != nil {
		c.np.afterEnqueue(done)
	}
}

// serveShared is the scaling server loop: this goroutine reads
// request records and feeds them to the server-wide worker pool;
// workers dispatch handlers and flush replies back to the connection
// through the combining writer in srvConn. Per-connection cost is one
// goroutine and one srvConn, independent of the pool size.
func (s *Server) serveShared(conn net.Conn, limit int) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		conn.Close()
		return nil
	}
	if s.pool == nil {
		s.pool = newWorkerPool(s, s.concurrency)
	}
	pool := s.pool
	s.poolUsers++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.poolUsers--
		if s.poolUsers == 0 {
			s.poolWake.Broadcast()
		}
		s.mu.Unlock()
	}()

	c := &srvConn{conn: conn}
	c.flushed.L = &c.mu
	var readErr error
	for {
		// Backpressure: while the peer reads replies slower than it
		// pipelines requests, park this reader until the flusher works
		// the backlog under the cap — a pending record over the cap
		// always has an active flusher, and a write error (Drain
		// closing the conn included) broadcasts too, so this wait
		// cannot outlive the connection.
		c.mu.Lock()
		for c.werr == nil && len(c.pending) > srvConnMaxPending {
			c.flushed.Wait()
		}
		c.mu.Unlock()
		holder := pool.bufs.Get().(*[]byte)
		rec, err := readRecordLimit(conn, *holder, limit)
		if err != nil {
			pool.bufs.Put(holder)
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, net.ErrClosed) {
				readErr = fmt.Errorf("sunrpc: read: %w", err)
			}
			break
		}
		*holder = rec
		s.stats.AddQueued()
		c.inflight.Add(1)
		pool.jobs <- poolJob{c, holder}
	}
	c.inflight.Wait()
	c.mu.Lock()
	werr := c.werr
	c.mu.Unlock()
	if werr != nil {
		return werr
	}
	return readErr
}

// dispatch handles one call, always leaving a complete reply in enc.
func (s *Server) dispatch(d *xdr.Decoder, enc *xdr.Encoder) {
	h, err := decodeCall(d)
	if err != nil {
		// Unparseable header: answer with a system error under the
		// xid we managed to read (zero otherwise).
		encodeAcceptedReply(enc, h.XID, SystemErr)
		return
	}
	// Admission: a draining or over-capacity server answers SYSTEM_ERR
	// before touching a handler. The bare Sun RPC wire has no richer
	// pushback (the session layer's frames ride above it); SYSTEM_ERR
	// is retryable by construction, which is all shedding needs.
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		s.stats.AddDrainReject()
		encodeAcceptedReply(enc, h.XID, SystemErr)
		return
	}
	if s.maxInflight > 0 && n > s.maxInflight {
		s.stats.AddShed()
		encodeAcceptedReply(enc, h.XID, SystemErr)
		return
	}
	switch {
	case h.Prog != s.prog:
		encodeAcceptedReply(enc, h.XID, ProgUnavail)
	case h.Vers != s.vers:
		encodeAcceptedReply(enc, h.XID, ProgMismatch)
	default:
		handler, ok := s.handlers[h.Proc]
		if !ok {
			encodeAcceptedReply(enc, h.XID, ProcUnavail)
			return
		}
		// Reserve the success header, run the handler, and rewrite
		// the header on failure. Header sizes are fixed, so we can
		// re-encode in place by resetting.
		encodeAcceptedReply(enc, h.XID, Success)
		if err := s.runHandler(h.Proc, handler, d, enc); err != nil {
			enc.Reset()
			if errors.Is(err, ErrGarbageArgs) {
				encodeAcceptedReply(enc, h.XID, GarbageArgs)
			} else {
				encodeAcceptedReply(enc, h.XID, SystemErr)
			}
		}
	}
}

// runHandler invokes h, converting a panic into a *PanicError so one
// bad request cannot take down the connection (or, under a worker
// pool, its sibling requests). The defer lives in this small frame so
// the recover machinery stays off the non-panicking path.
func (s *Server) runHandler(proc uint32, h ProcHandler, d *xdr.Decoder, enc *xdr.Encoder) (err error) {
	defer func() {
		if p := recover(); p != nil {
			s.stats.AddHandlerPanic()
			err = &PanicError{Proc: proc, Value: p, Stack: debug.Stack()}
		}
	}()
	return h(d, enc)
}

// Serve accepts connections from l and serves each until the listener
// closes (or Drain closes it) — in netpoll mode by registering the
// conn with a poller, otherwise on its own goroutine. Accept failures
// are classified by errno (see classifyAcceptError): connections that
// died in the backlog retry immediately, resource exhaustion (EMFILE
// and friends) backs off at the 100ms cap, anything else is permanent
// and stops the shard. With SetAcceptRate configured, a per-shard
// token bucket paces accepts so an accept storm cannot monopolize the
// pollers.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	limiter := s.newAcceptLimiter()
	for {
		if limiter != nil && limiter.take() {
			s.stats.AddAcceptThrottled()
		}
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if s.draining.Load() {
				return err
			}
			switch classifyAcceptError(err) {
			case acceptRetry:
				continue
			case acceptBackoff:
				// Resource exhaustion does not clear in a millisecond;
				// go straight to the cap. Half fixed, half jittered:
				// shards hitting the same exhaustion decorrelate.
				d := acceptBackoffMax
				time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d/2)+1)))
				continue
			}
			return err
		}
		if s.netpoll {
			if _, handled := s.registerNetpoll(conn); handled {
				continue
			}
		}
		if !s.track(conn) {
			continue
		}
		go func() {
			defer s.untrack(conn)
			defer conn.Close()
			_ = s.ServeConn(conn)
		}()
	}
}

// ServeShards runs one accept loop per listener (accept sharding):
// each shard accepts on its own goroutine, so a multi-listener
// deployment spreads accept work and none of the shards can starve
// the others. It returns once every shard has stopped — Drain closes
// them all — reporting the first shard error.
func (s *Server) ServeShards(ls ...net.Listener) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ls))
	for i, l := range ls {
		wg.Add(1)
		go func(i int, l net.Listener) {
			defer wg.Done()
			errs[i] = s.Serve(l)
		}(i, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
