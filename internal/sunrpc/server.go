package sunrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
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

	concurrency int
	stats       *stats.Endpoint
	netpoll     bool

	recBufs  sync.Pool // record holders, shared by every connection and executor
	pollBufs sync.Pool // pollReadBuf scratch the poller feed reads into

	// A draining server answers SYSTEM_ERR — the only pushback the bare
	// Sun RPC wire can carry — instead of starting work it may not
	// finish; inflight is what Drain waits out first.
	inflight atomic.Int64
	draining atomic.Bool

	mu         sync.Mutex
	listeners  []net.Listener
	conns      map[*srvConn]struct{} // every live connection, until its teardown
	connsGone  sync.Cond             // broadcast (under mu) when conns empties
	pool       *workerPool           // shared across connections; nil until the first pooled conn
	pollers    []*netpoll.Poller
	pollerNext int // round-robin poller assignment for new conns
}

// NewServer creates a server for prog/vers. Procedure 0 (the null
// procedure every Sun RPC program must provide) is pre-registered.
func NewServer(prog, vers uint32) *Server {
	s := &Server{prog: prog, vers: vers, handlers: make(map[uint32]ProcHandler), conns: make(map[*srvConn]struct{})}
	s.connsGone.L = &s.mu
	s.recBufs.New = func() any { return new([]byte) }
	s.pollBufs.New = func() any { b := make([]byte, pollReadBuf); return &b }
	s.handlers[0] = func(*xdr.Decoder, *xdr.Encoder) error { return nil }
	return s
}

// Register installs the handler for proc, replacing any previous
// one.
func (s *Server) Register(proc uint32, h ProcHandler) {
	s.handlers[proc] = h
}

// SetConcurrency sets the size of the server's shared worker pool.
// n <= 1 (the default) executes each connection's requests inline on
// the goroutine feeding it, in arrival order; n > 1 dispatches requests
// from all connections onto one bounded pool of n workers, so the
// goroutine bill is O(conns + workers) — one feeding goroutine per
// connection plus the shared pool — rather than O(conns × workers).
// Either way replies are coalesced per connection by whoever holds the
// flush at the time (see srvConn). Out-of-order replies are legal on
// the Sun RPC wire — the client demultiplexes by xid. Set before
// serving.
func (s *Server) SetConcurrency(n int) { s.concurrency = n }

// SetNetpoll switches the server to the event-driven readiness
// runtime: connections register with a fixed set of pollers instead of
// spending a feeding goroutine each, so idle connections cost only
// their compact per-conn state (~a few hundred bytes), not a goroutine
// stack. On platforms without netpoll support (see internal/netpoll),
// or for connections that expose no raw descriptor (in-memory pipes),
// the server transparently falls back to the goroutine feed with
// identical semantics. Implies a shared worker pool even when
// SetConcurrency was never raised. Set before serving.
func (s *Server) SetNetpoll(on bool) { s.netpoll = on }

// SetStats points the server's queue/flush/panic counters at e; a nil
// endpoint (the default) records nothing. Set before serving.
func (s *Server) SetStats(e *stats.Endpoint) { s.stats = e }

// Drain gracefully retires the server: listeners passed to Serve stop
// accepting, new calls on existing connections answer SYSTEM_ERR, and
// Drain waits (bounded by ctx) for in-flight dispatches to finish
// before closing every connection — those handed to ServeConn directly
// included — and stopping the shared worker pool and the pollers. It
// reports ctx.Err() when in-flight calls outlive the deadline
// (connections are closed regardless, so blocked peers unpark; the pool
// is then detached and retired in the background once the last
// connection leaves, since one stuck behind a handler may still submit
// to it).
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

	// Snapshot then close outside the lock: a close that tears the
	// connection down untracks it, which needs s.mu itself.
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}

	// Stop the shared pool once every connection has torn down (the
	// closes above unblock them). A reader mid-submit still holds a pool
	// reference, so closing the jobs channel earlier could panic a
	// send; a connection stays in conns until its teardown, and the
	// last one out broadcasts connsGone. The AfterFunc turns a ctx
	// expiry into a broadcast so the wait never outlives the deadline.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.connsGone.Broadcast()
		s.mu.Unlock()
	})
	s.mu.Lock()
	for len(s.conns) > 0 && ctx.Err() == nil {
		s.connsGone.Wait()
	}
	pool, left := s.pool, len(s.conns)
	s.pool = nil
	s.mu.Unlock()
	stop()
	if pool != nil {
		if left == 0 {
			pool.stop()
		} else {
			// Deadline expired with connections still live. The pool is
			// detached (no new connection can reach it, since the
			// server is draining) and retired in the background the
			// moment the last one leaves, so repeated drain/recreate
			// cycles cannot accumulate worker goroutines.
			if err == nil {
				err = ctx.Err()
			}
			go func() {
				s.mu.Lock()
				for len(s.conns) > 0 {
					s.connsGone.Wait()
				}
				s.mu.Unlock()
				pool.stop()
			}()
		}
	}

	// Pollers go last: every registered conn is in conns, so once the
	// wait above has seen it empty no callback can be mid-flight and
	// Close releases each loop at once. Waiting for Done makes a
	// returned Drain leave no poller goroutine or epoll descriptor
	// behind; a loop wedged behind a stuck pool in the deadline-expired
	// case exits once the pool drains.
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

// attach builds the connection core for nc — choosing its feed and its
// executor from what the server was configured with and what nc can do
// — and adds it to the set Drain closes. It returns nil, with nc
// closed, when the server is already draining.
func (s *Server) attach(nc net.Conn) *srvConn {
	c := &srvConn{srv: s, conn: nc, fd: -1, done: make(chan struct{}), asm: recordAssembler{limit: DefaultMaxRecord}}
	if sc, ok := nc.(syscall.Conn); ok && s.netpoll && netpoll.Supported() {
		if raw, err := sc.SyscallConn(); err == nil {
			raw.Control(func(u uintptr) { c.fd = int(u) })
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		nc.Close()
		return nil
	}
	if s.netpoll || s.concurrency > 1 {
		if s.pool == nil {
			s.pool = newWorkerPool(max(s.concurrency, 1))
		}
		c.pool = s.pool
	} else {
		c.inline = new(executor)
	}
	// Conns without a usable descriptor (in-memory pipes), platforms
	// without a poller and a registration the kernel refuses all fall
	// through to the goroutine feed. Registering under mu keeps a
	// callback that finishes the conn at once from untracking it before
	// it is tracked.
	if c.fd >= 0 && (len(s.pollers) > 0 || s.startPollersLocked() == nil) {
		c.pl = s.pollers[s.pollerNext%len(s.pollers)]
		s.pollerNext++
		if c.pl.Register(c.fd, c.onReady) == nil {
			s.stats.Add(stats.PollerConnsRegistered, 1)
		} else {
			c.pl = nil
		}
	}
	if c.pl == nil {
		c.resume = make(chan struct{}, 1)
	}
	s.conns[c] = struct{}{}
	return c
}

// startPollersLocked starts the poller set (s.mu held): one poller per
// P. A poller parks in the Go scheduler like any feeding goroutine, so
// it costs no thread, and with fewer pollers than Ps connections
// serialise through a goroutine that is usually running on another P.
func (s *Server) startPollersLocked() error {
	for i := runtime.GOMAXPROCS(0); i > 0; i-- {
		p, err := netpoll.New(func(events int) { s.stats.Add(stats.PollerWakeups, events) })
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

func (s *Server) untrack(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	if len(s.conns) == 0 {
		s.connsGone.Broadcast()
	}
	s.mu.Unlock()
}

// ServeConn processes calls from conn until it winds down, then closes
// it, returning nil on clean EOF. With SetConcurrency(n > 1) or netpoll
// requests are executed by the server's shared worker pool; otherwise
// they run on this goroutine in arrival order.
func (s *Server) ServeConn(conn net.Conn) error {
	c := s.attach(conn)
	if c == nil {
		return nil // dropped: server already draining
	}
	c.onReady(false)
	<-c.done
	return c.err
}

// An executor is the scratch one dispatching goroutine reuses from
// call to call: one per pool worker, one per inline connection.
type executor struct {
	dec xdr.Decoder
	enc xdr.Encoder
}

// run dispatches the record in holder and queues its reply on c.
func (x *executor) run(c *srvConn, holder *[]byte) {
	x.enc.Reset()
	x.dec.Reset(*holder)
	c.srv.dispatch(&x.dec, &x.enc)
	c.srv.recBufs.Put(holder)
	c.enqueueReply(x.enc.Bytes())
}

// A workerPool executes dispatches for every pooled connection of one
// Server: a fixed set of workers draining one bounded jobs channel.
// Each job carries the connection it belongs to, so replies land on
// the right stream.
type workerPool struct {
	jobs chan poolJob
	wg   sync.WaitGroup
}

type poolJob struct {
	c      *srvConn
	holder *[]byte
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{jobs: make(chan poolJob, n)}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			var x executor
			for j := range p.jobs {
				x.run(j.c, j.holder)
			}
		}()
	}
	return p
}

// stop retires the workers; no connection may still submit.
func (p *workerPool) stop() {
	close(p.jobs)
	p.wg.Wait()
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
	// A draining server answers SYSTEM_ERR before touching a handler.
	// The bare Sun RPC wire has no richer pushback (the session layer's
	// frames, and its admission caps, ride above it); SYSTEM_ERR is
	// retryable by construction, which is all a drain needs.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		s.stats.Add(stats.DrainRejects, 1)
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
			s.stats.Add(stats.HandlerPanics, 1)
			err = &PanicError{Proc: proc, Value: p, Stack: debug.Stack()}
		}
	}()
	return h(d, enc)
}

// Serve accepts connections from l and serves each until the listener
// closes (or Drain closes it) — from a poller where the conn took the
// poller feed, otherwise from its own feeding goroutine. Accept failures
// are classified by errno (see classifyAcceptError): connections that
// died in the backlog retry immediately, resource exhaustion (EMFILE
// and friends) backs off at the 100ms cap, anything else is permanent
// and stops the shard.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
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
		switch c := s.attach(conn); {
		case c == nil: // draining: conn already closed
		case c.pl != nil:
			// Data that arrived before the edge-triggered registration
			// gets no edge; one read pass picks it up.
			c.onReady(false)
		default:
			go c.onReady(false)
		}
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
