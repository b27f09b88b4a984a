// Package shmring is the production same-domain transport: marshal
// plans encode directly into ring-buffer slots backed by an
// internal/fbuf pool — the pool is the arena, there is no
// intermediate record buffer — and control transfer is a
// flipcall-style doorbell (spin-then-park on an atomic turn word)
// instead of a per-message channel rendezvous.
//
// Every message is framed inside its head slot: a 16-byte header (op
// index, body length, flags, checksum) followed either by the body
// (single-slot messages, the common case — the body then aliases pool
// storage end to end) or by the ids of continuation slots carrying
// the body, spliced across the domain boundary as an fbuf.Aggregate
// (buffers are never cut). The paper's annotations specialize the
// path at bind time (see Connect): [trusted] endpoints skip header
// validation and the per-handoff fbuf ownership protocol, and
// [nonunique] naming replaces the path-wide name-table lookup with
// direct ring-position indexing.
//
// The generic Conn/Server pair below implements runtime.Conn for
// already-marshaled bodies — the session layer (RobustConn,
// at-most-once, deadlines) and the conformance matrix run over it
// unchanged. The zero-copy bind-time path lives in Connect.
package shmring

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"flexrpc/internal/fbuf"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// Slot-frame geometry. The header is four big-endian uint32 words:
// op index, body length, flags (low 16 bits: continuation-slot
// count), checksum over the first three.
const (
	headerSize = 16

	hdrOp    = 0
	hdrLen   = 4
	hdrFlags = 8
	hdrCheck = 12

	// contMask extracts the continuation-slot count from flags.
	contMask = 0xFFFF
)

// MaxMessage bounds a message body regardless of ring capacity; a
// longer length word means the frame is corrupt.
const MaxMessage = 16 << 20

// Default ring geometry for New.
const (
	DefaultSlotSize = 4096
	DefaultSlots    = 8
)

// Common errors.
var (
	ErrClosed    = errors.New("shmring: connection closed")
	ErrTooLarge  = errors.New("shmring: message exceeds ring capacity")
	ErrBadHeader = errors.New("shmring: corrupt slot header")
)

// putHeader produces the slot frame header in place.
func putHeader(dst []byte, op, bodyLen, flags uint32) {
	binary.BigEndian.PutUint32(dst[hdrOp:], op)
	binary.BigEndian.PutUint32(dst[hdrLen:], bodyLen)
	binary.BigEndian.PutUint32(dst[hdrFlags:], flags)
	binary.BigEndian.PutUint32(dst[hdrCheck:], headerCheck(op, bodyLen, flags))
}

// parseHeader reads and, unless the binding is trusted, validates a
// slot frame header. Trust elides exactly the checks an untrusted
// peer forces: the checksum and the length bound.
func parseHeader(b []byte, trusted bool) (op, bodyLen, flags uint32, err error) {
	if len(b) < headerSize {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrBadHeader, len(b))
	}
	op = binary.BigEndian.Uint32(b[hdrOp:])
	bodyLen = binary.BigEndian.Uint32(b[hdrLen:])
	flags = binary.BigEndian.Uint32(b[hdrFlags:])
	if trusted {
		return op, bodyLen, flags, nil
	}
	if binary.BigEndian.Uint32(b[hdrCheck:]) != headerCheck(op, bodyLen, flags) {
		return 0, 0, 0, fmt.Errorf("%w: bad checksum", ErrBadHeader)
	}
	if bodyLen > MaxMessage {
		return 0, 0, 0, fmt.Errorf("%w: body length %d exceeds limit", ErrBadHeader, bodyLen)
	}
	return op, bodyLen, flags, nil
}

// headerCheck mixes the three header words into a checksum; cheap
// enough to be free next to the handoff, strong enough that a
// corrupted frame fails parse instead of desynchronizing the ring.
func headerCheck(op, n, flags uint32) uint32 {
	x := uint64(op)*0x9e3779b97f4a7c15 ^ uint64(n)*0xbf58476d1ce4e5b9 ^ uint64(flags)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	return uint32(x ^ x>>32)
}

// Doorbell turn-word states (low bits of the word); the rest of the
// word carries the head slot's reference (fbuf id, or ring position
// under [nonunique] naming).
const (
	stateIdle uint64 = iota
	stateReq
	stateRep
	stateClosed
)

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// A doorbell is one direction of the flipcall-style handoff: the
// producer publishes (state, ref) into the atomic turn word and wakes
// the consumer if it parked; the consumer spins briefly, then sets
// its parked flag, rechecks the word, and blocks on the wake channel
// — the user-space analogue of a futex wait, with the recheck closing
// the lost-wakeup window. Spurious wakeups (a token sent between the
// flag store and the recheck) are absorbed by the predicate loop.
//
// Closure is a separate dead flag rather than a state stored into the
// word: storing would clobber a published-but-unconsumed reply, and a
// drain wants exactly the opposite — the completed call delivers, the
// next wait observes death. The close wakes unconditionally (no
// parked check) so a waiter between its parked store and its channel
// receive cannot sleep through it.
type doorbell struct {
	word   atomic.Uint64
	dead   atomic.Bool
	parked atomic.Bool
	wake   chan struct{}
	spin   int
}

func newDoorbell() *doorbell {
	d := &doorbell{wake: make(chan struct{}, 1)}
	if goruntime.GOMAXPROCS(0) > 1 {
		// With a second core the peer can make progress while we poll;
		// on one core spinning only delays the scheduler switch.
		d.spin = 256
	}
	return d
}

// ring publishes ref under state and unparks the consumer.
func (d *doorbell) ring(state, ref uint64) {
	d.word.Store(state | ref<<stateBits)
	if d.parked.Load() {
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
}

// reset returns the word to idle; only the consumer of the just-read
// state may call it (the producer will not ring again until the
// current exchange completes).
func (d *doorbell) reset() { d.word.Store(stateIdle) }

// close marks the doorbell permanently closed. The turn word is left
// alone — a published reply stays readable — and the wake token is
// sent unconditionally so any parked (or about-to-park) waiter
// observes the dead flag promptly instead of spinning out a deadline.
func (d *doorbell) close() {
	d.dead.Store(true)
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// check polls the word once for want (or closure). A ready want wins
// over death, so closure never swallows a completed exchange.
func (d *doorbell) check(want uint64) (ref uint64, ok, done bool) {
	w := d.word.Load()
	switch w & stateMask {
	case want:
		return w >> stateBits, true, true
	case stateClosed:
		return 0, false, true
	}
	if d.dead.Load() {
		return 0, false, true
	}
	return 0, false, false
}

// wait blocks until the word reaches want; ok is false on closure.
func (d *doorbell) wait(want uint64) (ref uint64, ok bool) {
	for i := 0; i < d.spin; i++ {
		if ref, ok, done := d.check(want); done {
			return ref, ok
		}
	}
	for {
		d.parked.Store(true)
		if ref, ok, done := d.check(want); done {
			d.parked.Store(false)
			return ref, ok
		}
		<-d.wake
		d.parked.Store(false)
	}
}

// waitCtx is wait bounded by a context.
func (d *doorbell) waitCtx(ctx context.Context, want uint64) (ref uint64, ok bool, err error) {
	if ctx == nil || ctx.Done() == nil {
		ref, ok = d.wait(want)
		return ref, ok, nil
	}
	for i := 0; i < d.spin; i++ {
		if ref, ok, done := d.check(want); done {
			return ref, ok, nil
		}
	}
	for {
		d.parked.Store(true)
		if ref, ok, done := d.check(want); done {
			d.parked.Store(false)
			return ref, ok, nil
		}
		select {
		case <-d.wake:
			d.parked.Store(false)
		case <-ctx.Done():
			d.parked.Store(false)
			return 0, false, ctx.Err()
		}
	}
}

// A Ring is the shared state of one client/server pair: the fbuf pool
// whose buffers are the ring slots, the two protection domains, and
// the doorbells for each direction.
type Ring struct {
	path     *fbuf.Path
	client   *fbuf.Domain
	server   *fbuf.Domain
	slotSize int
	slots    int
	reqBell  *doorbell
	repBell  *doorbell

	// poison carries the taxonomy cause of closure (nil for a plain
	// Close); whoever closes first wins, so every blocked peer unparks
	// with the same classified error.
	poison atomic.Pointer[error]
}

// poisonWith records cause (first writer wins) and closes both
// doorbells, unparking any blocked peer.
func (r *Ring) poisonWith(cause error) {
	if cause != nil {
		r.poison.CompareAndSwap(nil, &cause)
	}
	r.reqBell.close()
	r.repBell.close()
}

// closeErr is the error a call blocked on the ring returns after
// closure: ErrClosed, wrapping the poison cause when one was recorded
// so errors.Is sees both the transport closure and its reason.
func (r *Ring) closeErr() error {
	if p := r.poison.Load(); p != nil {
		return fmt.Errorf("%w: %w", ErrClosed, *p)
	}
	return ErrClosed
}

// Config sizes a ring.
type Config struct {
	// SlotSize is the fixed fbuf size backing each slot; 0 means
	// DefaultSlotSize. Must exceed the frame header.
	SlotSize int
	// Slots is the pool depth; 0 means DefaultSlots. One message may
	// splice together at most half the ring, so both directions can
	// hold a maximal message at once without deadlocking the pool.
	Slots int
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.SlotSize == 0 {
		cfg.SlotSize = DefaultSlotSize
	}
	if cfg.Slots == 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.SlotSize <= headerSize+4 {
		return cfg, fmt.Errorf("shmring: slot size %d does not fit a frame header", cfg.SlotSize)
	}
	if cfg.Slots < 2 {
		return cfg, fmt.Errorf("shmring: ring needs at least 2 slots, have %d", cfg.Slots)
	}
	return cfg, nil
}

func newRing(cfg Config) *Ring {
	client := fbuf.NewDomain("shmring-client")
	server := fbuf.NewDomain("shmring-server")
	return &Ring{
		path:     fbuf.NewPath(cfg.SlotSize, cfg.Slots, client, server),
		client:   client,
		server:   server,
		slotSize: cfg.SlotSize,
		slots:    cfg.Slots,
		reqBell:  newDoorbell(),
		repBell:  newDoorbell(),
	}
}

// maxMsgSlots bounds how many slots one message may splice together.
func (r *Ring) maxMsgSlots() int {
	n := r.slots / 2
	if n < 1 {
		n = 1
	}
	return n
}

// writeMessage leases slots from the pool, produces the frame in
// place (header and body in the head slot when the body fits; header
// plus continuation ids in the head and the body spliced across
// continuation slots otherwise), and transfers ownership to the
// receiving domain. ctx bounds the wait for pool slots.
func (r *Ring) writeMessage(ctx context.Context, from, to *fbuf.Domain, op uint32, body []byte) (*fbuf.Buffer, []*fbuf.Buffer, error) {
	if len(body) > MaxMessage {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(body))
	}
	head, err := r.path.AllocBlockingContext(ctx, from)
	if err != nil {
		return nil, nil, err
	}
	arena, err := head.Arena(from)
	if err != nil {
		head.Free(from)
		return nil, nil, err
	}
	if len(body) <= r.slotSize-headerSize {
		putHeader(arena, op, uint32(len(body)), 0)
		copy(arena[headerSize:], body)
		if err := head.SetProduced(from, headerSize+len(body)); err != nil {
			head.Free(from)
			return nil, nil, err
		}
		if err := head.Transfer(from, to, false); err != nil {
			head.Free(from)
			return nil, nil, err
		}
		return head, nil, nil
	}
	nCont := (len(body) + r.slotSize - 1) / r.slotSize
	if 1+nCont > r.maxMsgSlots() || headerSize+4*nCont > r.slotSize || nCont > contMask {
		head.Free(from)
		return nil, nil, fmt.Errorf("%w: %d bytes need %d slots, ring allows %d",
			ErrTooLarge, len(body), 1+nCont, r.maxMsgSlots())
	}
	putHeader(arena, op, uint32(len(body)), uint32(nCont))
	cont := make([]*fbuf.Buffer, 0, nCont)
	fail := func(err error) (*fbuf.Buffer, []*fbuf.Buffer, error) {
		head.Free(from)
		for _, s := range cont {
			s.Free(from)
		}
		return nil, nil, err
	}
	off := 0
	for i := 0; i < nCont; i++ {
		s, err := r.path.AllocBlockingContext(ctx, from)
		if err != nil {
			return fail(err)
		}
		cont = append(cont, s)
		binary.BigEndian.PutUint32(arena[headerSize+4*i:], s.ID())
		n := len(body) - off
		if n > r.slotSize {
			n = r.slotSize
		}
		sa, err := s.Arena(from)
		if err != nil {
			return fail(err)
		}
		copy(sa, body[off:off+n])
		if err := s.SetProduced(from, n); err != nil {
			return fail(err)
		}
		off += n
	}
	if err := head.SetProduced(from, headerSize+4*nCont); err != nil {
		return fail(err)
	}
	for _, s := range cont {
		if err := s.Transfer(from, to, false); err != nil {
			return fail(err)
		}
	}
	if err := head.Transfer(from, to, false); err != nil {
		return fail(err)
	}
	return head, cont, nil
}

// readMessage resolves the published frame for domain d, validates it,
// and returns the op index, body, and every leased buffer (head
// first) so the caller can recycle them once the body is no longer
// referenced. Single-slot bodies alias pool storage (aliased true);
// multi-slot bodies are spliced as an fbuf.Aggregate and gathered
// into dst (grown when too small).
func (r *Ring) readMessage(d *fbuf.Domain, ref uint64, dst []byte) (op uint32, body []byte, aliased bool, bufs []*fbuf.Buffer, err error) {
	head, err := r.path.ByID(d, uint32(ref))
	if err != nil {
		return 0, nil, false, nil, err
	}
	bufs = append(bufs, head)
	hb, err := head.Bytes(d)
	if err != nil {
		return 0, nil, false, bufs, err
	}
	op, bodyLen, flags, err := parseHeader(hb, false)
	if err != nil {
		return 0, nil, false, bufs, err
	}
	nCont := int(flags & contMask)
	if nCont == 0 {
		if len(hb) != headerSize+int(bodyLen) {
			return 0, nil, false, bufs, fmt.Errorf("%w: %d-byte body in %d-byte slot", ErrBadHeader, bodyLen, len(hb))
		}
		return op, hb[headerSize:], true, bufs, nil
	}
	if len(hb) != headerSize+4*nCont {
		return 0, nil, false, bufs, fmt.Errorf("%w: %d continuation ids in %d-byte slot", ErrBadHeader, nCont, len(hb))
	}
	agg := fbuf.NewAggregate()
	for i := 0; i < nCont; i++ {
		s, err := r.path.ByID(d, binary.BigEndian.Uint32(hb[headerSize+4*i:]))
		if err != nil {
			return 0, nil, false, bufs, err
		}
		bufs = append(bufs, s)
		agg.Append(s)
	}
	if agg.Len() != int(bodyLen) {
		return 0, nil, false, bufs, fmt.Errorf("%w: aggregate holds %d bytes, header declares %d", ErrBadHeader, agg.Len(), bodyLen)
	}
	if cap(dst) < int(bodyLen) {
		dst = make([]byte, bodyLen)
	}
	dst = dst[:bodyLen]
	if _, err := agg.Gather(d, dst); err != nil {
		return 0, nil, false, bufs, err
	}
	return op, dst, false, bufs, nil
}

// freeAll recycles leased buffers back to the pool.
func (r *Ring) freeAll(d *fbuf.Domain, bufs []*fbuf.Buffer) {
	for _, b := range bufs {
		b.Free(d)
	}
}

// A Conn is the client end of the generic shmring transport,
// implementing runtime.Conn over already-marshaled bodies. One call
// is in flight at a time (the ring has no xids); the session layer's
// retries and deadlines compose on top exactly as over a pipe.
type Conn struct {
	mu     sync.Mutex
	r      *Ring
	stats  *stats.Endpoint
	bufs   []*fbuf.Buffer
	closed bool
}

// A Server executes frames published on the request doorbell against
// a dispatcher (Serve) or a session layer (ServeSession).
type Server struct {
	r       *Ring
	disp    *runtime.Dispatcher
	plan    *runtime.Plan
	scratch []byte
	frame   []byte // session reply frame under construction (ServeSession)
	bufs    []*fbuf.Buffer

	// The serve loop is one goroutine, so it owns its marshal state:
	// the encoder replies are produced through, into slot arenas, and
	// the call frame requests are served in.
	enc  runtime.Encoder
	work *runtime.Frame
}

// New creates a connected client/server pair over a default-geometry
// ring. Run srv.Serve (or srv.ServeSession) in a goroutine, then
// issue calls on the Conn.
func New(disp *runtime.Dispatcher, plan *runtime.Plan) (*Conn, *Server) {
	c, s, err := NewWithConfig(disp, plan, Config{})
	if err != nil {
		panic(err) // defaults are always valid
	}
	return c, s
}

// NewWithConfig is New with explicit ring geometry.
func NewWithConfig(disp *runtime.Dispatcher, plan *runtime.Plan, cfg Config) (*Conn, *Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	r := newRing(cfg)
	return &Conn{r: r}, &Server{r: r, disp: disp, plan: plan, enc: plan.Codec.NewEncoder(), work: runtime.NewFrame()}, nil
}

// SetStats points the connection's wire meter at e; every frame is
// metered with its header, matching what crosses the ring.
func (c *Conn) SetStats(e *stats.Endpoint) {
	c.mu.Lock()
	c.stats = e
	c.mu.Unlock()
}

// Call implements runtime.Conn: the request is produced into ring
// slots, the request doorbell is rung, and the reply is read back out
// of the slots the server published.
func (c *Conn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, c.r.closeErr()
	}
	head, _, err := c.r.writeMessage(nil, c.r.client, c.r.server, uint32(opIdx), req)
	if err != nil {
		return nil, fmt.Errorf("shmring: send: %w", err)
	}
	if c.stats != nil {
		c.stats.Wire.Add(headerSize + len(req))
	}
	c.r.reqBell.ring(stateReq, uint64(head.ID()))
	ref, ok := c.r.repBell.wait(stateRep)
	if !ok {
		c.closed = true
		return nil, c.r.closeErr()
	}
	c.r.repBell.reset()
	_, body, aliased, bufs, err := c.r.readMessage(c.r.client, ref, replyBuf)
	if err != nil {
		c.r.freeAll(c.r.client, bufs)
		return nil, fmt.Errorf("shmring: receive: %w", err)
	}
	out := body
	if aliased {
		// The body aliases a slot about to be recycled: land it in the
		// caller's buffer — the one endpoint copy a pre-marshaled
		// runtime.Conn body pays.
		if cap(replyBuf) >= len(body) {
			out = replyBuf[:len(body)]
		} else {
			out = make([]byte, len(body))
		}
		copy(out, body)
	}
	c.r.freeAll(c.r.client, bufs)
	if c.stats != nil {
		c.stats.Wire.Add(headerSize + len(out))
	}
	return out, nil
}

// Close wakes both ends and marks the ring closed.
func (c *Conn) Close() error {
	c.r.poisonWith(nil)
	return nil
}

// Poison closes the ring carrying cause: a peer blocked in Call (or a
// server blocked waiting for requests) unparks promptly with an error
// wrapping both ErrClosed and cause, so drains and fault injection
// surface a classified taxonomy error instead of a bare closure.
func (c *Conn) Poison(cause error) {
	c.r.poisonWith(cause)
}

// Serve runs the request loop until the client closes the ring or
// ctx is done. The returned error is nil on clean closure.
func (s *Server) Serve(ctx context.Context) error {
	return s.serve(ctx, nil)
}

// ServeSession is Serve for session traffic: each body is an
// at-most-once session frame handed to sess.HandleAppend, so a RobustConn
// client gets retries, duplicate suppression and reply replay over
// the ring.
func (s *Server) ServeSession(ctx context.Context, sess *runtime.SessionServer) error {
	return s.serve(ctx, sess)
}

// Drain poisons the ring with cause (runtime.ErrDraining when nil):
// the serve loop exits after any in-progress exchange, and a client
// blocked mid-call unparks with an error wrapping ErrClosed and
// cause instead of spinning until its deadline.
func (s *Server) Drain(cause error) {
	if cause == nil {
		cause = runtime.ErrDraining
	}
	s.r.poisonWith(cause)
}

func (s *Server) serve(ctx context.Context, sess *runtime.SessionServer) error {
	r := s.r
	for {
		ref, ok, err := r.reqBell.waitCtx(ctx, stateReq)
		if err != nil {
			r.repBell.close()
			return err
		}
		if !ok {
			r.repBell.close()
			return nil
		}
		r.reqBell.reset()
		op, body, _, bufs, err := r.readMessage(r.server, ref, s.scratch)
		if err != nil {
			r.freeAll(r.server, bufs)
			r.repBell.close()
			return fmt.Errorf("shmring: serve: %w", err)
		}
		if len(body) > cap(s.scratch) && len(bufs) > 1 {
			s.scratch = body[:0] // keep the grown gather buffer
		}
		s.bufs = bufs
		if sess != nil {
			s.frame = sess.HandleAppend(ctx, int(op), body, s.frame[:0])
			err = s.publish(ctx, op, s.frame)
		} else {
			err = s.replyServe(ctx, op, body)
		}
		r.freeAll(r.server, s.bufs)
		s.bufs = nil
		if err != nil {
			r.repBell.close()
			return fmt.Errorf("shmring: reply: %w", err)
		}
	}
}

// replyServe dispatches body and publishes the reply, encoding it
// directly into a leased slot's arena; replies that outgrow the slot
// spill into a spliced multi-slot frame.
func (s *Server) replyServe(ctx context.Context, op uint32, body []byte) error {
	r := s.r
	rep, err := r.path.AllocBlockingContext(ctx, r.server)
	if err != nil {
		return err
	}
	arena, err := rep.Arena(r.server)
	if err != nil {
		rep.Free(r.server)
		return err
	}
	s.enc.ResetArena(arena[headerSize:])
	s.work.ServeMessageContext(ctx, s.disp, s.plan, int(op), body, s.enc)
	encoded := s.enc.Bytes()
	s.enc.ResetArena(nil)
	n, err := runtime.ArenaLen(arena[headerSize:], encoded)
	if err != nil {
		// Spill: the encode outgrew the slot and landed in heap storage;
		// the bytes are still valid, so no re-dispatch is needed.
		rep.Free(r.server)
		return s.publish(ctx, op, encoded)
	}
	// The reply was produced in place: frame it and hand the slot
	// over without touching the bytes again.
	putHeader(arena, op, uint32(n), 0)
	err = rep.SetProduced(r.server, headerSize+n)
	if err == nil {
		err = rep.Transfer(r.server, r.client, false)
	}
	if err != nil {
		rep.Free(r.server)
		return err
	}
	r.repBell.ring(stateRep, uint64(rep.ID()))
	return nil
}

// publish writes body as a frame to the client and rings the reply
// doorbell.
func (s *Server) publish(ctx context.Context, op uint32, body []byte) error {
	head, _, err := s.r.writeMessage(ctx, s.r.server, s.r.client, op, body)
	if err != nil {
		return err
	}
	s.r.repBell.ring(stateRep, uint64(head.ID()))
	return nil
}
