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
// Every ring has the same geometry, Slots slots of SlotSize bytes: no
// caller has needed another, so none can ask for one.
//
// Connect's Bound is the only binding: marshal plans encode straight
// into slot-sized arenas, one call is in flight at a time, and the
// conformance matrix runs it inline and through the doorbell. Only a
// binding that hands off builds a ring and leases its slots; an inline
// binding holds two arenas of its own and no ring. Session
// traffic (RobustConn, at-most-once) does not ride the ring: a binding
// is in-process, so there is no loss for retries to mask.
package shmring

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync/atomic"

	"flexrpc/internal/fbuf"
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

// Ring geometry. Every binding's ring is Slots fbufs of SlotSize bytes:
// a body up to one slot less its header travels in the head slot, a
// longer one splices continuation slots, and one message may splice at
// most half the ring, so both directions can hold a maximal message at
// once without deadlocking the pool.
const (
	SlotSize = 4096
	Slots    = 8
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
// close wants exactly the opposite — the completed call delivers, the
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
	if w := d.word.Load(); w&stateMask == want {
		return w >> stateBits, true, true
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
}

// newRing builds a ring of slots fbufs of slotSize bytes; Connect's
// is always SlotSize by Slots.
func newRing(slotSize, slots int) *Ring {
	client := fbuf.NewDomain("shmring-client")
	server := fbuf.NewDomain("shmring-server")
	return &Ring{
		path:     fbuf.NewPath(slotSize, slots, client, server),
		client:   client,
		server:   server,
		slotSize: slotSize,
		slots:    slots,
		reqBell:  newDoorbell(),
		repBell:  newDoorbell(),
	}
}

// maxMsgSlots bounds how many slots one message may splice together.
func (r *Ring) maxMsgSlots() int { return r.slots / 2 }

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
