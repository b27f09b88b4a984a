package shmring

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"flexrpc/internal/fbuf"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// Options configures Connect. The ring's geometry is fixed (SlotSize,
// Slots).
type Options struct {
	// Hooks supply [special] marshal routines for the client plan; the
	// server plan is the dispatcher's, compiled under its own hooks.
	Hooks runtime.SpecialHooks
	// ForceDoorbell keeps the cross-goroutine doorbell handoff even
	// when full mutual trust would allow inline dispatch; benchmarks
	// use it to measure the handoff itself.
	ForceDoorbell bool
}

// A Bound is a bind-time specialized shmring connection implementing
// runtime.Invoker/ContextInvoker: the client plan is compiled at
// Connect beside the dispatcher's own server plan, request bytes are
// produced directly into a leased ring slot's arena, and the
// annotations decide — once, at bind — how much of the untrusted-peer
// machinery the per-call path keeps:
//
//   - [trusted] on both sides (the paper's §4.5 trust ladder) elides
//     header validation, the per-call fbuf ownership protocol, and —
//     unless ForceDoorbell — the handoff itself: the handler runs
//     inline on the caller's goroutine, LRPC-style thread migration
//     for the same-domain case.
//   - [nonunique] port naming (or an interface with no port
//     parameters) elides the per-handoff name-table lookup: the
//     doorbell word carries a ring position resolved by direct
//     indexing instead of an fbuf id resolved through the path's
//     id map.
//
// The op table, the stats front and, inline, the operations with
// nothing to marshal are the same-domain program's (runtime.SameDomain):
// for those the combination signature compiled the transport away,
// which is exactly the paper's point. The Bound keeps the marshalled
// paths.
type Bound struct {
	mu    sync.Mutex
	ring  *Ring
	disp  *runtime.Dispatcher
	prog  *runtime.SameDomain
	cplan *runtime.Plan
	splan *runtime.Plan

	trusted   bool
	nonUnique bool
	inline    bool

	// Leased slots: the bind-time lease replaces per-call pool
	// traffic. Under trust the arenas are cached and the ownership
	// protocol is skipped; untrusted bindings move ownership back and
	// forth every call.
	reqSlot, repSlot   *fbuf.Buffer
	reqArena, repArena []byte

	scratch []byte // server-side gather buffer for spilled requests

	// Marshal working state, owned rather than pooled because the calls
	// are already serialised: reqEnc and cdec by whoever holds mu (the
	// client half), frame and repEnc by whoever serves — the same holder
	// under inline dispatch, the doorbell goroutine otherwise.
	reqEnc, repEnc runtime.Encoder
	cdec           runtime.Decoder
	frame          *runtime.Frame

	stats  *stats.Endpoint // the program's endpoint, for the byte meters
	closed atomic.Bool
	done   chan struct{} // doorbell server goroutine exit
}

// Connect binds a client presentation to a dispatcher over a private
// ring, compiling the client plan, taking the dispatcher's server plan
// and resolving the annotation-driven specializations once. The network
// contract must match, as for any bind. Enable stats before issuing
// calls.
func Connect(clientPres *pres.Presentation, disp *runtime.Dispatcher, codec runtime.Codec, opts Options) (*Bound, error) {
	comb, err := pres.Combine(clientPres, disp.Pres)
	if err != nil {
		return nil, fmt.Errorf("shmring: %w", err)
	}
	cplan, err := runtime.NewPlan(clientPres, codec, opts.Hooks)
	if err != nil {
		return nil, err
	}
	splan, err := disp.Plan(codec)
	if err != nil {
		return nil, err
	}
	b := &Bound{
		ring:      newRing(SlotSize, Slots),
		disp:      disp,
		cplan:     cplan,
		splan:     splan,
		trusted:   comb.Trusted,
		nonUnique: comb.NonUnique,
		inline:    comb.Trusted && !opts.ForceDoorbell,
		done:      make(chan struct{}),
		frame:     runtime.NewFrame(),
		reqEnc:    codec.NewEncoder(),
		repEnc:    codec.NewEncoder(),
		cdec:      cplan.NewDecoder(nil),
	}
	b.prog = runtime.NewSameDomain(comb, disp, b.marshal, b.inline)
	// Bind-time slot lease: one slot per direction for the steady
	// state; splices for oversized messages come from the rest of the
	// pool per call.
	if b.reqSlot, err = b.ring.path.Alloc(b.ring.client); err != nil {
		return nil, err
	}
	if b.repSlot, err = b.ring.path.Alloc(b.ring.server); err != nil {
		return nil, err
	}
	if b.reqArena, err = b.reqSlot.Arena(b.ring.client); err != nil {
		return nil, err
	}
	if b.repArena, err = b.repSlot.Arena(b.ring.server); err != nil {
		return nil, err
	}
	if !b.inline {
		go b.serveLoop()
	} else {
		close(b.done)
	}
	return b, nil
}

// InlineDispatch reports whether calls run the handler on the caller's
// goroutine: mutual full trust, and no ForceDoorbell.
func (b *Bound) InlineDispatch() bool { return b.inline }

// EnableStats switches on client-side observability, pointing the
// client plan's codec meters at the same endpoint. Call before
// issuing calls — the plans are shared with the serve goroutine.
func (b *Bound) EnableStats() *stats.Endpoint {
	if b.stats == nil {
		b.stats = b.prog.EnableStats()
		b.cplan.SetStats(b.stats)
	}
	return b.stats
}

// ServerPlan exposes the dispatcher's server plan so callers can point
// its meters at an endpoint (benchmarks metering the full round
// trip). Do this before issuing calls.
func (b *Bound) ServerPlan() *runtime.Plan { return b.splan }

// Close tears the binding down: both doorbells wake closed and the
// serve goroutine (if any) exits.
func (b *Bound) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	b.ring.reqBell.close()
	b.ring.repBell.close()
	<-b.done
	return nil
}

// Invoke implements runtime.Invoker.
func (b *Bound) Invoke(op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	if b.closed.Load() {
		return nil, nil, ErrClosed
	}
	return b.prog.Invoke(op, args, outBufs, retBuf)
}

// InvokeContext implements runtime.ContextInvoker. The context bounds
// slot-pool waits and the reply doorbell wait; a call abandoned at
// the doorbell poisons the binding (the ring is desynchronized), so
// subsequent calls fail with ErrClosed.
func (b *Bound) InvokeContext(ctx context.Context, op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	if b.closed.Load() {
		return nil, nil, ErrClosed
	}
	return b.prog.InvokeContext(ctx, op, args, outBufs, retBuf)
}

// marshal is the program's path for every call it does not run direct:
// through the slot arenas, inline or over the doorbell. Every path
// dispatches by the combination's server index.
func (b *Bound) marshal(ctx context.Context, op *pres.CombinedOp, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Load() {
		return nil, nil, ErrClosed
	}
	cop := b.cplan.Ops[op.Index]
	if b.inline {
		return b.invokeInline(ctx, cop, op.Server, args, outBufs, retBuf)
	}
	return b.invokeDoorbell(ctx, cop, op.Server, args, outBufs, retBuf)
}

// invokeInline runs the call on the caller's goroutine: request bytes
// are produced into the leased request slot's arena, the dispatcher
// consumes them and produces the reply into the reply slot's arena,
// and the client plan decodes it from there. No doorbell, no header:
// under full mutual trust the op index rides in a register (the
// argument) and validation is elided.
func (b *Bound) invokeInline(ctx context.Context, cop *runtime.OpPlan, sidx int, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	body := b.reqArena
	n, err := cop.EncodeRequestArena(b.reqEnc, b.reqArena, args)
	switch {
	case err == nil:
		body = b.reqArena[:n]
	case errors.Is(err, runtime.ErrArenaOverflow):
		// Oversized request: stage in heap storage (rare path).
		enc := b.cplan.Codec.NewEncoder()
		if err := cop.EncodeRequest(enc, args); err != nil {
			return nil, nil, err
		}
		body = enc.Bytes()
	default:
		return nil, nil, err
	}
	b.stats.AddOp(cop.Idx, stats.OpBytesOut, len(body))
	b.repEnc.ResetArena(b.repArena)
	err = b.frame.ServeMessageRawContext(ctx, b.disp, b.splan, sidx, body, b.repEnc)
	if err != nil {
		b.dropReply()
		return nil, nil, err
	}
	// An oversized reply reallocated off the arena; the bytes are
	// still valid either way, so no length check is needed inline.
	reply := b.repEnc.Bytes()
	b.stats.AddOp(cop.Idx, stats.OpBytesIn, len(reply))
	b.cdec.Reset(reply)
	outs, ret, derr := cop.DecodeReply(b.cdec, outBufs, retBuf)
	b.dropReply()
	return outs, ret, derr
}

// dropReply ends an inline call: neither half keeps a reference to the
// reply, which a spill put in heap storage.
func (b *Bound) dropReply() {
	b.repEnc.ResetArena(nil)
	b.cdec.Reset(nil)
}

// invokeDoorbell publishes the request through the doorbell handoff
// and decodes the framed reply the serve goroutine produced.
func (b *Bound) invokeDoorbell(ctx context.Context, cop *runtime.OpPlan, sidx int, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	ref, n, err := b.sendRequest(ctx, cop, sidx, args)
	if err != nil {
		return nil, nil, err
	}
	b.stats.AddOp(cop.Idx, stats.OpBytesOut, n)
	b.ring.reqBell.ring(stateReq, ref)
	rref, ok, err := b.ring.repBell.waitCtx(ctx, stateRep)
	if err != nil {
		// Abandoned mid-exchange: the ring state is unknown, poison
		// the binding rather than desynchronize.
		b.poison()
		return nil, nil, err
	}
	if !ok {
		b.closed.Store(true)
		return nil, nil, ErrClosed
	}
	b.ring.repBell.reset()
	return b.receiveReply(cop, rref, outBufs, retBuf)
}

// sendRequest produces the request frame under the binding's mode and
// returns the doorbell reference (0 = the leased slot pair; nonzero =
// a generic frame resolved through the path's name table) and the
// body's length.
func (b *Bound) sendRequest(ctx context.Context, cop *runtime.OpPlan, sidx int, args []runtime.Value) (ref uint64, n int, err error) {
	r := b.ring
	if !b.trusted && !b.nonUnique {
		// Unique naming: the peer insists on resolving buffers through
		// the system-maintained name table, so every call leases fresh
		// slots and publishes their ids — the cost [nonunique] elides.
		return b.spillRequest(ctx, cop, sidx, args)
	}
	if !b.trusted {
		// [nonunique] naming with an untrusted peer: the slot pair is
		// bound once (the doorbell ref is a constant ring position, no
		// id lookup), but the full fbuf discipline remains — take the
		// arena as owner, produce in place, declare the length, move
		// ownership.
		arena, err := b.reqSlot.Arena(r.client)
		if err != nil {
			return 0, 0, err
		}
		n, err = cop.EncodeRequestArena(b.reqEnc, arena[headerSize:], args)
		if errors.Is(err, runtime.ErrArenaOverflow) {
			return b.spillRequest(ctx, cop, sidx, args)
		}
		if err != nil {
			return 0, 0, err
		}
		putHeader(arena, uint32(sidx), uint32(n), 0)
		if err := b.reqSlot.SetProduced(r.client, headerSize+n); err != nil {
			return 0, 0, err
		}
		if err := b.reqSlot.Transfer(r.client, r.server, false); err != nil {
			return 0, 0, err
		}
		return 0, n, nil
	}
	// Trusted: the cached arena is written directly; ownership ops and
	// checksums are elided, only the header's op and length words are
	// produced for the peer.
	n, err = cop.EncodeRequestArena(b.reqEnc, b.reqArena[headerSize:], args)
	if errors.Is(err, runtime.ErrArenaOverflow) {
		return b.spillRequest(ctx, cop, sidx, args)
	}
	if err != nil {
		return 0, 0, err
	}
	putHeader(b.reqArena, uint32(sidx), uint32(n), 0)
	return 0, n, nil
}

// spillRequest publishes the request as a generic name-table frame:
// oversized messages splice across pool slots, and unique-naming
// bindings route every request here so the peer can resolve the
// buffers by id.
func (b *Bound) spillRequest(ctx context.Context, cop *runtime.OpPlan, sidx int, args []runtime.Value) (uint64, int, error) {
	enc := b.cplan.Codec.NewEncoder()
	if err := cop.EncodeRequest(enc, args); err != nil {
		return 0, 0, err
	}
	body := enc.Bytes()
	head, _, err := b.ring.writeMessage(ctx, b.ring.client, b.ring.server, uint32(sidx), body)
	if err != nil {
		return 0, 0, err
	}
	return uint64(head.ID()), len(body), nil
}

// receiveReply reads the framed reply (status word first) and decodes
// it with the client plan.
func (b *Bound) receiveReply(cop *runtime.OpPlan, ref uint64, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	r := b.ring
	var reply []byte
	var bufs []*fbuf.Buffer
	if ref == 0 {
		hb := b.repArena
		if !b.trusted {
			var err error
			if hb, err = b.repSlot.Bytes(r.client); err != nil {
				return nil, nil, err
			}
		}
		_, n, _, err := parseHeader(hb, b.trusted)
		if err != nil {
			return nil, nil, err
		}
		if headerSize+int(n) > len(hb) {
			return nil, nil, fmt.Errorf("%w: reply length %d", ErrBadHeader, n)
		}
		reply = hb[headerSize : headerSize+int(n)]
	} else {
		var err error
		_, reply, _, bufs, err = r.readMessage(r.client, ref, nil)
		if err != nil {
			r.freeAll(r.client, bufs)
			return nil, nil, err
		}
	}
	b.stats.AddOp(cop.Idx, stats.OpBytesIn, len(reply))
	outs, ret, err := b.decodeFramedReply(cop, reply, outBufs, retBuf)
	if bufs != nil {
		r.freeAll(r.client, bufs)
	} else if !b.trusted {
		// Recycle the leased reply slot back to the producer.
		if terr := b.repSlot.Transfer(r.client, r.server, false); terr != nil && err == nil {
			err = terr
		}
	}
	return outs, ret, err
}

func (b *Bound) decodeFramedReply(cop *runtime.OpPlan, reply []byte, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	b.cdec.Reset(reply)
	outs, ret, err := decodeFramed(cop, b.cdec, outBufs, retBuf)
	b.cdec.Reset(nil) // the reply's slots go back to the peer
	return outs, ret, err
}

func decodeFramed(cop *runtime.OpPlan, dec runtime.Decoder, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	status, err := dec.Uint32()
	if err != nil {
		return nil, nil, fmt.Errorf("shmring: truncated reply: %w", err)
	}
	if status != 0 {
		msg, merr := dec.String()
		if merr != nil {
			msg = "(unreadable error)"
		}
		return nil, nil, &runtime.RemoteError{Msg: msg}
	}
	return cop.DecodeReply(dec, outBufs, retBuf)
}

// poison marks the binding unusable and wakes everything.
func (b *Bound) poison() {
	if !b.closed.Swap(true) {
		b.ring.reqBell.close()
		b.ring.repBell.close()
	}
}

// serveLoop is the doorbell-mode server: it consumes request frames,
// dispatches them, and produces framed replies into the reply slot's
// arena (spilling across pool slots when oversized).
func (b *Bound) serveLoop() {
	defer close(b.done)
	r := b.ring
	for {
		ref, ok := r.reqBell.wait(stateReq)
		if !ok {
			r.repBell.close()
			return
		}
		r.reqBell.reset()
		if err := b.serveOne(ref); err != nil {
			r.repBell.close()
			return
		}
	}
}

func (b *Bound) serveOne(ref uint64) error {
	r := b.ring
	var body []byte
	var op uint32
	var bufs []*fbuf.Buffer
	if ref == 0 {
		hb := b.reqArena
		if !b.trusted {
			var err error
			if hb, err = b.reqSlot.Bytes(r.server); err != nil {
				return err
			}
		}
		var n, flags uint32
		var err error
		op, n, flags, err = parseHeader(hb, b.trusted)
		if err != nil || flags&contMask != 0 || headerSize+int(n) > len(hb) {
			if err == nil {
				err = fmt.Errorf("%w: request frame", ErrBadHeader)
			}
			return err
		}
		body = hb[headerSize : headerSize+int(n)]
	} else {
		var aliased bool
		var err error
		op, body, aliased, bufs, err = r.readMessage(r.server, ref, b.scratch)
		if err != nil {
			r.freeAll(r.server, bufs)
			return err
		}
		if !aliased && cap(body) > cap(b.scratch) {
			b.scratch = body[:0]
		}
	}
	// recycle returns the consumed request bytes to the client: free
	// the spliced slots, or move the leased slot's ownership back. It
	// MUST run before the reply bell rings — once the client wakes it
	// may immediately produce the next request into the leased slot.
	recycle := func() error {
		if bufs != nil {
			r.freeAll(r.server, bufs)
			return nil
		}
		if !b.trusted {
			return b.reqSlot.Transfer(r.server, r.client, false)
		}
		return nil
	}
	return b.replyOne(op, body, recycle)
}

// replyOne dispatches one request and publishes the framed reply.
// recycle runs after the dispatch has consumed the request bytes and
// before the reply doorbell rings.
func (b *Bound) replyOne(op uint32, body []byte, recycle func() error) error {
	r := b.ring
	if !b.trusted && !b.nonUnique {
		// Unique naming: the reply, too, travels as a name-table frame.
		henc := b.splan.Codec.NewEncoder()
		b.frame.ServeMessage(b.disp, b.splan, int(op), body, henc)
		if err := recycle(); err != nil {
			return err
		}
		return b.publishReply(op, henc.Bytes())
	}
	var arena []byte
	if b.trusted {
		arena = b.repArena
	} else {
		var err error
		if arena, err = b.repSlot.Arena(r.server); err != nil {
			return err
		}
	}
	b.repEnc.ResetArena(arena[headerSize:])
	b.frame.ServeMessage(b.disp, b.splan, int(op), body, b.repEnc)
	encoded := b.repEnc.Bytes()
	// Whatever happens next the encoder is done with the slot (and with
	// the heap storage an oversized reply landed in).
	b.repEnc.ResetArena(nil)
	if err := recycle(); err != nil {
		return err
	}
	n, err := runtime.ArenaLen(arena[headerSize:], encoded)
	if err != nil {
		// Oversized reply: the encode landed in heap storage; splice it
		// across pool slots without re-dispatching.
		return b.publishReply(op, encoded)
	}
	putHeader(arena, op, uint32(n), 0)
	if !b.trusted {
		if err := b.repSlot.SetProduced(r.server, headerSize+n); err != nil {
			return err
		}
		if err := b.repSlot.Transfer(r.server, r.client, false); err != nil {
			return err
		}
	}
	r.repBell.ring(stateRep, 0)
	return nil
}

func (b *Bound) publishReply(op uint32, frame []byte) error {
	head, _, err := b.ring.writeMessage(nil, b.ring.server, b.ring.client, op, frame)
	if err != nil {
		return err
	}
	b.ring.repBell.ring(stateRep, uint64(head.ID()))
	return nil
}
