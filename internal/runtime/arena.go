package runtime

import (
	"errors"
	"fmt"
)

// ErrArenaOverflow reports that an arena-targeted encode did not fit
// in the caller's storage. The transport falls back to a larger slot
// (or a spliced aggregate of slots) and retries.
var ErrArenaOverflow = errors.New("runtime: encoded message exceeds arena capacity")

// An ArenaEncoder is an Encoder that can be re-aimed at fixed,
// caller-provided storage: ResetArena(dst) makes subsequent Puts land
// in dst's backing array (up to its length), so a marshal plan can
// encode a message directly into a transport buffer — an fbuf
// ring-buffer slot — with no intermediate record buffer and no copy.
// Both built-in codecs implement it.
type ArenaEncoder interface {
	Encoder
	ResetArena(dst []byte)
}

func (x *xdrEncoder) ResetArena(dst []byte) { x.e.ResetTo(dst) }
func (c *cdrEncoder) ResetArena(dst []byte) { c.e.ResetTo(dst) }

// AcquireArenaEncoder returns an encoder aimed at dst, pooling when
// the codec supports arena encoding; ok is false when it does not
// (callers then fall back to a staged encode + copy). Pair with
// ReleaseArenaEncoder.
func (p *Plan) AcquireArenaEncoder(dst []byte) (ArenaEncoder, bool) {
	if ae, okPool := p.arenaPool.Get().(ArenaEncoder); okPool {
		ae.ResetArena(dst)
		return ae, true
	}
	ae, ok := p.Codec.NewEncoder().(ArenaEncoder)
	if !ok {
		return nil, false
	}
	ae.ResetArena(dst)
	return ae, true
}

// ReleaseArenaEncoder returns an encoder obtained from
// AcquireArenaEncoder to the pool, dropping its reference to the
// transport storage first.
func (p *Plan) ReleaseArenaEncoder(ae ArenaEncoder) {
	ae.ResetArena(nil)
	p.arenaPool.Put(ae)
}

// ArenaLen validates that an arena-targeted encode stayed inside dst
// and returns the encoded length. The encoders are append-based, so
// an encode that outgrew the arena reallocated away from dst's
// backing array — detected by comparing first-byte addresses — and is
// reported as ErrArenaOverflow rather than silently landing the
// message in heap storage the peer cannot see.
func ArenaLen(dst, encoded []byte) (int, error) {
	if len(encoded) == 0 {
		return 0, nil
	}
	if len(dst) == 0 || &encoded[0] != &dst[0] {
		return 0, fmt.Errorf("%w: need %d bytes, arena holds %d", ErrArenaOverflow, len(encoded), len(dst))
	}
	return len(encoded), nil
}

// EncodeRequestArena marshals the in/inout arguments directly into
// dst and returns the number of bytes written. The pool is the arena:
// a same-domain transport passes a ring-buffer slot's storage here and
// the request bytes are produced in place, never staged elsewhere.
// Returns ErrArenaOverflow when the message does not fit in dst.
func (op *OpPlan) EncodeRequestArena(dst []byte, args []Value) (int, error) {
	ae, ok := op.plan.AcquireArenaEncoder(dst)
	if !ok {
		return 0, fmt.Errorf("runtime: codec %s cannot target an arena", op.plan.Codec.Name())
	}
	err := op.EncodeRequest(ae, args)
	var n int
	if err == nil {
		n, err = ArenaLen(dst, ae.Bytes())
	}
	op.plan.ReleaseArenaEncoder(ae)
	return n, err
}
