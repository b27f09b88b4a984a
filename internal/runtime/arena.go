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

// NewArenaEncoder returns an encoder of the plan's codec that can be
// aimed at transport storage; ok is false when the codec cannot
// (callers then stage the encode and copy). Whoever serialises the
// calls owns it and re-aims it per message with ResetArena.
func (p *Plan) NewArenaEncoder() (ArenaEncoder, bool) {
	ae, ok := p.Codec.NewEncoder().(ArenaEncoder)
	return ae, ok
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
// dst through ae, the caller's own arena encoder, and returns the
// number of bytes written. The pool is the arena: a same-domain
// transport passes a ring-buffer slot's storage here and the request
// bytes are produced in place, never staged elsewhere. Returns
// ErrArenaOverflow when the message does not fit in dst; ae holds no
// reference to dst afterwards.
func (op *OpPlan) EncodeRequestArena(ae ArenaEncoder, dst []byte, args []Value) (int, error) {
	ae.ResetArena(dst)
	err := op.EncodeRequest(ae, args)
	var n int
	if err == nil {
		n, err = ArenaLen(dst, ae.Bytes())
	}
	ae.ResetArena(nil)
	return n, err
}
