package runtime

import (
	"errors"
	"fmt"
)

// ErrArenaOverflow reports that an arena-targeted encode did not fit
// in the caller's storage. The transport falls back to a larger slot
// (or a spliced aggregate of slots) and retries.
var ErrArenaOverflow = errors.New("runtime: encoded message exceeds arena capacity")

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
// dst through enc, the caller's own encoder, and returns the number of
// bytes written. The pool is the arena: a same-domain transport passes
// a ring-buffer slot's storage here and the request bytes are produced
// in place, never staged elsewhere. Returns ErrArenaOverflow when the
// message does not fit in dst; enc holds no reference to dst
// afterwards.
func (op *OpPlan) EncodeRequestArena(enc Encoder, dst []byte, args []Value) (int, error) {
	enc.ResetArena(dst)
	err := op.EncodeRequest(enc, args)
	var n int
	if err == nil {
		n, err = ArenaLen(dst, enc.Bytes())
	}
	enc.ResetArena(nil)
	return n, err
}
