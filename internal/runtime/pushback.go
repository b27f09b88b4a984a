package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Pushback: when admission control (its inflight cap, or a drain)
// rejects a call, the server answers with a pushback frame instead of
// executing it. The frame is an ordinary 8-byte session reply with an
// empty body — it rides the existing status word, so the wire format
// underneath never changes:
//
//	status(4) crc32(body)(4)    with body empty, so the CRC word is 0
//
// The status word's low 8 bits carry the code (sessOverloaded or
// sessDraining); the upper 24 bits carry an advisory retry-after in
// milliseconds (0 = none, max ~4.6 hours). The pre-pushback statuses
// (sessOK, sessBadRequest) were always written as full 32-bit words
// with zero upper bits, so old replies parse identically under the
// split encoding.
//
// The semantic that makes pushback compose with at-most-once: a
// pushed-back call was rejected before decode, so the server
// certainly did not execute it — retrying is safe for every
// operation, idempotent or not, with or without a reply cache.

const (
	pushbackCodeMask = 0xFF
	pushbackMsShift  = 8
	pushbackMaxMs    = 1<<24 - 1
)

// ErrOverloaded reports that the server shed this call before
// decoding it and certainly did not execute it. RetryAfter, when
// nonzero, is the server's advisory pause before retrying — the
// retry loop honors it in place of its own jittered backoff.
// Draining distinguishes a server that is going away (retrying this
// endpoint is pointless) from one that is momentarily at capacity.
type ErrOverloaded struct {
	RetryAfter time.Duration
	Draining   bool
}

func (e *ErrOverloaded) Error() string {
	kind := "overloaded"
	if e.Draining {
		kind = "draining"
	}
	if e.RetryAfter > 0 {
		return fmt.Sprintf("runtime: server %s (retry after %v)", kind, e.RetryAfter)
	}
	return "runtime: server " + kind
}

// ErrDraining is matched (errors.Is) by pushback errors from a
// draining server, and is the taxonomy cause transports use when a
// drain unparks their blocked waiters.
var ErrDraining = errors.New("runtime: server draining")

// Is makes errors.Is(err, ErrDraining) true for draining pushback.
func (e *ErrOverloaded) Is(target error) bool {
	return target == ErrDraining && e.Draining
}

// AppendPushbackFrame appends the 8-byte pushback reply frame to dst.
// retryAfter is clamped to [0, pushbackMaxMs] milliseconds; sub-
// millisecond values round down (a 0 on the wire means "no advice").
func AppendPushbackFrame(dst []byte, draining bool, retryAfter time.Duration) []byte {
	code := uint32(sessOverloaded)
	if draining {
		code = sessDraining
	}
	ms := retryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > pushbackMaxMs {
		ms = pushbackMaxMs
	}
	var b [robustRepHeader]byte
	binary.BigEndian.PutUint32(b[0:4], code|uint32(ms)<<pushbackMsShift)
	// CRC-32 of the empty body is 0: the zeroed word is already right.
	return append(dst, b[:]...)
}

// ParsePushbackFrame validates an untrusted reply frame as a
// pushback. It accepts exactly the frames AppendPushbackFrame
// produces — 8 bytes, a pushback code in the low status byte, the
// empty-body CRC — and an accepted frame re-encodes byte-identically
// from the values returned.
func ParsePushbackFrame(frame []byte) (retryAfter time.Duration, draining bool, err error) {
	if len(frame) != robustRepHeader {
		return 0, false, fmt.Errorf("%w: %d-byte pushback frame", ErrCorruptReply, len(frame))
	}
	status := binary.BigEndian.Uint32(frame[0:4])
	if binary.BigEndian.Uint32(frame[4:8]) != 0 {
		return 0, false, fmt.Errorf("%w: pushback frame with a body checksum", ErrCorruptReply)
	}
	switch status & pushbackCodeMask {
	case sessOverloaded:
	case sessDraining:
		draining = true
	default:
		return 0, false, fmt.Errorf("%w: status %#x is not a pushback", ErrCorruptReply, status)
	}
	return time.Duration(status>>pushbackMsShift) * time.Millisecond, draining, nil
}
