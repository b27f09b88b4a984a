package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// The session protocol, every decision of it, as pure code: the frame
// codec, the client's state and retry step, and the server's step.
// RobustConn, SessionServer and the batcher are shells around it that
// hold the locks, the clock, the retry budget and the I/O (DESIGN.md
// §6). It rides beneath the presentation — the bodies it carries are
// byte-identical with or without it.
//
// Frames are fixed big-endian binary, independent of the marshal codec
// (the body keeps whatever codec the plan chose):
//
//	request: cid(4) seq(4) flags(4) crc32(cid seq flags body)(4) body...
//	reply:   status(4) crc32(body)(4) body...
//
// cid identifies the client instance, seq the logical call; a retry
// retransmits the same (cid, seq), which is what lets the server's
// ReplyCache suppress duplicate execution. flags bit 0 marks the
// operation [idempotent], telling the server caching is unnecessary;
// bit 1 marks a batch frame. Bits 2-15 carry an acknowledgement:
// d = seq − s for one earlier cacheable call s of the same client that
// has finished, its reply received or given up on (0 = no ack). The
// server then frees the reply bytes it retained for (cid, s) but keeps
// the key, so a late retransmit of s is answered sessStale rather than
// executed again. flags bits 16-31 carry the call's 16-bit trace id
// (0 = untraced). The request CRC covers the 12 header bytes before it
// and the body, so a damaged cid, seq or flags word — a wrong key, a
// forged idempotent bit or ack — is refused like a damaged body. The
// reply CRC lets the client tell a corrupted reply (retryable: the cache
// makes the retry safe) from a clean one carrying an application error
// (not retryable: the server executed).
const (
	robustReqHeader = 16
	robustRepHeader = 8

	flagIdempotent = 1 << 0
	flagBatch      = 1 << 1 // body is a batch of sub-calls; op index rides per sub-call
	ackShift       = 2
	ackMask        = 1<<14 - 1 // flags bits 2-15: seq − acknowledged seq
	traceIDShift   = 16

	// The pushback statuses split the status word: code in the low 8
	// bits, advisory retry-after milliseconds in the upper 24 (0 = no
	// advice, max ~4.6 hours). The others are full words.
	pushbackCodeMask = 0xFF
	pushbackMsShift  = 8
	pushbackMaxMs    = 1<<24 - 1

	// ackQueueLen bounds the finished seqs a client holds for later
	// frames to acknowledge; when it overflows, the oldest is dropped and
	// its reply lives in the server's cache until FIFO eviction.
	ackQueueLen = 64
)

// sessStatus is a reply frame's status: a closed set.
type sessStatus uint8

const (
	sessOK         = 0 // body is the dispatcher's reply (status framing + results)
	sessBadRequest = 1 // request frame failed its length or CRC check; body empty; retry
	sessOverloaded = 2 // admission control shed the call before decode; body empty
	sessDraining   = 3 // server is draining; body empty; retry elsewhere/later
	sessStale      = 4 // retransmit of a key whose reply was acknowledged; body empty
)

func (s sessStatus) String() string {
	if s > sessStale {
		return fmt.Sprintf("sessStatus(%d)", uint8(s))
	}
	return [...]string{"ok", "bad request", "overloaded", "draining", "stale"}[s]
}

// reqHeader is a request frame's header, its flags word unpacked.
type reqHeader struct {
	cid, seq    uint32
	idem, batch bool
	ackDist     uint32 // seq − the acknowledged seq; 0 for none
	tid         uint32 // trace id, 0 for untraced; its low 16 bits ride the wire
	sum         uint32 // the CRC as read; appendRequest computes its own
}

// key is the frame's reply-cache key; ack the key it acknowledges, if
// any. The ack names a call of the frame's own client, so one client
// can never release another's reply.
func (h reqHeader) key() uint64 { return uint64(h.cid)<<32 | uint64(h.seq) }
func (h reqHeader) ack() (uint64, bool) {
	return uint64(h.cid)<<32 | uint64(h.seq-h.ackDist), h.ackDist != 0
}

// requestCRC is the checksum of a request frame: its header words
// before the CRC, then its body — a null call's is empty, and skipping
// its update saves a table dispatch per frame on each side.
func requestCRC(frame []byte) uint32 {
	sum := crc32.ChecksumIEEE(frame[:12])
	if body := frame[robustReqHeader:]; len(body) > 0 {
		sum = crc32.Update(sum, crc32.IEEETable, body)
	}
	return sum
}

// appendRequest appends body's request frame under h, computing the
// CRC.
func appendRequest(dst []byte, h *reqHeader, body []byte) []byte {
	flags := h.ackDist&ackMask<<ackShift | h.tid<<traceIDShift
	if h.idem {
		flags |= flagIdempotent
	}
	if h.batch {
		flags |= flagBatch
	}
	start, end := len(dst), len(dst)+robustReqHeader+len(body)
	if cap(dst) < end {
		dst = append(make([]byte, 0, end), dst...)
	}
	dst = dst[:end]
	f := dst[start:]
	binary.BigEndian.PutUint32(f, h.cid)
	binary.BigEndian.PutUint32(f[4:], h.seq)
	binary.BigEndian.PutUint32(f[8:], flags)
	copy(f[robustReqHeader:], body)
	binary.BigEndian.PutUint32(f[12:], requestCRC(f))
	return dst
}

// parseRequest reads a request frame's header words; ok is false when
// the frame is too short to hold them.
func parseRequest(frame []byte) (h reqHeader, ok bool) {
	if len(frame) < robustReqHeader {
		return h, false
	}
	be, flags := binary.BigEndian, binary.BigEndian.Uint32(frame[8:])
	return reqHeader{cid: be.Uint32(frame), seq: be.Uint32(frame[4:]), sum: be.Uint32(frame[12:]),
		idem: flags&flagIdempotent != 0, batch: flags&flagBatch != 0,
		ackDist: flags >> ackShift & ackMask, tid: flags >> traceIDShift}, true
}

// openReply reserves a reply header at the end of dst, for the body to
// follow; closeReply writes the header opened at dst[hdr:]: the status
// word and the CRC of everything after it.
func openReply(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }
func closeReply(dst []byte, hdr int, status uint32) []byte {
	binary.BigEndian.PutUint32(dst[hdr:], status)
	binary.BigEndian.PutUint32(dst[hdr+4:], crc32.ChecksumIEEE(dst[hdr+robustRepHeader:]))
	return dst
}

// appendReply appends a whole reply frame: status word, CRC, body.
func appendReply(dst []byte, status uint32, body []byte) []byte {
	hdr := len(dst)
	return closeReply(append(openReply(dst), body...), hdr, status)
}

// appendEmptyReply appends a reply with a full-word status and no
// body: sessBadRequest, which asks for a retransmit, or sessStale.
func appendEmptyReply(dst []byte, status sessStatus) []byte {
	return appendReply(dst, uint32(status), nil)
}

// AppendPushbackFrame appends the 8-byte pushback reply frame to dst.
// retryAfter is clamped to [0, pushbackMaxMs] milliseconds; sub-
// millisecond values round down (a 0 on the wire means "no advice").
func AppendPushbackFrame(dst []byte, draining bool, retryAfter time.Duration) []byte {
	code := uint32(sessOverloaded)
	if draining {
		code = sessDraining
	}
	return appendReply(dst, code|uint32(min(max(retryAfter.Milliseconds(), 0), pushbackMaxMs))<<pushbackMsShift, nil)
}

// errNotPushback rejects a reply frame that is not a pushback.
var errNotPushback = fmt.Errorf("%w: not a pushback frame", ErrCorruptReply)

// ParsePushbackFrame validates an untrusted reply frame as a
// pushback. It accepts exactly the frames AppendPushbackFrame
// produces — 8 bytes, a pushback code in the low status byte, the
// empty-body CRC — and an accepted frame re-encodes byte-identically
// from the values returned.
func ParsePushbackFrame(frame []byte) (retryAfter time.Duration, draining bool, err error) {
	if len(frame) != robustRepHeader || binary.BigEndian.Uint32(frame[4:]) != 0 {
		return 0, false, errNotPushback
	}
	switch word := binary.BigEndian.Uint32(frame); word & pushbackCodeMask {
	case sessOverloaded, sessDraining:
		return time.Duration(word>>pushbackMsShift) * time.Millisecond, word&pushbackCodeMask == sessDraining, nil
	}
	return 0, false, errNotPushback
}

// attemptOutcome is how one attempt of a call ended.
type attemptOutcome uint8

const (
	attemptOK         attemptOutcome = iota // a clean sessOK reply
	attemptRemote                           // the server executed and answered with an error
	attemptFault                            // the transport failed, or the attempt timed out
	attemptCorrupt                          // the reply failed its length or CRC check
	attemptStale                            // a clean reply that answers no live call
	attemptBadRequest                       // the server got the request damaged and did not execute it
	attemptPushback                         // shed before decode: certainly not executed
	attemptCtxDone                          // the caller gave up
)

func (o attemptOutcome) String() string {
	return [...]string{"ok", "remote error", "transport fault", "corrupt reply", "stale reply",
		"bad request", "pushback", "ctx done"}[o]
}

// errStaleReply reports a clean reply whose status answers no live
// call — sessStale, or a word no server writes — which reaches a
// caller only through a damaged status word: a client acknowledges only
// what it has finished.
var errStaleReply = fmt.Errorf("%w: status answers no live call", ErrCorruptReply)

// readReply reads a reply frame: the body of a sessOK reply, or the
// outcome and error of any other. A pushback's error is an
// *ErrOverloaded carrying its retry-after.
func readReply(frame []byte) (body []byte, o attemptOutcome, err error) {
	if len(frame) < robustRepHeader {
		return nil, attemptCorrupt, fmt.Errorf("%w: %d-byte frame", ErrCorruptReply, len(frame))
	}
	body = frame[robustRepHeader:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(frame[4:]) {
		return nil, attemptCorrupt, ErrCorruptReply
	}
	switch binary.BigEndian.Uint32(frame) {
	case sessOK:
		return body, attemptOK, nil
	case sessBadRequest:
		return nil, attemptBadRequest, ErrBadRequestFrame
	}
	if ra, draining, err := ParsePushbackFrame(frame); err == nil {
		return nil, attemptPushback, &ErrOverloaded{RetryAfter: ra, Draining: draining}
	}
	return nil, attemptStale, errStaleReply
}

// faultOutcome classifies an attempt the transport failed: a
// *RemoteError means the server executed, a canceled context that the
// caller gave up; anything else, a timeout included, is a fault.
func faultOutcome(err error) attemptOutcome {
	var re *RemoteError
	switch {
	case errors.As(err, &re):
		return attemptRemote
	case errors.Is(err, context.Canceled):
		return attemptCtxDone
	}
	return attemptFault
}

// clientState is a client's session state: the last seq drawn, the
// finished cacheable seqs not yet acknowledged (oldest at ackHead), and
// the splitmix64 state of the backoff jitter. Its shell holds one
// mutex over all of it.
type clientState struct {
	seq     uint32
	acks    [ackQueueLen]uint32
	ackHead int
	ackLen  int
	rng     uint64
}

// nextSeq opens a call: a fresh sequence number and the ack its frame
// carries, seq − s for the oldest queued finished call s that the ack
// field can still reach, or 0 for none. Every queued seq precedes the
// new one.
func (c *clientState) nextSeq() (seq, ack uint32) {
	c.seq++
	for c.ackLen > 0 {
		s := c.acks[c.ackHead]
		c.ackHead = (c.ackHead + 1) % ackQueueLen
		c.ackLen--
		if d := c.seq - s; d <= ackMask {
			return c.seq, d
		}
	}
	return c.seq, 0
}

// finished queues the seq of a finished cacheable call for a later
// frame to acknowledge, dropping the oldest when the queue is full.
func (c *clientState) finished(seq uint32) {
	if c.ackLen == ackQueueLen {
		c.ackHead = (c.ackHead + 1) % ackQueueLen
		c.ackLen--
	}
	c.acks[(c.ackHead+c.ackLen)%ackQueueLen] = seq
	c.ackLen++
}

// jitter draws a backoff sleep uniformly over [d/2, d].
func (c *clientState) jitter(d time.Duration) time.Duration {
	c.rng += 0x9E3779B97F4A7C15
	x := c.rng
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return d/2 + time.Duration(x%(uint64(d/2)+1))
}

// retryAct is the retry step's decision.
type retryAct uint8

const (
	retryDone    retryAct = iota // the call is complete, with this attempt's result
	retryBackoff                 // retry after a jittered sleep over [d/2, d]
	retryPause                   // retry after the server's advice d, as given
)

// retryStep is a call's retry state: attempts made, and the ceiling of
// the next backoff, which doubles per backoff up to MaxBackoff.
type retryStep struct {
	attempt int
	backoff time.Duration
}

// next decides what follows an attempt that ended in o; retryAfter is
// a pushback's advice. safe says a call that may have executed can be
// retried: it is [idempotent], or its client declares an at-most-once
// session. A pushed-back call never reached the dispatcher, so it
// retries whatever safe says. p carries its defaults.
func (s *retryStep) next(o attemptOutcome, retryAfter time.Duration, p *RetryPolicy, safe bool) (retryAct, time.Duration) {
	s.attempt++
	switch {
	case o == attemptOK || o == attemptRemote || o == attemptCtxDone || s.attempt >= p.MaxAttempts:
		return retryDone, 0
	case o == attemptPushback && retryAfter > 0:
		return retryPause, retryAfter
	case o != attemptPushback && !safe:
		return retryDone, 0
	}
	if s.backoff == 0 {
		s.backoff = p.BaseBackoff
	}
	d := s.backoff
	s.backoff = min(2*d, p.MaxBackoff)
	return retryBackoff, d
}

// serverAct is the server step's decision for an admitted frame.
type serverAct uint8

const (
	serveRefuse   serverAct = iota // damaged in transit: answer sessBadRequest, uncached, so the retransmit executes
	serveUncached                  // [idempotent], or no cache: execute
	serveCached                    // execute, or replay, through the reply cache
)

// serverStep decides an admitted request frame with header h, and
// names the key whose reply the shell releases first: the one the
// frame acknowledges, if it passed its CRC and there is a cache.
func serverStep(frame []byte, h *reqHeader, cached bool) (act serverAct, ack uint64, acks bool) {
	if requestCRC(frame) != h.sum {
		return serveRefuse, 0, false
	}
	ack, acks = h.ack()
	if h.idem || !cached {
		return serveUncached, ack, acks && cached
	}
	return serveCached, ack, acks
}
