package sunrpc

import (
	"context"
	"errors"
	"syscall"
	"time"

	"flexrpc/internal/clock"
)

// SetClock replaces the clock driving the accept rate limiter; nil
// (the default) means wall time. Set before serving.
func (s *Server) SetClock(c clock.Clock) { s.clock = c }

// SetAcceptRate paces each accept shard with a token bucket of perSec
// tokens per second and the given burst (minimum 1): an accept storm
// then trickles into the pollers at a bounded rate instead of
// monopolizing them, at the cost of connection-establishment latency
// under the storm. perSec <= 0 (the default) disables pacing. Each
// Serve/ServeShards listener gets its own bucket, so a multi-shard
// server admits shards × perSec connections per second. Set before
// serving.
func (s *Server) SetAcceptRate(perSec float64, burst int) {
	s.acceptRate = perSec
	s.acceptBurst = burst
}

// acceptLimiter is one shard's token bucket. It lives entirely on the
// shard's accept goroutine, so no locking.
type acceptLimiter struct {
	clock  clock.Clock
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func (s *Server) newAcceptLimiter() *acceptLimiter {
	if s.acceptRate <= 0 {
		return nil
	}
	ck := s.clock
	if ck == nil {
		ck = clock.WallClock
	}
	burst := float64(s.acceptBurst)
	if burst < 1 {
		burst = 1
	}
	return &acceptLimiter{clock: ck, rate: s.acceptRate, burst: burst, tokens: burst, last: ck.Now()}
}

// take blocks until a token is available and reports whether it had to
// wait — the AcceptThrottled signal.
func (l *acceptLimiter) take() bool {
	l.refill()
	throttled := false
	for l.tokens < 1 {
		need := (1 - l.tokens) / l.rate
		// The extra nanosecond covers float truncation so one sleep
		// normally suffices; under a FakeClock the advance is exact.
		l.clock.Sleep(context.Background(), time.Duration(need*float64(time.Second))+time.Nanosecond)
		throttled = true
		l.refill()
	}
	l.tokens--
	return throttled
}

func (l *acceptLimiter) refill() {
	now := l.clock.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	l.last = now
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}

// acceptAction classifies an Accept error (see classifyAcceptError).
type acceptAction int

const (
	acceptFatal   acceptAction = iota // unknown or permanent: stop the shard
	acceptRetry                       // a connection died in the backlog: retry now
	acceptBackoff                     // resource exhaustion: back off at the cap
)

// classifyAcceptError classifies on errno — the ground truth the
// deprecated net.Error.Temporary lumped together. A connection that
// was aborted while queued in the backlog (ECONNABORTED, or a signal
// interrupting the accept) costs nothing to retry immediately; fd or
// buffer exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) only clears on the
// timescale of other connections closing, so those back off; anything
// else — including errors that carry no errno at all — is treated as
// permanent rather than guessed at.
func classifyAcceptError(err error) acceptAction {
	var errno syscall.Errno
	if !errors.As(err, &errno) {
		return acceptFatal
	}
	switch errno {
	case syscall.ECONNABORTED, syscall.EINTR, syscall.ECONNRESET:
		return acceptRetry
	case syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM:
		return acceptBackoff
	}
	return acceptFatal
}
