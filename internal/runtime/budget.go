package runtime

import (
	"sync"
	"sync/atomic"
	"time"
)

// Client-side overload protection. Two small mechanisms keep a
// RobustConn's retry loop from amplifying a server's bad day into a
// retry storm:
//
//   - A RetryBudget is a token bucket that bounds what fraction of
//     traffic may be retries: every first attempt deposits a
//     fractional token, every retry withdraws a whole one, and a
//     retry the bucket cannot pay for is suppressed — the call fails
//     fast with its last error instead of joining the storm. Healthy
//     traffic keeps the bucket full, so occasional faults retry
//     freely; when most calls are failing, deposits cannot keep up
//     and the retry rate collapses to the deposit ratio.
//
//   - A Breaker is a half-open circuit breaker: consecutive failures
//     trip it open, an open breaker fails calls instantly without
//     touching the wire (the server's advisory RetryAfter seeds the
//     cooldown), and after the cooldown a single probe call decides
//     between closing it and re-opening it.
//
// Both are deliberately shareable: one budget or breaker may guard
// many RobustConns to one backend, which is where the aggregate
// protection matters.

// budgetScale is the fixed-point scale for fractional token
// arithmetic (tokens are int64 multiples of 1/budgetScale).
const budgetScale = 1024

// A RetryBudget throttles retries across every conn that shares it.
// All methods are safe on a nil *RetryBudget (the disabled state:
// retries are limited only by the policy).
type RetryBudget struct {
	capacity   int64 // scaled
	deposit    int64 // scaled, credited per first attempt
	tokens     atomic.Int64
	suppressed atomic.Uint64
}

// NewRetryBudget returns a budget holding at most capacity retry
// tokens, crediting ratio tokens per first attempt. capacity <= 0
// means 10; ratio <= 0 means 0.1 (one retry per ten calls, the
// conventional throttle). The bucket starts full, so a fresh client
// retries its first faults freely.
func NewRetryBudget(capacity, ratio float64) *RetryBudget {
	if capacity <= 0 {
		capacity = 10
	}
	if ratio <= 0 {
		ratio = 0.1
	}
	b := &RetryBudget{
		capacity: int64(capacity * budgetScale),
		deposit:  int64(ratio * budgetScale),
	}
	if b.deposit < 1 {
		b.deposit = 1
	}
	b.tokens.Store(b.capacity)
	return b
}

// onAttempt credits the budget for one first attempt.
func (b *RetryBudget) onAttempt() {
	if b == nil {
		return
	}
	for {
		cur := b.tokens.Load()
		next := cur + b.deposit
		if next > b.capacity {
			next = b.capacity
		}
		if next == cur || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// allowRetry withdraws one retry token, reporting false (and counting
// a suppression) when the bucket cannot pay.
func (b *RetryBudget) allowRetry() bool {
	if b == nil {
		return true
	}
	for {
		cur := b.tokens.Load()
		if cur < budgetScale {
			b.suppressed.Add(1)
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-budgetScale) {
			return true
		}
	}
}

// breaker states.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// A Breaker is a half-open circuit breaker. All methods are safe on a
// nil *Breaker (the disabled state: every call is allowed).
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clock     Clock

	mu        sync.Mutex
	state     breakerState
	failures  int
	openUntil time.Time
	probing   bool
	opens     uint64
}

// NewBreaker returns a breaker that opens after threshold
// consecutive protection-relevant failures (pushback, transport
// faults, repeated SystemErr — not application errors, which prove
// the server is answering) and stays open for cooldown, or for the
// server's advisory RetryAfter when that is longer. threshold <= 0
// means 5; cooldown <= 0 means 100ms; clock nil means WallClock.
func NewBreaker(threshold int, cooldown time.Duration, clock Clock) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 100 * time.Millisecond
	}
	if clock == nil {
		clock = WallClock
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, clock: clock}
}

// Allow reports whether a call may proceed. An open breaker admits
// nothing until its cooldown passes, then admits exactly one probe
// (half-open); the probe's outcome closes or re-opens it.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.clock.Now().Before(b.openUntil) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// OnSuccess records a successful (or application-level-answered)
// call: failures reset and a half-open breaker closes.
func (b *Breaker) OnSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// OnFailure records one protection-relevant failure; retryAfter, when
// nonzero, seeds the cooldown (the server knows its own recovery
// horizon better than the client's default). It reports whether this
// failure transitioned the breaker into the open state.
func (b *Breaker) OnFailure(retryAfter time.Duration) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state == breakerClosed && b.failures < b.threshold {
		return false
	}
	cool := b.cooldown
	if retryAfter > cool {
		cool = retryAfter
	}
	wasOpen := b.state == breakerOpen
	b.state = breakerOpen
	b.openUntil = b.clock.Now().Add(cool)
	b.probing = false
	if !wasOpen {
		b.opens++
	}
	return !wasOpen
}
